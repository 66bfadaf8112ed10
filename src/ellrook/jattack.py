"""The jump-attacking rook model: weighted rook numbers, the jump product
formula with its below-ground extension, generalized Stirling numbers of
both kinds, colored restricted-growth words and the placement bijection.

Boards here are B(offset, offset + jump, ..., offset + (n-1)*jump); the
column parameters are named `offset` and `jump` throughout.  Colored words
are only defined for 0 <= offset <= jump and are rejected otherwise.

At a parameter point the weighted sums of all k come from one pass over
the columns, `rook.j_rook_row`, whose state is the pair of the attacked
rows and the rook rows: a column's factor depends only on that pair and
on its own rook.  The placement-level definition is
`boards.j_uncancelled`, the one cancellation rule of all three kinds of
placement (rook placements at jump 1, file placements at jump 0).
j_rook_signature is the family-free form of the same sums per (board,
jump, k, depth): the same pass over rook.FormalSum, with no cache
(lru_cache with maxsize 0, as rook.rook_signature); no numeric path uses
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from .boards import SkylineBoard, _rook_attack_rows, j_uncancelled
from .errors import BadBoardSpec, NotJAttackingBoard
from .files import ABOVE_ROOK, file_row
from .numeric import CheckEntry, factor_sum
# rook's evaluators and numeric.guard_condition under this module's own
# names, where bench/tracing.py looks them up to trace each layer apart;
# the checks here return their term scale, and harness._judge guards them
from .numeric import guard_condition  # noqa: F401
from .rook import Signature, evaluate_signature as _evaluate  # noqa: F401
from .rook import evaluate_signature_with_magnitude as _evaluate_with_magnitude  # noqa: F401
from .rook import _j_rook_transfer, j_rook_row, signature_row
from .weights import WeightFamily, WeightTable


def b_board(offset: int, jump: int, n: int) -> SkylineBoard:
    """The board B(offset, offset + jump, ..., offset + (n-1)*jump)."""
    return SkylineBoard(tuple(offset + i * jump for i in range(n)))


@lru_cache(maxsize=0)
def j_rook_signature(heights: tuple[int, ...], jump: int, k: int, depth: int = 0) -> Signature:
    """Multiset of small-weight argument tuples over all k-rook jump
    placements on the board extended by `depth` rows below the ground."""
    return signature_row(partial(_j_rook_transfer, heights, jump, depth, k)).get(k, ())


def _require_j_attacking(board: SkylineBoard, jump: int) -> None:
    if not board.is_j_attacking(jump):
        raise NotJAttackingBoard(f"{board} is not {jump}-attacking")


def rook_number_j(board: SkylineBoard, k: int, jump: int, fam: WeightFamily):
    """The k-th jump rook number by enumeration."""
    _require_j_attacking(board, jump)
    return j_rook_row(board, jump, fam, k=k).get(k, 0)


def j_placement_weight(board: SkylineBoard, cells, jump: int, fam: WeightFamily):
    """The weight of one jump-nonattacking placement."""
    _require_j_attacking(board, jump)
    table = WeightTable(fam)
    prod = 1
    for (i, j), nw in j_uncancelled(board.heights, cells, jump).items():
        prod = prod * table[jump * (i - 1) + 1 - j - jump * nw]
    return prod


def jump_product_check(board: SkylineBoard, jump: int, fam: WeightFamily, z) -> CheckEntry:
    """Formula sides of the jump product identity at argument z, with the
    term scale of the sum side, unguarded: the harness judges them."""
    _require_j_attacking(board, jump)
    lhs = 1
    for i, b in enumerate(board.heights, 1):
        shift = jump * (i - 1) - b
        lhs = lhs * fam.shifted(shift).number(z + b - jump * (i - 1))
    values, magnitudes = j_rook_row(board, jump, fam, magnitude=True)
    rhs, term_scale = factor_sum(
        values,
        magnitudes,
        board.n,
        lambda k: fam.shifted(jump * (k - 1)).number(z - jump * (k - 1)),
    )
    return CheckEntry(lhs, rhs, term_scale)


def jump_enumeration_total(board: SkylineBoard, jump: int, z: int, fam: WeightFamily):
    """Sum of weights over all n-rook jump placements on the depth-z extension.

    Implements the below-ground attack rule with wrapping; requires
    depth z >= jump * n so the wrap always finds enough rows.
    """
    _require_j_attacking(board, jump)
    n = board.n
    if z < jump * n:
        raise ValueError(f"extension depth {z} below jump*n = {jump * n}")
    return j_rook_row(board, jump, fam, z, n).get(n, 0)


# ---------------------------------------------------------------------------
# generalized Stirling numbers of both kinds
# ---------------------------------------------------------------------------


def by_blocks(n: int, k: int | None, row) -> dict:
    """k -> S(n, k) from a board's row j -> r_j = row(k=j), where
    S(n, k) = r_{n-k}; given k, only that entry."""
    rooks = None if k is None else n - k
    return {n - j: value for j, value in row(k=rooks).items()}


def gen_stirling2_row(
    offset: int, jump: int, n: int, fam: WeightFamily, k: int | None = None
) -> dict:
    """k -> the generalized second-kind number at n: the (n-k)-th jump rook
    number of the model board; given k, only that entry."""
    if n == 0:
        return {0: 1}
    return by_blocks(n, k, partial(j_rook_row, b_board(offset, jump, n), jump, fam))


def gen_stirling2(offset: int, jump: int, n: int, k: int, fam: WeightFamily):
    """Generalized second-kind number: jump rook number of the model board."""
    return gen_stirling2_row(offset, jump, n, fam, k).get(k, 0)


def gen_stirling2_normalization(offset: int, jump: int, k: int, fam: WeightFamily):
    """The big-weight prefactor linking the tilde and plain second-kind numbers."""
    sh = fam.shifted(-offset)
    prod = 1
    for j in range(1, k + 1):
        prod = prod * sh.big_weight(offset + (j - 1) * jump)
    return prod


def gen_stirling2_normalized(offset: int, jump: int, n: int, k: int, fam: WeightFamily):
    return gen_stirling2(offset, jump, n, k, fam) / gen_stirling2_normalization(
        offset, jump, k, fam
    )


def gen_stirling1_row(
    offset: int, jump: int, n: int, fam: WeightFamily, k: int | None = None
) -> dict:
    """k -> the generalized first-kind number at n: the (n-k)-th above-rook
    file number of the model board; given k, only that entry."""
    if n == 0:
        return {0: 1}
    return by_blocks(n, k, partial(file_row, b_board(offset, jump, n), fam, ABOVE_ROOK))


def gen_stirling1(offset: int, jump: int, n: int, k: int, fam: WeightFamily):
    """Generalized first-kind number: above-rook file number of the model board."""
    return gen_stirling1_row(offset, jump, n, fam, k).get(k, 0)


# ---------------------------------------------------------------------------
# colored restricted-growth words and the placement bijection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RGWord:
    """A colored restricted-growth word (w : e).

    word holds w_0 .. w_n with w_0 = 0; colors holds e_1 .. e_n.  Zero-block
    letters carry colors below `offset`, the first letter of each nonzero
    block carries color 0, all other letters carry colors below `jump`.
    """

    offset: int
    jump: int
    word: tuple[int, ...]
    colors: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.word) - 1

    @property
    def k(self) -> int:
        return max(self.word)

    def validate(self) -> None:
        if not 0 <= self.offset <= self.jump:
            raise ValueError("words require 0 <= offset <= jump")
        if self.word[0] != 0 or len(self.colors) != self.n:
            raise ValueError("malformed word")
        seen_max = 0
        for s in range(1, self.n + 1):
            w = self.word[s]
            e = self.colors[s - 1]
            if w < 0 or w > seen_max + 1:
                raise ValueError(f"growth condition violated at position {s}")
            if w == 0:
                if not 0 <= e < self.offset:
                    raise ValueError(f"zero-block color out of range at position {s}")
            elif w == seen_max + 1:
                if e != 0:
                    raise ValueError(f"block-opening letter must have color 0 at {s}")
            elif not 0 <= e < self.jump:
                raise ValueError(f"color out of range at position {s}")
            seen_max = max(seen_max, w)

    def max_positions(self) -> list[int]:
        """Positions s with w_s strictly larger than every earlier letter."""
        out = []
        m = 0
        for s in range(1, self.n + 1):
            if self.word[s] > m:
                out.append(s)
                m = self.word[s]
        return out


def enumerate_rg_words(offset: int, jump: int, n: int, k: int) -> list[RGWord]:
    """All valid colored words with n letters and k nonzero blocks."""
    if not 0 <= offset <= jump:
        raise BadBoardSpec("words require 0 <= offset <= jump")
    out: list[RGWord] = []
    _extend_rg_words(offset, jump, n, k, (0,), (), 0, out)
    return out


def _extend_rg_words(offset, jump, n, k, word, colors, seen_max, out) -> None:
    """Append to out every valid word (w : e) with n letters and k nonzero
    blocks that starts with the prefix (word : colors), whose largest letter
    is seen_max."""
    s = len(word)
    if s > n:
        if seen_max == k:
            out.append(RGWord(offset, jump, word, colors))
        return
    if seen_max + (n - s + 1) < k:
        return
    for e in range(offset):
        _extend_rg_words(offset, jump, n, k, word + (0,), colors + (e,), seen_max, out)
    for w in range(1, seen_max + 1):
        for e in range(jump):
            _extend_rg_words(offset, jump, n, k, word + (w,), colors + (e,), seen_max, out)
    if seen_max + 1 <= k:
        grown = word + (seen_max + 1,)
        _extend_rg_words(offset, jump, n, k, grown, colors + (0,), seen_max + 1, out)


def phi(gamma: RGWord) -> tuple[tuple[int, int], ...]:
    """The word-to-placement bijection onto jump placements of the model board."""
    board = b_board(gamma.offset, gamma.jump, gamma.n)
    attacked = 0  # bit row - 1 for an attacked row
    cells: list[tuple[int, int]] = []
    for s in range(1, gamma.n + 1):
        target = gamma.offset + gamma.word[s] * gamma.jump - gamma.colors[s - 1]
        avail = [row for row in range(1, board.height(s) + 1) if not attacked >> row - 1 & 1]
        if 1 <= target <= len(avail):
            row = avail[target - 1]
            attacked |= _rook_attack_rows(row, gamma.jump, attacked, 1)
            cells.append((s, row))
    return tuple(cells)


def phi_inverse(offset: int, jump: int, n: int, cells) -> RGWord:
    """Recover the colored word from a jump placement of the model board."""
    board = b_board(offset, jump, n)
    col_rook = dict(cells)
    attacked = 0  # bit row - 1 for an attacked row
    word = [0]
    colors: list[int] = []
    seen_max = 0
    for s in range(1, n + 1):
        avail = [row for row in range(1, board.height(s) + 1) if not attacked >> row - 1 & 1]
        row = col_rook.get(s)
        if row is None:
            word.append(seen_max + 1)
            colors.append(0)
            seen_max += 1
            continue
        target = avail.index(row) + 1
        if target <= offset:
            w, e = 0, offset - target
        else:
            w = -((target - offset) // -jump)  # ceiling division
            e = offset + w * jump - target
        word.append(w)
        colors.append(e)
        seen_max = max(seen_max, w)
        attacked |= _rook_attack_rows(row, jump, attacked, 1)
    return RGWord(offset, jump, tuple(word), tuple(colors))


def rg_weight_product(gamma: RGWord, fam: WeightFamily):
    """The per-word big-weight product over the rook columns of phi(gamma)."""
    sh = fam.shifted(-gamma.offset)
    maxpos = set(gamma.max_positions())
    prod = 1
    for s in range(1, gamma.n + 1):
        inv = sum(
            1 for t in range(1, s) if t in maxpos and gamma.word[t] > gamma.word[s]
        )
        prod = prod * sh.big_weight(gamma.jump * inv + gamma.colors[s - 1])
    return prod


def rg_word_weight_identity(gamma: RGWord, fam: WeightFamily) -> CheckEntry:
    """Placement weight of phi(gamma) against its word-statistic product.

    The empty (block-opening) columns of phi(gamma) contribute exactly the
    big-weight prefactor that links the tilde and plain second-kind
    numbers, so the placement weight equals that prefactor times the
    per-letter product.
    """
    board = b_board(gamma.offset, gamma.jump, gamma.n)
    cells = phi(gamma)
    lhs = j_placement_weight(board, cells, gamma.jump, fam)
    rhs = gen_stirling2_normalization(
        gamma.offset, gamma.jump, gamma.k, fam
    ) * rg_weight_product(gamma, fam)
    return CheckEntry(lhs, rhs)


def statistic_d(offset: int, jump: int, n: int, k: int, fam: WeightFamily):
    """Sum of the per-word products over all words with k nonzero blocks."""
    total = 0
    for gamma in enumerate_rg_words(offset, jump, n, k):
        total = total + rg_weight_product(gamma, fam)
    return total
