"""Elliptic rook numbers on Ferrers boards: enumeration, recursion, and the
factorization theorem, plus the classical q-rook oracle.

The weight of a placement is a product over columns, and a column's
factor depends only on the rows that rooks further left attack and use
and on the row of its own rook.  So the weighted sum at a parameter point
is a transfer over the columns, j_rook_row, whose state is the pair of
the attacked rows and the rook rows; one pass gives every k, and a pass
for one k drops the states that cannot end with k rooks.  It is written
for the jump-attacking model, whose jump 1 is the rook model: rook_row is
j_rook_row at jump 1, and jattack uses it at every jump.  The
placement-level definition is `boards.j_uncancelled` at jump 1.

The kernel's operations depend on the board, never on the point, so
transfer_row records them once per (kernel, heights, jump or weighting,
depth, k) as a straight-line program (Kaltofen, JACM 35 (1988)): the
distinct weight arguments, the kernel's constants, and add and multiply
instructions over registers, kept in int arrays in a bounded LRU
(_plan).  Each point replays it at its weights, the same operations on
the same operands in the same order, so the sums are bit-identical to
the kernel's; on request the same walk fills a second register file from
|w|, each sum's pre-cancellation magnitude.  The recording values keep
their program in themselves, so threads may record at once.

At an exact q (a PlainQ over an int or a Fraction, Garsia and Remmel's
classical point) each sum is an integer polynomial in q: transfer_row runs
the kernel once over ints, unrecorded, q being a power of two wide enough
to hold each coefficient in its own bit field, and reads the sums at q
off them.

rook_signature is the family-free form of the same sum per (board, k,
depth): the multiset of small-weight arguments, one entry per placement,
which evaluate_signature sums at a family.  It is the same transfer run
over formal sums (FormalSum), where each small weight stands for its
argument, so the cancellation rule is written once, in the kernel.  No
numeric path uses it.  Its lru_cache has maxsize 0: it holds no
signature, and keeps cache_info, cache_clear and __wrapped__ for the
tests and the benchmark.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from .boards import SkylineBoard, _rook_attack_rows
from .errors import BadBoardSpec
from .numeric import CheckEntry, factor_sum
# bench/tracing.py patches guard_condition under this name; the checks here
# return their term scale, and harness._judge guards them
from .numeric import guard_condition  # noqa: F401
from .theta import q_pochhammer
from .weights import PlainQ, WeightFamily, WeightTable, q_binomial, q_factorial

Signature = tuple[tuple[tuple[int, ...], int], ...]


class FormalSum(dict):
    """A sum of products of small weights kept as a formula: a dict from
    the sorted tuple of a product's arguments to its count.  An int n
    stands for n times the empty product."""

    __slots__ = ()

    def __add__(self, other):
        out = FormalSum(self)
        for args, count in _terms(other):
            out[args] = out.get(args, 0) + count
        return out

    __radd__ = __add__

    def __mul__(self, other):
        out = FormalSum()
        for more, times in _terms(other):
            for args, count in self.items():
                key = tuple(sorted(args + more))
                out[key] = out.get(key, 0) + count * times
        return out

    __rmul__ = __mul__


def _terms(value):
    if isinstance(value, FormalSum):
        return value.items()
    return (((), value),) if value else ()


def _atom(ell: int) -> FormalSum:
    return FormalSum({(ell,): 1})


def signature_row(transfer) -> dict:
    """k -> the Signature of transfer(weight) run over formal sums, weight(ell)
    being the one-term sum of the product (ell,)."""
    return {k: tuple(sorted(_terms(value))) for k, value in transfer(_atom).items()}


@lru_cache(maxsize=0)
def rook_signature(heights: tuple[int, ...], k: int, depth: int = 0) -> Signature:
    """Multiset of small-weight argument tuples over all k-rook placements."""
    return signature_row(partial(_j_rook_transfer, heights, 1, depth, k)).get(k, ())


def evaluate_signature(sig: Signature, table: WeightTable):
    total = 0
    for exps, count in sig:
        prod = count
        for e in exps:
            prod = prod * table[e]
        total = total + prod
    return total


def evaluate_signature_with_magnitude(sig: Signature, table: WeightTable):
    """Signature value together with its pre-cancellation magnitude."""
    total = 0
    scale = 0.0
    for exps, count in sig:
        prod = count
        for e in exps:
            prod = prod * table[e]
        total = total + prod
        scale = scale + abs(prod)
    return total, scale


def rook_row(
    board: SkylineBoard,
    fam: WeightFamily,
    depth: int = 0,
    k: int | None = None,
    magnitude: bool = False,
):
    """The weighted sums k -> r_k over the rook placements of the board
    extended by `depth` rows, any skyline: the jump placements at jump 1."""
    return j_rook_row(board, 1, fam, depth, k, magnitude)


def j_rook_row(
    board: SkylineBoard,
    jump: int,
    fam: WeightFamily,
    depth: int = 0,
    k: int | None = None,
    magnitude: bool = False,
):
    """The weighted sums k -> r_k over the jump placements of the board
    extended by `depth` rows, any skyline, in one pass over the columns.

    Given k, only the sum of k-rook placements is computed.  With
    magnitude, returns the pair (sums, magnitudes): the magnitudes are the
    same sums over |w| in doubles, each sum's pre-cancellation scale.
    """
    return transfer_row(
        _j_rook_transfer,
        (board.heights, jump, depth, k),
        fam,
        magnitude,
        [h + depth for h in board.heights],
    )


def transfer_row(kernel, args: tuple, fam: WeightFamily, magnitude: bool, rows):
    """kernel(*args, weight) at the small weights of fam; with magnitude,
    the pair of it and the same sums over |weight| in doubles.

    The kernel's operations depend on args alone, never on the weights, so
    _plan records them once per args as a straight-line program, and each
    call replays it at fam's weights; with magnitude the same walk fills a
    second register file from |weight|.

    rows holds each column's row count.  At an exact q (a PlainQ whose q
    is an int or a Fraction) every small weight is q, so each sum is
    sum_i c_i q^i with c_i counting placements.  The kernel then runs once
    on ints, unrecorded, every weight being 2^S with S =
    prod(r + 1).bit_length(): each coefficient of a sum, or of a partial
    sum in the kernel, counts placements on some of the columns, at most
    prod(r + 1) < 2^S, so the S-bit fields of a packed sum never carry
    (Kronecker substitution), and _unpack reads the c_i off it.
    """
    exact = isinstance(fam, PlainQ) and isinstance(fam.q, (int, Fraction))
    if exact:
        shift = math.prod(r + 1 for r in rows).bit_length()
        packed = 1 << shift
        q = fam.q
        values = {
            k: _unpack(value, shift, q.numerator, q.denominator)
            for k, value in kernel(*args, lambda ell: packed).items()
        }
        if not magnitude:
            return values
    plan = _plan(kernel, args)
    weight = WeightTable(fam).__getitem__
    weights = [weight(ell) for ell in plan.args]
    if exact:
        return values, _replay(plan, [abs(complex(w)) for w in weights])
    if not magnitude:
        return _replay(plan, weights)
    return _replay_with_magnitudes(plan, weights, [abs(complex(w)) for w in weights])


class _Plan(NamedTuple):
    """A kernel run as a straight-line program.  Its registers are the
    weights at args, then consts, then one per instruction i: register
    lefts[i] plus register rights[i] if adds[i], else their product.
    outputs pairs each k with the register of its sum."""

    args: tuple
    consts: tuple
    adds: bytes
    lefts: array
    rights: array
    outputs: tuple


@lru_cache(maxsize=256)
def _plan(kernel, args: tuple) -> _Plan:
    """kernel(*args, weight) recorded over _Recorded values."""
    recording = _Recording()
    return recording.plan(kernel(*args, recording.weight))


def _replay(plan: _Plan, weights: list) -> dict:
    """The sums of plan with weights in the registers of its args."""
    regs = weights + list(plan.consts)
    append = regs.append
    for add, a, b in zip(plan.adds, plan.lefts, plan.rights):
        append(regs[a] + regs[b] if add else regs[a] * regs[b])
    return {k: regs[r] for k, r in plan.outputs}


def _replay_with_magnitudes(plan: _Plan, weights: list, magnitudes: list):
    """_replay at weights and at magnitudes in one walk."""
    consts = list(plan.consts)
    regs, mags = weights + consts, magnitudes + consts
    for add, a, b in zip(plan.adds, plan.lefts, plan.rights):
        if add:
            regs.append(regs[a] + regs[b])
            mags.append(mags[a] + mags[b])
        else:
            regs.append(regs[a] * regs[b])
            mags.append(mags[a] * mags[b])
    return {k: regs[r] for k, r in plan.outputs}, {k: mags[r] for k, r in plan.outputs}


class _Recording:
    """The instructions of one kernel run, which weight() and the
    _Recorded values it returns append to.  Until plan() renumbers them,
    input j (a weight or a constant) is register ~j and instruction i is
    register i."""

    def __init__(self):
        self.inputs: dict = {}  # (is a weight, argument or constant) -> j
        self.ops: list = []  # (add, left register, right register)

    def weight(self, ell) -> _Recorded:
        return _Recorded(self, self._input(True, ell))

    def _input(self, is_weight: bool, key) -> int:
        return ~self.inputs.setdefault((is_weight, key), len(self.inputs))

    def _register(self, value) -> int:
        if isinstance(value, _Recorded):
            return value.reg
        return self._input(False, value)  # a constant of the kernel's own

    def emit(self, add: bool, left, right) -> _Recorded:
        self.ops.append((add, self._register(left), self._register(right)))
        return _Recorded(self, len(self.ops) - 1)

    def plan(self, sums: dict) -> _Plan:
        outputs = [(k, self._register(value)) for k, value in sums.items()]
        # the final registers: the weights, the constants, the instructions
        inputs = sorted(self.inputs, key=lambda key: not key[0])
        final = {~self.inputs[key]: reg for reg, key in enumerate(inputs)}
        base = len(inputs)

        def renumber(reg):
            return final[reg] if reg < 0 else base + reg

        adds, lefts, rights = zip(*self.ops) if self.ops else ((), (), ())
        return _Plan(
            tuple(arg for is_weight, arg in inputs if is_weight),
            tuple(const for is_weight, const in inputs if not is_weight),
            bytes(adds),
            array("i", map(renumber, lefts)),
            array("i", map(renumber, rights)),
            tuple((k, renumber(reg)) for k, reg in outputs),
        )


class _Recorded:
    """A value in a recorded kernel run: register reg of recording.  Each
    sum or product appends one instruction, operands in the kernel's order."""

    __slots__ = ("recording", "reg")

    def __init__(self, recording: _Recording, reg: int):
        self.recording, self.reg = recording, reg

    def __add__(self, other):
        return self.recording.emit(True, self, other)

    def __radd__(self, other):
        return self.recording.emit(True, other, self)

    def __mul__(self, other):
        return self.recording.emit(False, self, other)

    def __rmul__(self, other):
        return self.recording.emit(False, other, self)


def _unpack(value: int, shift: int, u: int, v: int):
    """sum_i c_i (u/v)^i for the shift-bit fields c_i of value, lowest
    first: the homogeneous Horner sum sum_i c_i u^i v^(D-i) over v^D, D
    being the top field's index; an int when v = 1."""
    mask = (1 << shift) - 1
    fields = []
    while value:
        fields.append(value & mask)
        value >>= shift
    num, den = 0, 1  # den = v^(D+1) at the end
    for c in reversed(fields):
        num = num * u + c * den
        den *= v
    return num if v == 1 else Fraction(num * v, den)


def _j_rook_transfer(heights, jump, depth, k, weight) -> dict:
    """Sums k -> over the k-rook jump placements of the product of
    weight(argument) over their uncancelled cells.

    The state after a column is (attacked rows, rook rows, rook count), the
    row sets as bitmasks whose bit row - bottom stands for a row; at jump 0
    rooks may share a row, so the count is kept apart.  A cell (col, row)
    is uncancelled when no rook further left attacks its row and no rook of
    its own column sits at or above it; its argument is
    jump*(col-1) + 1 - row - jump*nw, nw counting the rooks further left in
    higher rows, also rows above this column's height on a non-Ferrers
    board.
    """
    n = len(heights)
    if k is not None and not 0 <= k <= n:
        return {}
    bottom = 1 - depth
    states = {(0, 0, 0): 1}
    for col, height in enumerate(heights, 1):
        rows = (1 << (height - bottom + 1)) - 1  # this column's rows
        left = n - col  # columns after this one
        base = jump * (col - 1) + 1
        new: dict = {}
        for state, value in states.items():
            attacked, rook_rows, rooks = state
            place = k is None or rooks < k
            keep = k is None or rooks + left >= k
            free = rows & ~attacked
            # unattacked rows top down: a rook in one has the free cells above it
            while free:
                bit = free.bit_length() - 1
                free ^= 1 << bit
                if place:
                    if jump == 1:  # a rook attacks its own row
                        hit = attacked | 1 << bit
                    elif col == n and bit >= depth:
                        # no column follows, and above the ground the attack
                        # rule always finds its rows: nothing to work out
                        hit = attacked
                    else:
                        hit = attacked | _rook_attack_rows(bit + bottom, jump, attacked, bottom)
                    key = (hit, rook_rows | 1 << bit, rooks + 1)
                    new[key] = new.get(key, 0) + value
                if not (free or keep):
                    break  # the lowest free cell counts only in an empty column
                # at jump >= 1 a rook row is attacked, so never this free row
                value = value * weight(base - bit - bottom - jump * (rook_rows >> bit).bit_count())
            if keep:  # an empty column: every free cell
                new[state] = new.get(state, 0) + value
        states = new
    sums: dict = {}
    for (_, _, rooks), value in states.items():
        sums[rooks] = sums.get(rooks, 0) + value
    return sums


def _require_ferrers(board: SkylineBoard, statement: str) -> None:
    """A BadBoardSpec unless board is a Ferrers board, the only boards
    statement is made for."""
    if not board.is_ferrers:
        raise BadBoardSpec(f"{statement} needs a Ferrers board, got {board}")


def rook_number(board: SkylineBoard, k: int, fam: WeightFamily, depth: int = 0):
    """The k-th elliptic rook number of a Ferrers board by enumeration."""
    if k < 0 or k > board.n:
        return 0
    _require_ferrers(board, "a rook number")
    return rook_row(board, fam, depth, k).get(k, 0)


def q_rook_number(board: SkylineBoard, k: int, q):
    """Garsia-Remmel q-rook number; exact when q is an exact rational."""
    return rook_row(board, PlainQ(q), k=k).get(k, 0)


def triangle(start: int, stop: int, same, below) -> dict:
    """Row `stop` of the two-term triangular recursion

        S(n+1, k) = same(n, k) * S(n, k) + below(n, k) * S(n, k-1),

    seeded with S(start, start) = 1, as a dict k -> S(stop, k).  A
    coefficient is evaluated only where the S it multiplies is nonzero.
    """
    row = {start: 1}
    for n in range(start, stop):
        new = {}
        for k in range(start, n + 2):
            term = 0
            s_same = row.get(k, 0)
            s_below = row.get(k - 1, 0)
            if s_same != 0:
                term = term + same(n, k) * s_same
            if s_below != 0:
                term = term + below(n, k) * s_below
            new[k] = term
        row = new
    return row


def rook_row_via_recursion(board: SkylineBoard, fam: WeightFamily) -> dict:
    """All rook numbers k -> r_k of a Ferrers board, column by column from
    the two-term recursion."""
    _require_ferrers(board, "the rook recursion")
    heights = board.heights
    shifted = [fam.shifted(cols_before - m) for cols_before, m in enumerate(heights)]
    return triangle(
        0,
        board.n,
        lambda n, k: shifted[n].big_weight(heights[n] - k),
        lambda n, k: shifted[n].number(heights[n] - k + 1),
    )


def rook_number_via_recursion(board: SkylineBoard, k: int, fam: WeightFamily):
    """Rook number rebuilt column by column from the two-term recursion."""
    return rook_row_via_recursion(board, fam).get(k, 0)


def product_formula_check(board: SkylineBoard, fam: WeightFamily, z) -> CheckEntry:
    """Both sides of the rook factorization theorem at argument z, with the
    term scale of the sum side, unguarded: the harness judges them."""
    _require_ferrers(board, "the rook factorization")
    values, magnitudes = rook_row(board, fam, magnitude=True)
    lhs, term_scale = factor_sum(
        values, magnitudes, board.n, lambda k: fam.shifted(k - 1).number(z - k + 1)
    )
    rhs = 1
    for i, b in enumerate(board.heights, 1):
        rhs = rhs * fam.shifted(i - 1 - b).number(z + b - i + 1)
    return CheckEntry(lhs, rhs, term_scale)


def max_identity_check(board: SkylineBoard, fam: WeightFamily, k: int) -> CheckEntry:
    """Full-placement weight sum on the depth-k extension vs its product
    form, with the sum's pre-cancellation magnitude, unguarded: the harness
    judges them."""
    _require_ferrers(board, "the max identity")
    n = board.n
    values, magnitudes = rook_row(board, fam, depth=k, k=n, magnitude=True)
    lhs = values.get(n, 0)
    rhs = 1
    for i, b in enumerate(board.heights, 1):
        rhs = rhs * fam.shifted(i - 1 - b).number(k + b - i + 1)
    return CheckEntry(lhs, rhs, magnitudes.get(n, 0.0))


def rect_rook_number_aq(ell: int, m: int, k: int, a, q):
    """Closed form for the a;q rook number of the [ell] x [m] rectangle."""
    if k < 0 or k > min(ell, m):
        return 0
    prefactor = q ** (k * (k + 1) // 2 - ell * m)
    value = prefactor * q_binomial(q, ell, k) * q_factorial(q, m) / q_factorial(q, m - k)
    value *= q_pochhammer(a * q ** (ell - m - k), q, k)
    value *= q_pochhammer(a * q ** (1 + 2 * ell - 2 * m), q * q, m - k)
    return value / q_pochhammer(a * q ** (1 - 2 * m), q * q, m)


def rectangle(ell: int, m: int) -> SkylineBoard:
    """The [ell] x [m] board: ell columns of height m."""
    return SkylineBoard((m,) * ell)
