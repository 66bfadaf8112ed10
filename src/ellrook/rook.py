"""Elliptic rook numbers on Ferrers boards: enumeration, recursion, and the
factorization theorem, plus the classical q-rook oracle.

The weighted sum over placements is computed from a cached, family-free
"signature": for each placement the multiset of integer arguments fed to
the small weight.  Signatures are built once per (board, k, depth) by
column-major backtracking that carries the arguments of the columns to the
left (the placement-level definition is `boards.rook_uncancelled`), and
then evaluated against any weight family with memoized weights, so the
exponential enumeration cost is paid once rather than per parameter point.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .boards import ExtendedBoard, SkylineBoard
from .numeric import CheckEntry, guard_condition, worst_error
from .theta import q_pochhammer
from .weights import WeightFamily, WeightTable, q_binomial, q_factorial

Signature = tuple[tuple[tuple[int, ...], int], ...]


@lru_cache(maxsize=None)
def rook_signature(heights: tuple[int, ...], k: int, depth: int = 0) -> Signature:
    """Multiset of small-weight argument tuples over all k-rook placements."""
    counts: Counter = Counter()
    if 0 <= k <= len(heights):
        _add_rook_columns(counts, heights, depth, 1, k, [], set())
    return tuple(sorted(counts.items()))


def _add_rook_columns(counts, heights, depth, col, remaining, exps, used_rows) -> None:
    """Count in counts the signature term of every way to place `remaining`
    rooks in columns col.. beside the rooks in used_rows, whose uncancelled
    cells in columns 1..col-1 have the small-weight arguments exps.

    A cell (col, row) is uncancelled when no rook further left sits in its
    row and no rook of its own column sits at or above it; its argument is
    col - row - nw, nw counting the rooks further left in higher rows, also
    rows above this column's height on a non-Ferrers board.
    """
    if remaining > len(heights) - col + 1:
        return
    if col > len(heights):
        counts[tuple(sorted(exps))] += 1
        return
    height = heights[col - 1]
    nw = 0
    for row in used_rows:
        if row > height:
            nw += 1
    mark = len(exps)
    # free rows top down: a rook in one has the free cells above it in exps
    for row in range(height, -depth, -1):
        if row in used_rows:
            nw += 1
            continue
        if remaining:
            used_rows.add(row)
            _add_rook_columns(counts, heights, depth, col + 1, remaining - 1, exps, used_rows)
            used_rows.discard(row)
        exps.append(col - row - nw)
    # an empty column: every free cell
    _add_rook_columns(counts, heights, depth, col + 1, remaining, exps, used_rows)
    del exps[mark:]


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


def rook_number(board: SkylineBoard, k: int, fam: WeightFamily, depth: int = 0):
    """The k-th elliptic rook number of a Ferrers board by enumeration."""
    if k < 0 or k > board.n:
        return 0
    if not board.is_ferrers:
        raise ValueError(f"rook numbers require a Ferrers board, got {board}")
    sig = rook_signature(board.heights, k, depth)
    return evaluate_signature(sig, WeightTable(fam))


def q_rook_number(board: SkylineBoard, k: int, q):
    """Garsia-Remmel q-rook number; exact when q is an exact rational."""
    if k < 0 or k > board.n:
        return 0
    total = 0
    for exps, count in rook_signature(board.heights, k):
        total += count * q ** len(exps)
    return total


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
    if not board.is_ferrers:
        raise ValueError(f"the rook recursion requires a Ferrers board, got {board}")
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


def product_formula_check(
    board: SkylineBoard, fam: WeightFamily, z, max_condition: float | None = None
) -> CheckEntry:
    """Both sides of the rook factorization theorem at argument z."""
    if not board.is_ferrers:
        raise ValueError(f"rook numbers require a Ferrers board, got {board}")
    n = board.n
    table = WeightTable(fam)
    lhs = 0
    falling = 1
    term_scale = 0.0
    for k in range(n + 1):
        if k:
            falling = falling * fam.shifted(k - 1).number(z - k + 1)
        value, magnitude = evaluate_signature_with_magnitude(
            rook_signature(board.heights, n - k), table
        )
        term_scale = worst_error(term_scale, magnitude * abs(falling))
        lhs = lhs + value * falling
    rhs = 1
    for i, b in enumerate(board.heights, 1):
        rhs = rhs * fam.shifted(i - 1 - b).number(z + b - i + 1)
    guard_condition(term_scale, lhs, rhs, max_condition)
    return CheckEntry(lhs, rhs)


def max_identity_check(
    board: SkylineBoard, fam: WeightFamily, k: int, max_condition: float | None = None
) -> CheckEntry:
    """Full-placement weight sum on the depth-k extension vs its product form."""
    n = board.n
    sig = rook_signature(board.heights, n, depth=k)
    table = WeightTable(fam)
    lhs, magnitude = evaluate_signature_with_magnitude(sig, table)
    rhs = 1
    for i, b in enumerate(board.heights, 1):
        rhs = rhs * fam.shifted(i - 1 - b).number(k + b - i + 1)
    guard_condition(magnitude, lhs, rhs, max_condition)
    return CheckEntry(lhs, rhs)


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


def extended(board: SkylineBoard, depth: int) -> ExtendedBoard:
    return board.extended(depth)
