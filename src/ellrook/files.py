"""Elliptic file numbers on skyline boards, under both weightings.

Row-only weighting: every uncancelled cell (not occupied, not below a rook)
contributes the small weight of 1 - row.  Above-rook weighting: only cells
lying above some rook contribute, with weight argument column - row.  Both
weightings share the same cancellation geometry, so one column-major
backtracking pass builds both signatures, cached together per (board, k).
A column's cells depend only on its own rook, so each column appends its
arguments as the pass places or skips that rook.  The placement-level
definitions are `boards.file_uncancelled` and `boards.file_above_cells`.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .boards import SkylineBoard
from .numeric import CheckEntry, guard_condition, worst_error
from .rook import triangle
# rook's evaluators under this module's own names, so each layer can be traced apart
from .rook import Signature, evaluate_signature as _evaluate
from .rook import evaluate_signature_with_magnitude as _evaluate_with_magnitude
from .weights import WeightFamily, WeightTable

ROW_ONLY = "row"
ABOVE_ROOK = "above"


@lru_cache(maxsize=None)
def _file_signatures(heights: tuple[int, ...], k: int) -> tuple[Signature, Signature]:
    """One enumeration pass accumulating both weightings at once; the two
    cell sets derive from the same cancellation geometry."""
    row_counts: Counter = Counter()
    above_counts: Counter = Counter()
    if 0 <= k <= len(heights):
        _add_file_columns(row_counts, above_counts, heights, 1, k, [], [])
    return tuple(sorted(row_counts.items())), tuple(sorted(above_counts.items()))


def _add_file_columns(row_counts, above_counts, heights, col, remaining, row_exps, above_exps):
    """Count the terms of both weightings for every way to place `remaining`
    file rooks in columns col.., whose columns 1..col-1 have the row-only
    arguments row_exps and the above-rook arguments above_exps.  A column's
    cells do not depend on the other columns' rooks."""
    if remaining > len(heights) - col + 1:
        return
    if col > len(heights):
        row_counts[tuple(sorted(row_exps))] += 1
        above_counts[tuple(sorted(above_exps))] += 1
        return
    row_mark, above_mark = len(row_exps), len(above_exps)
    # rows top down: a rook in one has the cells above it in both lists
    for row in range(heights[col - 1], 0, -1):
        if remaining:
            _add_file_columns(
                row_counts, above_counts, heights, col + 1, remaining - 1, row_exps, above_exps
            )
        row_exps.append(1 - row)
        above_exps.append(col - row)
    # an empty column: every cell weighs by its row, none lies above a rook
    del above_exps[above_mark:]
    _add_file_columns(row_counts, above_counts, heights, col + 1, remaining, row_exps, above_exps)
    del row_exps[row_mark:]


def file_signature(heights: tuple[int, ...], k: int, weighting: str) -> Signature:
    row, above = _file_signatures(heights, k)
    if weighting == ROW_ONLY:
        return row
    if weighting == ABOVE_ROOK:
        return above
    raise ValueError(f"unknown file weighting {weighting!r}")


def file_number(board: SkylineBoard, k: int, fam: WeightFamily, weighting: str = ROW_ONLY):
    """The k-th elliptic file number of a skyline board by enumeration."""
    if k < 0 or k > board.n:
        return 0
    sig = file_signature(board.heights, k, weighting)
    return _evaluate(sig, WeightTable(fam))


def q_file_number(board: SkylineBoard, k: int, q):
    """Classical q-file number; exact when q is an exact rational."""
    if k < 0 or k > board.n:
        return 0
    total = 0
    for exps, count in file_signature(board.heights, k, ROW_ONLY):
        total += count * q ** len(exps)
    return total


def file_row_via_recursion(board: SkylineBoard, fam: WeightFamily) -> dict:
    """All row-only file numbers k -> f_k of a board, column by column from
    the two-term recursion."""
    big, num = [], []
    for m in board.heights:
        sh = fam.shifted(-m)
        big.append(sh.big_weight(m))
        num.append(sh.number(m))
    return triangle(0, board.n, lambda n, k: big[n], lambda n, k: num[n])


def file_number_via_recursion(board: SkylineBoard, k: int, fam: WeightFamily):
    """Row-only file number rebuilt column by column from the recursion."""
    return file_row_via_recursion(board, fam).get(k, 0)


def file_product_check(
    board: SkylineBoard, fam: WeightFamily, z, max_condition: float | None = None
) -> CheckEntry:
    """Both sides of the row-only file factorization at argument z."""
    n = board.n
    table = WeightTable(fam)
    lhs = 1
    for c in board.heights:
        lhs = lhs * fam.shifted(-c).number(z + c)
    zn = fam.number(z)
    rhs = 0
    power = 1
    term_scale = 0.0
    for k in range(n + 1):
        if k:
            power = power * zn
        value, magnitude = _evaluate_with_magnitude(
            file_signature(board.heights, n - k, ROW_ONLY), table
        )
        term_scale = worst_error(term_scale, magnitude * abs(power))
        rhs = rhs + value * power
    guard_condition(term_scale, lhs, rhs, max_condition)
    return CheckEntry(lhs, rhs)


def file_above_product_check(
    board: SkylineBoard, fam: WeightFamily, z, max_condition: float | None = None
) -> CheckEntry:
    """Both sides of the above-rook file factorization at argument z."""
    n = board.n
    table = WeightTable(fam)
    zn = fam.number(z)
    lhs = 1
    for i, c in enumerate(board.heights, 1):
        lhs = lhs * (zn + fam.shifted(i - 1 - c).number(c))
    rhs = 0
    power = 1
    term_scale = 0.0
    for k in range(n + 1):
        if k:
            power = power * zn
        value, magnitude = _evaluate_with_magnitude(
            file_signature(board.heights, n - k, ABOVE_ROOK), table
        )
        term_scale = worst_error(term_scale, magnitude * abs(power))
        rhs = rhs + value * power
    guard_condition(term_scale, lhs, rhs, max_condition)
    return CheckEntry(lhs, rhs)
