"""Elliptic file numbers on skyline boards, under both weightings.

Row-only weighting: every uncancelled cell (not occupied, not below a rook)
contributes the small weight of 1 - row.  Above-rook weighting: only cells
lying above some rook contribute, with weight argument column - row.  A
column's cells depend only on its own rook, so at a parameter point the
weighted sums of all k are the coefficients of a product of one linear
polynomial E_c + R_c t per column: E_c weighs the empty column and R_c
sums its rook positions, each with the cells above the rook.  file_row
multiplies them out, through rook.transfer_row, which records the product
once per (board, weighting, k) and replays it at each point.  The
placement-level definitions are `boards.j_uncancelled` at jump 0
(row-only) and `boards.file_above_cells` (above-rook).

_file_signatures is the family-free form of the same sums, both
weightings per (board, k): the multisets of small-weight arguments, one
entry per placement, from the same product over rook.FormalSum.  No
numeric path uses them.  Like rook.rook_signature it keeps no cache
(lru_cache with maxsize 0).
"""

from __future__ import annotations

from functools import lru_cache, partial

from .boards import SkylineBoard
from .numeric import CheckEntry, factor_sum
from .rook import signature_row, transfer_row, triangle
# rook's evaluators and numeric.guard_condition under this module's own
# names, where bench/tracing.py looks them up to trace each layer apart;
# the checks here return their term scale, and harness._judge guards them
from .numeric import guard_condition  # noqa: F401
from .rook import Signature, evaluate_signature as _evaluate  # noqa: F401
from .rook import evaluate_signature_with_magnitude as _evaluate_with_magnitude  # noqa: F401
from .weights import PlainQ, WeightFamily

ROW_ONLY = "row"
ABOVE_ROOK = "above"


@lru_cache(maxsize=0)
def _file_signatures(heights: tuple[int, ...], k: int) -> tuple[Signature, Signature]:
    """The signatures of both weightings: _file_transfer over formal sums."""
    return tuple(
        signature_row(partial(_file_transfer, heights, weighting, k)).get(k, ())
        for weighting in (ROW_ONLY, ABOVE_ROOK)
    )


def file_signature(heights: tuple[int, ...], k: int, weighting: str) -> Signature:
    row, above = _file_signatures(heights, k)
    if weighting == ROW_ONLY:
        return row
    if weighting == ABOVE_ROOK:
        return above
    raise ValueError(f"unknown file weighting {weighting!r}")


def file_row(
    board: SkylineBoard,
    fam: WeightFamily,
    weighting: str = ROW_ONLY,
    k: int | None = None,
    magnitude: bool = False,
):
    """The weighted sums k -> f_k over the file placements of the board, as
    the coefficients of the product of the column polynomials.

    Given k, only the coefficient of t^k is computed.  With magnitude,
    returns the pair (sums, magnitudes): the magnitudes are the same sums
    over |w| in doubles, each sum's pre-cancellation scale.
    """
    if weighting not in (ROW_ONLY, ABOVE_ROOK):
        raise ValueError(f"unknown file weighting {weighting!r}")
    return transfer_row(
        _file_transfer, (board.heights, weighting, k), fam, magnitude, board.heights
    )


def _file_transfer(heights, weighting, k, weight) -> dict:
    """Coefficients k -> sum over the k-rook file placements of the product
    of weight(argument) over their weighted cells."""
    n = len(heights)
    if k is not None and not 0 <= k <= n:
        return {}
    sums = {0: 1}
    for col, height in enumerate(heights, 1):
        first = 1 if weighting == ROW_ONLY else col  # a cell's argument is first - row
        # rows top down: a rook in one weighs the cells above it
        rook, above = 0, 1
        for row in range(height, 0, -1):
            rook = rook + above
            if weighting == ROW_ONLY or row > 1:
                above = above * weight(first - row)
        # an empty column weighs every cell by its row, or has none above a rook
        empty = above if weighting == ROW_ONLY else 1
        left = n - col  # columns after this one
        new: dict = {}
        for rooks, value in sums.items():
            if k is None or rooks + left >= k:
                new[rooks] = new.get(rooks, 0) + value * empty
            if k is None or rooks < k:
                new[rooks + 1] = new.get(rooks + 1, 0) + value * rook
        sums = new
    return sums


def file_number(board: SkylineBoard, k: int, fam: WeightFamily, weighting: str = ROW_ONLY):
    """The k-th elliptic file number of a skyline board by enumeration."""
    return file_row(board, fam, weighting, k).get(k, 0)


def q_file_number(board: SkylineBoard, k: int, q):
    """Classical q-file number; exact when q is an exact rational."""
    return file_row(board, PlainQ(q), ROW_ONLY, k).get(k, 0)


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


def file_product_check(board: SkylineBoard, fam: WeightFamily, z) -> CheckEntry:
    """Both sides of the row-only file factorization at argument z, with the
    term scale of the sum side, unguarded: the harness judges them."""
    lhs = 1
    for c in board.heights:
        lhs = lhs * fam.shifted(-c).number(z + c)
    zn = fam.number(z)
    values, magnitudes = file_row(board, fam, ROW_ONLY, magnitude=True)
    rhs, term_scale = factor_sum(values, magnitudes, board.n, lambda k: zn)
    return CheckEntry(lhs, rhs, term_scale)


def file_above_product_check(board: SkylineBoard, fam: WeightFamily, z) -> CheckEntry:
    """Both sides of the above-rook file factorization at argument z, with the
    term scale of the sum side, unguarded: the harness judges them."""
    zn = fam.number(z)
    lhs = 1
    for i, c in enumerate(board.heights, 1):
        lhs = lhs * (zn + fam.shifted(i - 1 - c).number(c))
    values, magnitudes = file_row(board, fam, ABOVE_ROOK, magnitude=True)
    rhs, term_scale = factor_sum(values, magnitudes, board.n, lambda k: zn)
    return CheckEntry(lhs, rhs, term_scale)
