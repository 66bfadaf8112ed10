"""Skyline boards, rook/file/jump placements, and cancellation geometry.

Cells are (column, row) pairs, columns 1-based left to right, rows 1-based
bottom to top.  A placement is a tuple of cells.  A board extended by depth
rows below the ground line gains rows 0, -1, ..., 1-depth in every column;
the functions that allow it take the depth beside the heights.

In the jump-attacking model a placement has at most one rook per column,
and a rook attacks, in the columns strictly to its right, the first `jump`
rows weakly above its own row that are not already attacked by a rook
further left.  Below the ground the attack wraps: if only t < jump such
rows exist down there, the first jump - t unattacked rows below the rook's
row are attacked instead.  Jump 1 gives the rook placements (no two rooks
share a row or column; a rook cancels the cells strictly to its right in
its row and strictly below it in its column), jump 0 the file placements
(no two rooks share a column; a rook cancels only the cells below it in
its column).

One column-major backtracker, j_rook_placements, enumerates all three
kinds, and one rule, j_uncancelled, finds their uncancelled cells;
placements are emitted exactly once each.  Boards are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BadBoardSpec

Cell = tuple[int, int]


@dataclass(frozen=True)
class SkylineBoard:
    heights: tuple[int, ...]

    def __post_init__(self):
        if any(h < 0 or not isinstance(h, int) for h in self.heights):
            raise ValueError("column heights must be nonnegative integers")

    @classmethod
    def parse(cls, text: str) -> "SkylineBoard":
        """Parse a comma-separated height list such as "0,2,3,5,5"."""
        try:
            heights = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise BadBoardSpec(f"bad board literal {text!r}") from exc
        if not heights or any(h < 0 for h in heights):
            raise BadBoardSpec(f"bad board literal {text!r}")
        return cls(heights)

    @property
    def n(self) -> int:
        return len(self.heights)

    @property
    def area(self) -> int:
        return sum(self.heights)

    @property
    def is_ferrers(self) -> bool:
        return all(a <= b for a, b in zip(self.heights, self.heights[1:]))

    def is_j_attacking(self, jump: int) -> bool:
        return all(
            a == 0 or b >= a + jump - 1 for a, b in zip(self.heights, self.heights[1:])
        )

    def height(self, col: int) -> int:
        return self.heights[col - 1]

    def __str__(self) -> str:
        return ",".join(str(h) for h in self.heights)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def j_rook_placements(heights, jump: int, k: int, depth: int = 0) -> Iterator[tuple[Cell, ...]]:
    """All jump-nonattacking placements of k rooks, column-major order.

    At jump 1 these are the rook placements, at jump 0 the file placements.
    A caller that needs a placement's attack map calls j_attack_rows.
    """
    if 0 <= k <= len(heights):
        yield from _add_j_rooks(heights, jump, 1 - depth, 1, k, [], 0)


def _add_j_rooks(heights, jump, bottom, col, remaining, cells: list, attacked: int):
    """Every way to add `remaining` jump rooks in columns col.. to cells,
    whose attacked rows are the mask attacked (see _rook_attack_rows)."""
    if remaining == 0:
        yield tuple(cells)
        return
    if remaining > len(heights) - col + 1:
        return
    yield from _add_j_rooks(heights, jump, bottom, col + 1, remaining, cells, attacked)
    for row in range(heights[col - 1], bottom - 1, -1):
        if attacked >> (row - bottom) & 1:
            continue
        hit = attacked | _rook_attack_rows(row, jump, attacked, bottom)
        cells.append((col, row))
        yield from _add_j_rooks(heights, jump, bottom, col + 1, remaining - 1, cells, hit)
        cells.pop()


def rook_placements(heights, k: int, depth: int = 0) -> Iterator[tuple[Cell, ...]]:
    """All nonattacking placements of k rooks: the 1-attacking ones."""
    return j_rook_placements(heights, 1, k, depth)


def file_placements(heights, k: int) -> Iterator[tuple[Cell, ...]]:
    """All file placements of k rooks (distinct columns, rows free): the
    0-attacking ones."""
    return j_rook_placements(heights, 0, k)


def _rook_attack_rows(row: int, jump: int, attacked: int, bottom: int) -> int:
    """The rows a rook in row attacks, given the attacked rows, as masks
    whose bit r - bottom stands for row r: the first `jump` unattacked rows
    weakly above row, lowest first.  Below the ground the upward scan stops
    at row 0 and the attack wraps to the unattacked rows below row, highest
    first, down to the bottom row."""
    bit = row - bottom
    up = ~attacked >> bit << bit
    if row < 1:
        up &= (1 << 1 - bottom) - 1
    down = ~attacked & (1 << bit) - 1
    hit = 0
    for _ in range(jump):
        if up:
            low = up & -up
            up ^= low
        elif down:
            low = 1 << down.bit_length() - 1
            down ^= low
        else:
            raise ValueError("extension too shallow for the below-ground attack rule")
        hit |= low
    return hit


def j_attack_rows(cells, jump: int, depth: int = 0) -> dict[int, int]:
    """Map row -> attacking column for a left-to-right placed rook set on a
    board extended by depth rows below the ground."""
    bottom, attacked, out = 1 - depth, 0, {}
    for i, j in sorted(cells):
        hit = _rook_attack_rows(j, jump, attacked, bottom)
        attacked |= hit
        while hit:
            low = hit & -hit
            out[low.bit_length() - 1 + bottom] = i
            hit ^= low
    return out


# ---------------------------------------------------------------------------
# cancellation geometry, placement by placement: one rule for every jump
# (rook placements at jump 1, file placements at jump 0), the definition
# that the transfer kernels rook._j_rook_transfer and files._file_transfer
# apply column by column
# ---------------------------------------------------------------------------


def j_uncancelled(heights, cells, jump: int, depth: int = 0) -> dict[Cell, int]:
    """Uncancelled cells of a jump-nonattacking placement on the board
    extended by depth rows, each with its number of rooks strictly west and
    strictly north.  A cell is cancelled if it holds a rook, lies below one
    in its column, or lies in a row that a rook further left attacks."""
    attacked = j_attack_rows(cells, jump, depth)
    col_rook = dict(cells)
    out: dict[Cell, int] = {}
    for i in range(1, len(heights) + 1):
        own = col_rook.get(i)
        for j in range(1 - depth, heights[i - 1] + 1):
            if own is not None and j <= own:
                continue
            col = attacked.get(j)
            if col is not None and col < i:
                continue
            out[(i, j)] = sum(1 for c, r in cells if c < i and r > j)
    return out


def file_above_cells(heights, cells) -> set[Cell]:
    """Cells lying strictly above some rook in its column."""
    out = set()
    for i, j in cells:
        for row in range(j + 1, heights[i - 1] + 1):
            out.add((i, row))
    return out
