"""Skyline boards, rook/file/jump placements, and cancellation geometry.

Cells are (column, row) pairs, columns 1-based left to right, rows 1-based
bottom to top.  An extended board appends depth extra rows below the ground
line, indexed 0, -1, ..., 1-depth.

Three placement kinds:

    JROOK  at most one rook per column on a jump-attacking board; a rook
           attacks, in the columns strictly to its right, the first `jump`
           rows weakly above its own row that are not already attacked by
           a rook further left.  Below the ground the attack wraps: if
           only t < jump such rows exist down there, the first jump - t
           unattacked rows below the rook's row are attacked instead.
    ROOK   the 1-attacking placements: no two rooks share a row or column;
           a rook cancels the cells strictly to its right in its row and
           strictly below it in its column.
    FILE   the 0-attacking placements: no two rooks share a column; a rook
           cancels only the cells below it in its column.

One column-major backtracker, j_rook_placements, enumerates all three
kinds; placements are emitted exactly once each.  Boards and placements
are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BadBoardSpec, NotJAttackingBoard

Cell = tuple[int, int]

ROOK = "rook"
FILE = "file"
JROOK = "jrook"


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

    def cells(self) -> Iterator[Cell]:
        for i, h in enumerate(self.heights, 1):
            for j in range(1, h + 1):
                yield (i, j)

    def extended(self, depth: int) -> "ExtendedBoard":
        return ExtendedBoard(self, depth)

    def __str__(self) -> str:
        return ",".join(str(h) for h in self.heights)


@dataclass(frozen=True)
class ExtendedBoard:
    """A skyline board with `depth` full rows 0, -1, ..., 1-depth appended."""

    base: SkylineBoard
    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")

    @property
    def heights(self) -> tuple[int, ...]:
        return self.base.heights

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def bottom_row(self) -> int:
        return 1 - self.depth

    def height(self, col: int) -> int:
        return self.base.heights[col - 1]

    def cells(self) -> Iterator[Cell]:
        for i in range(1, self.n + 1):
            for j in range(self.bottom_row, self.height(i) + 1):
                yield (i, j)


Board = SkylineBoard | ExtendedBoard


def _board_parts(board: Board) -> tuple[tuple[int, ...], int]:
    if isinstance(board, ExtendedBoard):
        return board.heights, board.depth
    return board.heights, 0


@dataclass(frozen=True)
class Placement:
    board: Board
    cells: tuple[Cell, ...]
    kind: str = ROOK
    jump: int = 1

    def __post_init__(self):
        if self.kind not in (ROOK, FILE, JROOK):
            raise ValueError(f"unknown placement kind {self.kind!r}")
        object.__setattr__(self, "cells", tuple(sorted(self.cells)))

    def validate(self) -> None:
        """Raise ValueError if the placement breaks its kind's invariants."""
        heights, depth = _board_parts(self.board)
        cols = [i for i, _ in self.cells]
        rows = [j for _, j in self.cells]
        for i, j in self.cells:
            if not (1 <= i <= len(heights) and 1 - depth <= j <= heights[i - 1]):
                raise ValueError(f"cell {(i, j)} outside the board")
        if len(set(cols)) != len(cols):
            raise ValueError("two rooks share a column")
        if self.kind == ROOK and len(set(rows)) != len(rows):
            raise ValueError("two rooks share a row")
        if self.kind == JROOK:
            board = self.board if isinstance(self.board, SkylineBoard) else self.board.base
            if not board.is_j_attacking(self.jump):
                raise NotJAttackingBoard(f"{board} is not {self.jump}-attacking")
            attacked = j_attack_rows(self.board, self.cells, self.jump)
            for i, j in self.cells:
                col = attacked.get(j)
                if col is not None and col < i:
                    raise ValueError(f"rook {(i, j)} sits in an attacked cell")


# ---------------------------------------------------------------------------
# raw enumeration (cells only; the bijection checks count placements with it)
# ---------------------------------------------------------------------------


def j_rook_placements(heights, jump: int, k: int, depth: int = 0) -> Iterator[tuple[Cell, ...]]:
    """All jump-nonattacking placements of k rooks, column-major order.

    At jump 1 these are the rook placements, at jump 0 the file placements.
    A caller that needs a placement's attack map calls j_attack_rows.
    """
    if 0 <= k <= len(heights):
        yield from _add_j_rooks(heights, jump, 1 - depth, 1, k, [], {})


def _add_j_rooks(heights, jump, bottom, col, remaining, cells: list, attacked: dict):
    """Every way to add `remaining` jump rooks in columns col.. to cells,
    whose attack map is attacked."""
    if remaining == 0:
        yield tuple(cells)
        return
    if remaining > len(heights) - col + 1:
        return
    yield from _add_j_rooks(heights, jump, bottom, col + 1, remaining, cells, attacked)
    for row in range(heights[col - 1], bottom - 1, -1):
        if row in attacked:
            continue
        rows = _rook_attack_rows(row, jump, attacked, bottom)
        for r in rows:
            attacked[r] = col
        cells.append((col, row))
        yield from _add_j_rooks(heights, jump, bottom, col + 1, remaining - 1, cells, attacked)
        cells.pop()
        for r in rows:
            del attacked[r]


def rook_placements(heights, k: int, depth: int = 0) -> Iterator[tuple[Cell, ...]]:
    """All nonattacking placements of k rooks: the 1-attacking ones."""
    return j_rook_placements(heights, 1, k, depth)


def file_placements(heights, k: int) -> Iterator[tuple[Cell, ...]]:
    """All file placements of k rooks (distinct columns, rows free): the
    0-attacking ones."""
    return j_rook_placements(heights, 0, k)


def _rook_attack_rows(row: int, jump: int, attacked: dict[int, int], bottom: int) -> list[int]:
    """The first `jump` unattacked rows weakly above row.  Below the ground
    the upward scan stops at row 0 and the attack wraps to the unattacked
    rows below row, down to the bottom row."""
    rows = []
    j = row
    while len(rows) < jump and (row >= 1 or j <= 0):
        if j not in attacked:
            rows.append(j)
        j += 1
    j = row - 1
    while len(rows) < jump and j >= bottom:
        if j not in attacked:
            rows.append(j)
        j -= 1
    if len(rows) < jump:
        raise ValueError("extension too shallow for the below-ground attack rule")
    return rows


def j_attack_rows(board: Board, cells, jump: int) -> dict[int, int]:
    """Map row -> attacking column for a left-to-right placed rook set."""
    heights, depth = _board_parts(board)
    bottom = 1 - depth
    attacked: dict[int, int] = {}
    for i, j in sorted(cells):
        for row in _rook_attack_rows(j, jump, attacked, bottom):
            attacked[row] = i
    return attacked


def j_attacked_cells(board: Board, cells, jump: int) -> set[Cell]:
    """The set of board cells jump-attacked by the given rooks."""
    heights, depth = _board_parts(board)
    attacked = j_attack_rows(board, cells, jump)
    out = set()
    for row, col in attacked.items():
        for i in range(col + 1, len(heights) + 1):
            if (1 - depth) <= row <= heights[i - 1]:
                out.add((i, row))
    return out


def enumerate_placements(board: Board, kind: str, k: int, jump: int = 1) -> Iterator[Placement]:
    """Yield every placement of the given kind exactly once."""
    heights, depth = _board_parts(board)
    if kind == ROOK:
        for cells in rook_placements(heights, k, depth):
            yield Placement(board, cells, ROOK)
    elif kind == FILE:
        if depth:
            raise ValueError("file enumeration is defined on plain skyline boards")
        for cells in file_placements(heights, k):
            yield Placement(board, cells, FILE)
    elif kind == JROOK:
        base = board.base if isinstance(board, ExtendedBoard) else board
        if not base.is_j_attacking(jump):
            raise NotJAttackingBoard(f"{base} is not {jump}-attacking")
        for cells in j_rook_placements(heights, jump, k, depth):
            yield Placement(board, cells, JROOK, jump)
    else:
        raise ValueError(f"unknown placement kind {kind!r}")


# ---------------------------------------------------------------------------
# cancellation geometry, placement by placement: the definition that the
# transfer kernels rook._j_rook_transfer and files._file_transfer apply
# column by column
# ---------------------------------------------------------------------------


def northwest_count(cells, col: int, row: int) -> int:
    """Number of rooks strictly west and strictly north of (col, row)."""
    return sum(1 for i, j in cells if i < col and j > row)


def rook_uncancelled(heights, cells, depth: int = 0) -> dict[Cell, int]:
    """Uncancelled cells of a nonattacking placement, with northwest counts."""
    col_rook = dict(cells)
    row_rook = {j: i for i, j in cells}
    out: dict[Cell, int] = {}
    for i in range(1, len(heights) + 1):
        own = col_rook.get(i)
        for j in range(1 - depth, heights[i - 1] + 1):
            if own is not None and j <= own:
                continue  # occupied or below the rook in this column
            rc = row_rook.get(j)
            if rc is not None and rc < i:
                continue  # cancelled rightward along the row
            out[(i, j)] = northwest_count(cells, i, j)
    return out


def uncancelled_cells(placement: Placement) -> dict[Cell, int]:
    """U_B(P) with, for each cell, the count of rooks strictly north-west."""
    heights, depth = _board_parts(placement.board)
    return rook_uncancelled(heights, placement.cells, depth)


def file_uncancelled(heights, cells) -> set[Cell]:
    """Cells neither occupied nor below a rook (file cancellation)."""
    col_rook = dict(cells)
    out = set()
    for i in range(1, len(heights) + 1):
        own = col_rook.get(i)
        for j in range(1, heights[i - 1] + 1):
            if own is not None and j <= own:
                continue
            out.add((i, j))
    return out


def file_above_cells(heights, cells) -> set[Cell]:
    """Cells lying strictly above some rook in its column."""
    out = set()
    for i, j in cells:
        for row in range(j + 1, heights[i - 1] + 1):
            out.add((i, row))
    return out


def j_uncancelled(heights, cells, attacked: dict[int, int], depth: int = 0) -> dict[Cell, int]:
    """Uncancelled cells of a jump-nonattacking placement, with NW counts."""
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
            out[(i, j)] = northwest_count(cells, i, j)
    return out


def max_stat(placement: Placement) -> int:
    """Depth index of the lowest below-ground rook; 0 if all are above."""
    lowest = min((j for _, j in placement.cells), default=1)
    return max(0, 1 - lowest)
