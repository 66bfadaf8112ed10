"""Executable, invertible bijections between placements and combinatorial
objects: set partitions, permutations in cycle form, rooted (colored)
forests, and tube placements.

Each forward map takes raw rook cells plus the board parameters and returns
a canonical object; each inverse rebuilds exactly the original cells, and
the test suite certifies injectivity and surjectivity by exhaustive
roundtrips against independently enumerated codomains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator

from .errors import BadBoardSpec


Cell = tuple[int, int]


# ---------------------------------------------------------------------------
# staircase rooks <-> set partitions
# ---------------------------------------------------------------------------


def rooks_to_partition(cells, n: int) -> tuple[tuple[int, ...], ...]:
    """Nonattacking rooks on the staircase to a set partition of [n].

    A rook on (i, j) puts i and j in the same block; untouched numbers
    form singletons.  Blocks are sorted tuples ordered by minima.
    """
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in cells:
        parent[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        blocks.setdefault(find(x), []).append(x)
    return tuple(sorted((tuple(sorted(b)) for b in blocks.values()), key=min))


def partition_to_rooks(partition) -> tuple[Cell, ...]:
    """Inverse map: consecutive block elements become rooks (larger, smaller)."""
    cells = []
    for block in partition:
        ordered = sorted(block)
        for low, high in zip(ordered, ordered[1:]):
            cells.append((high, low))
    return tuple(sorted(cells))


def set_partitions(n: int, k: int | None = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All set partitions of [n], optionally restricted to k blocks."""
    yield from _grow_partitions(1, n, k, [])


def _grow_partitions(x: int, n: int, k: int | None, blocks: list[list[int]]):
    """Every way to place x..n into blocks, the partition of [x-1] so far."""
    if x > n:
        if k is None or len(blocks) == k:
            yield tuple(sorted((tuple(b) for b in blocks), key=min))
        return
    for b in blocks:
        b.append(x)
        yield from _grow_partitions(x + 1, n, k, blocks)
        b.pop()
    blocks.append([x])
    yield from _grow_partitions(x + 1, n, k, blocks)
    blocks.pop()


# ---------------------------------------------------------------------------
# cut-staircase file placements <-> permutations in cycle form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PermutationCycles:
    """Cycles written with the minimal element last, ordered by minima."""

    cycles: tuple[tuple[int, ...], ...]

    def render(self) -> str:
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in self.cycles)

    @classmethod
    def from_one_line(cls, images: dict[int, int], n: int) -> "PermutationCycles":
        seen = set()
        cycles = []
        for start in range(1, n + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            x = images[start]
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = images[x]
            cycles.append(_rotate_min_last(cycle))
        return cls(tuple(sorted(cycles, key=min)))


def _rotate_min_last(cycle: list[int]) -> tuple[int, ...]:
    pos = cycle.index(min(cycle))
    return tuple(cycle[pos + 1 :] + cycle[: pos + 1])


def file_to_cycles(cells, n: int) -> PermutationCycles:
    """File placement on a cut staircase to a permutation in cycle form.

    Rooks are read right to left.  A rook (c, rho) extends the sequence
    ending in c by the sequence ending in rho (fresh singletons when either
    does not exist yet); leftover numbers become fixed points.
    """
    sequences: list[list[int]] = []

    def take_ending_with(x: int) -> list[int]:
        for idx, seq in enumerate(sequences):
            if seq[-1] == x:
                return sequences.pop(idx)
        return [x]

    for col, row in sorted(cells, reverse=True):
        left = take_ending_with(col)
        right = take_ending_with(row)
        sequences.append(left + right)
    used = {x for seq in sequences for x in seq}
    for x in range(1, n + 1):
        if x not in used:
            sequences.append([x])
    return PermutationCycles(tuple(sorted((tuple(s) for s in sequences), key=min)))


def cycles_to_file(perm: PermutationCycles) -> tuple[Cell, ...]:
    """Inverse map: each element pairs with the next smaller one to its right."""
    cells = []
    for cycle in perm.cycles:
        for idx, alpha in enumerate(cycle[:-1]):
            beta = next(x for x in cycle[idx + 1 :] if x < alpha)
            cells.append((alpha, beta))
    return tuple(sorted(cells))


def restricted_cycle_structures(n: int, r: int) -> set[PermutationCycles]:
    """All permutations of [n] with 1..r in distinct cycles (brute force)."""
    out = set()
    for images in permutations(range(1, n + 1)):
        perm = PermutationCycles.from_one_line({i + 1: images[i] for i in range(n)}, n)
        cycle_of = {x: idx for idx, cycle in enumerate(perm.cycles) for x in cycle}
        if len({cycle_of[x] for x in range(1, r + 1)}) == r:
            out.add(perm)
    return out


# ---------------------------------------------------------------------------
# Abel-board file placements <-> rooted (colored) forests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootedForest:
    """parent holds (child, parent) pairs; colors holds (vertex, color) for
    non-root vertices (omitted entirely in the single-color case)."""

    n: int
    parent: tuple[tuple[int, int], ...]
    roots: frozenset
    colors: tuple[tuple[int, int], ...] = ()

    def parent_map(self) -> dict[int, int]:
        return dict(self.parent)

    def color_map(self) -> dict[int, int]:
        return dict(self.colors)

    def render(self) -> str:
        par = ", ".join(f"{c}<-{p}" for c, p in self.parent)
        text = f"roots {{{', '.join(str(r) for r in sorted(self.roots))}}}; edges {{{par}}}"
        if self.colors:
            text += "; colors {" + ", ".join(f"{v}:{c}" for v, c in self.colors) + "}"
        return text


def _functional_cycles(parent: dict[int, int]) -> list[list[int]]:
    """Cycles of the partial functional graph, each listed min-first in
    child direction (following the inverse of the parent map)."""
    on_cycle = set()
    state: dict[int, int] = {}
    for start in parent:
        path = []
        x = start
        while x in parent and state.get(x, 0) == 0:
            state[x] = 1
            path.append(x)
            x = parent[x]
        if x in state and state[x] == 1:
            # found a new cycle: the tail of path starting at x
            idx = path.index(x)
            on_cycle.update(path[idx:])
        for v in path:
            state[v] = 2
    cycles = []
    seen = set()
    child_of = {parent[v]: v for v in on_cycle if parent[v] in on_cycle}
    for v in sorted(on_cycle):
        if v in seen:
            continue
        mu = v
        cycle = [mu]
        seen.add(mu)
        x = child_of[mu]
        while x != mu:
            cycle.append(x)
            seen.add(x)
            x = child_of[x]
        mu2 = min(cycle)
        pos = cycle.index(mu2)
        cycles.append(cycle[pos:] + cycle[:pos])
    cycles.sort(key=lambda c: c[0])
    return cycles


def _decode_row(row: int, n: int) -> tuple[int, int]:
    color = (row - 1) // n + 1
    return row - (color - 1) * n, color


def file_to_forest(cells, n: int, m: int | None = None, r: int = 1) -> RootedForest:
    """File placement on an Abel board to a rooted forest on [n].

    Board: r empty columns then n - r columns of height m.  A rook in
    (i, (c-1)n + j) is the edge j -> i with color c on vertex i.  Cycles of
    the resulting partial map are cut open, concatenated in decreasing
    order of minima, and planted above vertex r; the colors of the cut
    edges move to the replacement edges with the same parent.  Columns
    1..r are empty, so no cycle passes through vertices 1..r, which stay in
    distinct trees.  At r = 0 column 1 is not empty, so vertex 1 may lie on
    a cycle, and planting above it would close one again: the map is
    defined for r >= 1 only.
    """
    if r < 1:
        raise BadBoardSpec(f"the forest bijection needs r >= 1, got r = {r}")
    if m is None:
        m = n
    colors_used = m > n
    parent: dict[int, int] = {}
    color: dict[int, int] = {}
    for i, row in sorted(cells):
        j, c = _decode_row(row, n)
        parent[i] = j
        color[i] = c
    cycles = _functional_cycles(parent)
    if cycles:
        dropped_colors = []
        for cyc in cycles:
            mu, tail = cyc[0], cyc[-1]
            dropped_colors.append(color[mu])
            del parent[mu]
            del color[mu]
        # concatenate gamma_l .. gamma_1 and plant above vertex r
        order = list(reversed(range(len(cycles))))
        for pos, idx in enumerate(order):
            tail = cycles[idx][-1]
            if pos + 1 < len(order):
                receiver = cycles[order[pos + 1]][0]
            else:
                receiver = r
            parent[receiver] = tail
            color[receiver] = dropped_colors[idx]
    roots = frozenset(v for v in range(1, n + 1) if v not in parent)
    return RootedForest(
        n,
        tuple(sorted(parent.items())),
        roots,
        tuple(sorted(color.items())) if colors_used else (),
    )


def forest_to_file(forest: RootedForest, n: int, m: int | None = None, r: int = 1):
    """Inverse of file_to_forest; returns the rook cells."""
    if m is None:
        m = n
    parent = forest.parent_map()
    color = forest.color_map() if forest.colors else {v: 1 for v in parent}
    cuts: list[tuple[int, int, int]] = []  # (mu, tail, color) per restored cycle
    if r in parent:
        # walk up from r to the root to recover the planted chain
        chain = []
        x = parent[r]
        guard = 0
        while x in parent:
            chain.append(x)
            x = parent[x]
            guard += 1
            if guard > n:
                raise ValueError("parent map contains a cycle")
        chain.append(x)
        chain.reverse()  # root .. tail_1
        receiver = r
        rest = chain
        while rest:
            pos = min(range(len(rest)), key=lambda idx: rest[idx])
            segment = rest[pos:]
            mu, tail = segment[0], segment[-1]
            cuts.append((mu, tail, color[receiver]))
            del parent[receiver]
            del color[receiver]
            receiver = mu
            rest = rest[:pos]
    for mu, tail, c in cuts:
        parent[mu] = tail
        color[mu] = c
    cells = []
    for child, pa in parent.items():
        cells.append((child, (color[child] - 1) * n + pa))
    return tuple(sorted(cells))


def rooted_forests(n: int, m: int | None = None, r: int = 1) -> set[RootedForest]:
    """Independent enumeration of the forest codomain (colored as needed).

    A vertex with parent u may take color c exactly when (c-1)n + u <= m,
    mirroring the rows available on the board; for m < n this forbids
    children of vertices above m altogether.
    """
    if m is None:
        m = n
    top = -(-m // n)  # number of colors
    colors_used = top > 1
    out: set[RootedForest] = set()

    def color_limit(u: int) -> int:
        return (m - u) // n + 1 if u <= m else 0

    def acyclic(parent: dict[int, int]) -> bool:
        for start in parent:
            x = start
            steps = 0
            while x in parent:
                x = parent[x]
                steps += 1
                if steps > n:
                    return False
        return True

    restricted = list(range(1, r + 1))
    # every partial map v -> parent[v] != v, then the forests among them
    choices = [[pa for pa in range(n + 1) if pa != v] for v in range(1, n + 1)]
    for pick in product(*choices):
        parent = {v: pa for v, pa in enumerate(pick, 1) if pa}
        if not acyclic(parent):
            continue
        if any(color_limit(u) == 0 for u in parent.values()):
            continue
        root_set = frozenset(x for x in range(1, n + 1) if x not in parent)
        # restriction: 1..r in distinct trees, 1..r-1 all roots
        if any(x not in root_set for x in restricted[:-1]):
            continue

        def tree_of(x: int) -> int:
            while x in parent:
                x = parent[x]
            return x

        if len({tree_of(x) for x in restricted}) != len(restricted):
            continue
        edges = tuple(sorted(parent.items()))
        if colors_used:
            vertices = sorted(parent)
            limits = [range(1, color_limit(parent[v]) + 1) for v in vertices]
            for colors in product(*limits):
                out.add(RootedForest(n, edges, root_set, tuple(zip(vertices, colors))))
        else:
            out.add(RootedForest(n, edges, root_set))
    return out


# ---------------------------------------------------------------------------
# restricted-Lah rooks <-> tube placements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TubePlacement:
    """Tubes as bottom-to-top tuples, in construction order: the tubes
    holding 1..r first (ordered by that element), then the leader tubes
    ordered by their bottom element (leaders always stay at the bottom)."""

    tubes: tuple[tuple[int, ...], ...]

    def render(self) -> str:
        return "{" + ",".join("(" + ",".join(str(x) for x in t) + ")" for t in self.tubes) + "}"


def _canonical_tubes(tubes, r: int) -> tuple[tuple[int, ...], ...]:
    first = sorted(
        (t for t in tubes if any(x <= r for x in t)), key=lambda t: min(x for x in t)
    )
    rest = sorted((t for t in tubes if all(x > r for x in t)), key=lambda t: t[0])
    return tuple(tuple(t) for t in first + rest)


def _tube_slots(tubes: list[list[int]], r: int) -> list[tuple[str, int, int]]:
    """The frozen slot order: on-top of every element (tube order, bottom to
    top inside a tube), then bottoms of the first r tubes."""
    slots: list[tuple[str, int, int]] = []
    for t_idx, tube in enumerate(tubes):
        for e_idx in range(len(tube)):
            slots.append(("above", t_idx, e_idx))
    for t_idx in range(r):
        slots.append(("bottom", t_idx, 0))
    return slots


def rooks_to_tubes(cells, n: int, r: int) -> TubePlacement:
    """Nonattacking rooks on [n+r-1] x [n-r] to tubes with 1..r separated."""
    height = n - r
    row_of = {row: col for col, row in cells}
    rookless = [row for row in range(height, 0, -1) if row not in row_of]
    leaders = [n + 1 - row for row in rookless]
    tubes: list[list[int]] = [[i] for i in range(1, r + 1)] + [[x] for x in leaders]
    for row in sorted(row_of, reverse=True):
        col = row_of[row]
        below_cols = {row_of[rr] for rr in row_of if rr < row}
        free_cols = [c for c in range(1, n + r) if c not in below_cols]
        position = free_cols.index(col) + 1
        number = r + (height + 1 - row)
        kind, t_idx, e_idx = _tube_slots(tubes, r)[position - 1]
        if kind == "above":
            tubes[t_idx].insert(e_idx + 1, number)
        else:
            tubes[t_idx].insert(0, number)
    return TubePlacement(_canonical_tubes(tubes, r))


def tubes_to_rooks(placement: TubePlacement, n: int, r: int) -> tuple[Cell, ...]:
    """Inverse map; rebuilds the rook cells from the tube placement."""
    height = n - r
    tubes = [list(t) for t in _canonical_tubes(placement.tubes, r)]
    leader_tubes = tubes[r:]
    leaders = [t[0] for t in leader_tubes]
    rookless_rows = {n + 1 - x for x in leaders}
    rook_rows = [row for row in range(1, height + 1) if row not in rookless_rows]
    numbers = sorted((r + (height + 1 - row) for row in rook_rows), reverse=True)
    cells: list[Cell] = []
    used_cols: set[int] = set()
    for number in numbers:
        t_idx = next(i for i, t in enumerate(tubes) if number in t)
        e_idx = tubes[t_idx].index(number)
        tubes[t_idx].pop(e_idx)
        if e_idx == 0:
            if t_idx >= r:
                raise ValueError("element below a designated tube leader")
            position = sum(len(t) for t in tubes) + t_idx + 1
        else:
            position = sum(len(t) for t in tubes[:t_idx]) + e_idx
        free_cols = [c for c in range(1, n + r) if c not in used_cols]
        col = free_cols[position - 1]
        used_cols.add(col)
        row = height + 1 - (number - r)
        cells.append((col, row))
    return tuple(sorted(cells))


def tube_placements(n: int, k: int, r: int) -> set[TubePlacement]:
    """Independent enumeration: k nonempty ordered tubes, 1..r separated."""
    out: set[TubePlacement] = set()
    for part in set_partitions(n, k):
        holders = [b for b in part if any(x <= r for x in b)]
        if sum(1 for b in part for x in b if x <= r) != r or len(holders) != r:
            continue
        for tubes in product(*(permutations(b) for b in part)):
            out.add(TubePlacement(_canonical_tubes(tubes, r)))
    return out


# ---------------------------------------------------------------------------
# counting formulas used as oracles
# ---------------------------------------------------------------------------


def abel_count(n: int, k: int) -> int:
    """Rooted forests of k trees on n labeled vertices."""
    return math.comb(n - 1, k - 1) * n ** (n - k)


def abel_count_general(m: int, n: int, k: int, r: int = 1) -> int:
    """Rooted forests of k trees on [n], 1..r in distinct trees and 1..r-1
    roots, each non-root vertex colored as the height m allows."""
    if k < r or k > n:
        return 0
    return math.comb(n - r, k - r) * m ** (n - k)
