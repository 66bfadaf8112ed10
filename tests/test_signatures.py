"""The cached signature builders against signatures rebuilt placement by
placement from the public enumerators and the cancellation helpers in
boards.py, which state the geometry cell by cell."""

import itertools
from collections import Counter

import pytest

from ellrook.boards import (
    SkylineBoard,
    file_above_cells,
    file_placements,
    file_uncancelled,
    j_rook_placements,
    j_uncancelled,
    rook_placements,
    rook_uncancelled,
)
from ellrook.files import _file_signatures
from ellrook.jattack import b_board, j_rook_signature
from ellrook.rook import rook_signature


def _ferrers(n):
    """Every Ferrers board with n columns of height at most 5."""
    return list(itertools.combinations_with_replacement(range(6), n))


# the builders accept any skyline; on these a rook further left can sit
# above a column's top, so it counts north-west of every cell of that column
NON_FERRERS = [(3, 1, 2), (2, 0, 1), (4, 2, 3, 1), (0, 3, 0, 2), (5, 1, 4)]
JUMP_BOARDS = [
    (b_board(offset, jump, n).heights, jump)
    for offset in range(3)
    for jump in range(1, 4)
    for n in range(6)
]


def _signature(terms):
    return tuple(sorted(Counter(tuple(sorted(exps)) for exps in terms).items()))


def _rook_reference(heights, k, depth):
    return _signature(
        [i - j - nw for (i, j), nw in rook_uncancelled(heights, cells, depth).items()]
        for cells in rook_placements(heights, k, depth)
    )


def _file_reference(heights, k):
    placements = list(file_placements(heights, k))
    row = [[1 - j for _, j in file_uncancelled(heights, cells)] for cells in placements]
    above = [[i - j for i, j in file_above_cells(heights, cells)] for cells in placements]
    return _signature(row), _signature(above)


def _jump_reference(heights, jump, k):
    return _signature(
        [
            jump * (i - 1) + 1 - j - jump * nw
            for (i, j), nw in j_uncancelled(heights, cells, attacked).items()
        ]
        for cells, attacked in j_rook_placements(heights, jump, k)
    )


def _ks(heights):
    # k = -1 and k = n + 1 have no placements: the empty signature
    return range(-1, len(heights) + 2)


BOARD_SETS = {f"ferrers-{n}-columns": _ferrers(n) for n in range(6)}
BOARD_SETS["non-ferrers"] = NON_FERRERS
# the reference is slow on extended boards, so depths 1..3 stop at 4 columns
EXTENDED = [
    (name, depth) for name in BOARD_SETS if name != "ferrers-5-columns" for depth in (1, 2, 3)
]


@pytest.mark.parametrize("name, depth", [(name, 0) for name in BOARD_SETS] + EXTENDED)
def test_rook_signature_matches_placements(name, depth):
    for heights in BOARD_SETS[name]:
        for k in _ks(heights):
            expected = _rook_reference(heights, k, depth)
            assert rook_signature.__wrapped__(heights, k, depth) == expected, (heights, k)


@pytest.mark.parametrize("name", BOARD_SETS)
def test_file_signatures_match_placements(name):
    for heights in BOARD_SETS[name]:
        for k in _ks(heights):
            expected = _file_reference(heights, k)
            assert _file_signatures.__wrapped__(heights, k) == expected, (heights, k)


@pytest.mark.parametrize("heights, jump", JUMP_BOARDS, ids=str)
def test_j_rook_signature_matches_placements(heights, jump):
    assert SkylineBoard(heights).is_j_attacking(jump)
    _check_j_rook_signature(heights, jump)


@pytest.mark.parametrize("heights", NON_FERRERS, ids=str)
@pytest.mark.parametrize("jump", [1, 2])
def test_j_rook_signature_matches_placements_on_any_skyline(heights, jump):
    # the builder, like the enumerator, takes boards that are not jump-attacking
    _check_j_rook_signature(heights, jump)


def _check_j_rook_signature(heights, jump):
    for k in _ks(heights):
        expected = _jump_reference(heights, jump, k)
        assert j_rook_signature.__wrapped__(heights, jump, k) == expected, k


def test_empty_signatures_out_of_range():
    assert rook_signature.__wrapped__((2, 3), 3) == ()
    assert rook_signature.__wrapped__((2, 3), -1) == ()
    assert _file_signatures.__wrapped__((2, 3), 3) == ((), ())
    assert j_rook_signature.__wrapped__((1, 3), 2, -1) == ()
    # the empty board has one placement, of no rooks, with no cells
    assert rook_signature.__wrapped__((), 0) == (((), 1),)
