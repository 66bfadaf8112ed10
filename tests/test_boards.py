import math
from itertools import combinations

import pytest

from ellrook.boards import (
    FILE,
    JROOK,
    ROOK,
    Placement,
    SkylineBoard,
    enumerate_placements,
    file_placements,
    file_uncancelled,
    j_attacked_cells,
    max_stat,
    rook_placements,
    rook_uncancelled,
    uncancelled_cells,
)
from ellrook.errors import BadBoardSpec, NotJAttackingBoard


def test_board_parsing_and_predicates():
    board = SkylineBoard.parse("0,2,3,5,5")
    assert board.heights == (0, 2, 3, 5, 5)
    assert board.is_ferrers
    assert not SkylineBoard((4, 2, 1, 5, 3)).is_ferrers
    assert SkylineBoard((1, 2, 3, 5, 7, 8, 9)).is_j_attacking(2)
    assert not SkylineBoard((1, 1, 2)).is_j_attacking(2)
    with pytest.raises(BadBoardSpec):
        SkylineBoard.parse("0,x,3")


def test_rook_count_trivia():
    assert sum(1 for _ in rook_placements((3, 3, 3), 3)) == 6
    assert sum(1 for _ in rook_placements((0, 2, 3, 5, 5), 0)) == 1


def test_file_counts_are_elementary_symmetric():
    assert sum(1 for _ in file_placements((2, 2), 2)) == 4
    for heights in [(1, 2, 3), (4, 2, 1, 5, 3), (0, 3, 3, 6)]:
        n = len(heights)
        for k in range(n + 1):
            expected = sum(
                math.prod(heights[i] for i in combo)
                for combo in combinations(range(n), k)
            )
            assert sum(1 for _ in file_placements(heights, k)) == expected


def test_no_duplicate_placements():
    heights = (2, 3, 3, 4)
    for kind, gen in ((ROOK, rook_placements(heights, 2)), (FILE, file_placements(heights, 2))):
        seen = list(gen)
        assert len(seen) == len(set(seen)), kind


def test_placement_validation():
    board = SkylineBoard((2, 2))
    Placement(board, ((1, 1), (2, 2)), ROOK).validate()
    with pytest.raises(ValueError):
        Placement(board, ((1, 1), (2, 1)), ROOK).validate()
    Placement(board, ((1, 1), (2, 1)), FILE).validate()
    with pytest.raises(NotJAttackingBoard):
        Placement(SkylineBoard((1, 1, 2)), ((1, 1),), JROOK, 2).validate()


def test_rook_cancellation_figure():
    # the worked four-rook cancellation on B(0,2,3,5,5)
    unc = rook_uncancelled((0, 2, 3, 5, 5), ((2, 2), (3, 1), (4, 4), (5, 3)))
    assert set(unc) == {(3, 3), (4, 5), (5, 5)}
    assert 15 - 4 - 8 == len(unc)


def test_rook_cancellation_square_example():
    unc = rook_uncancelled((3, 3, 3), ((1, 3), (3, 1)))
    assert unc == {(2, 1): 1, (2, 2): 1, (3, 2): 1}


def test_empty_placement_single_cell():
    board = SkylineBoard((1, 1))
    placement = Placement(board, (), ROOK)
    assert uncancelled_cells(placement) == {(1, 1): 0, (2, 1): 0}


def test_file_cancellation_examples():
    assert file_uncancelled((2, 2), ((1, 2), (2, 1))) == {(2, 2)}
    assert file_uncancelled((2,), ((1, 1),)) == {(1, 2)}
    assert file_uncancelled((2, 2), ()) == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_j_attack_figure():
    board = SkylineBoard((1, 2, 3, 5, 7, 8, 9))
    attacked = j_attacked_cells(board, ((2, 2), (4, 1), (6, 6)), 2)
    expected = set()
    for col in range(3, 8):
        for row in (2, 3):
            if row <= board.heights[col - 1]:
                expected.add((col, row))
    for col in range(5, 8):
        for row in (1, 4):
            if row <= board.heights[col - 1]:
                expected.add((col, row))
    expected |= {(7, 6), (7, 7)}
    assert attacked == expected


def test_j_attack_degenerates_to_row_cancellation():
    board = SkylineBoard((1, 2, 3))
    attacked = j_attacked_cells(board, ((1, 1),), 1)
    assert attacked == {(2, 1), (3, 1)}
    assert j_attacked_cells(board, ((3, 2),), 1) == set()


def test_max_stat():
    board = SkylineBoard((1, 2)).extended(3)
    assert max_stat(Placement(board, ((1, 1), (2, 2)), ROOK)) == 0
    assert max_stat(Placement(board, ((1, 0), (2, 2)), ROOK)) == 1
    assert max_stat(Placement(board, ((1, -2), (2, 1)), ROOK)) == 3


def test_counting_matches_classical_product():
    # sum_k |N_k| weighted by falling factorials equals the height product
    for heights in [(0, 1, 2), (1, 2, 2), (2, 3, 4, 5), (0, 2, 3, 5, 5)]:
        n = len(heights)
        z = n + 2
        lhs = math.prod(z + heights[i] - i for i in range(n))
        rhs = 0
        for k in range(n + 1):
            count = sum(1 for _ in rook_placements(heights, n - k))
            rhs += count * math.prod(z - j for j in range(k))
        assert lhs == rhs, heights


def test_enumerate_placements_wrapper():
    board = SkylineBoard((1, 2, 3))
    rooks = list(enumerate_placements(board, ROOK, 2))
    assert all(p.kind == ROOK for p in rooks)
    for p in rooks:
        p.validate()
    js = list(enumerate_placements(SkylineBoard((1, 2, 3)), JROOK, 2, jump=2))
    for p in js:
        p.validate()
    with pytest.raises(NotJAttackingBoard):
        list(enumerate_placements(SkylineBoard((2, 2)), JROOK, 1, jump=3))


def test_counting_product_on_every_small_ferrers_board():
    from itertools import combinations_with_replacement

    from ellrook.rook import rook_row
    from ellrook.weights import PlainQ

    def count(heights, k):
        # at q = 1 every small weight is 1: the sum counts the placements
        return rook_row(SkylineBoard(heights), PlainQ(1), k=k).get(k, 0)

    for n in range(1, 6):
        for heights in combinations_with_replacement(range(6), n):
            for z in (0, 1, n + 2):
                lhs = math.prod(z + heights[i] - i for i in range(n))
                rhs = sum(
                    count(heights, n - k) * math.prod(z - j for j in range(k))
                    for k in range(n + 1)
                )
                assert lhs == rhs, heights
