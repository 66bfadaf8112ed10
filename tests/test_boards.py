import math
from itertools import combinations

import pytest

from ellrook.boards import (
    SkylineBoard,
    file_placements,
    j_attack_rows,
    j_rook_placements,
    j_uncancelled,
    rook_placements,
)
from ellrook.errors import BadBoardSpec


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
    for kind, placements in (("rook", rook_placements), ("file", file_placements)):
        seen = list(placements(heights, 2))
        assert len(seen) == len(set(seen)), kind


def _is_placement(cells, jump, depth):
    """The definition, for cells sorted by column: at most one rook per
    column, and no rook in a row that the rooks further left attack."""
    if len({i for i, _ in cells}) != len(cells):
        return False
    return all(j not in j_attack_rows(cells[:t], jump, depth) for t, (_, j) in enumerate(cells))


@pytest.mark.parametrize("jump", (0, 1, 2), ids="jump={}".format)
@pytest.mark.parametrize("depth", (0, 1, 2), ids="depth={}".format)
def test_enumerator_equals_brute_force_filter(jump, depth):
    # every placement exactly once, and nothing else, against a filter over
    # all cell subsets of the board extended by depth rows
    for heights in ((1, 2, 3), (2, 0, 3), (3, 1, 1), (1, 3, 5, 5)):
        cells = [(i, j) for i, h in enumerate(heights, 1) for j in range(1 - depth, h + 1)]
        for k in range(len(heights) + 2):
            if 0 < depth < jump and 0 < k <= len(heights):
                # a rook in row 0 finds too few rows to attack below it
                with pytest.raises(ValueError):
                    list(j_rook_placements(heights, jump, k, depth))
                continue
            enumerated = list(j_rook_placements(heights, jump, k, depth))
            filtered = [c for c in combinations(cells, k) if _is_placement(c, jump, depth)]
            assert len(enumerated) == len(set(enumerated))
            assert set(enumerated) == set(filtered), (heights, k)
            if jump < 2:
                # rooks in distinct columns, and at jump 1 in distinct rows
                plain = [
                    c
                    for c in combinations(cells, k)
                    if len({i for i, _ in c}) == k and (jump == 0 or len({j for _, j in c}) == k)
                ]
                assert set(filtered) == set(plain), (heights, k)


def test_rook_cancellation_figure():
    # the worked four-rook cancellation on B(0,2,3,5,5)
    unc = j_uncancelled((0, 2, 3, 5, 5), ((2, 2), (3, 1), (4, 4), (5, 3)), 1)
    assert set(unc) == {(3, 3), (4, 5), (5, 5)}
    assert 15 - 4 - 8 == len(unc)


def test_rook_cancellation_square_example():
    unc = j_uncancelled((3, 3, 3), ((1, 3), (3, 1)), 1)
    assert unc == {(2, 1): 1, (2, 2): 1, (3, 2): 1}


def test_empty_placement_single_cell():
    assert j_uncancelled((1, 1), (), 1) == {(1, 1): 0, (2, 1): 0}


def test_file_cancellation_examples():
    # row-only file cancellation is the jump-0 rule
    assert set(j_uncancelled((2, 2), ((1, 2), (2, 1)), 0)) == {(2, 2)}
    assert set(j_uncancelled((2,), ((1, 1),), 0)) == {(1, 2)}
    assert set(j_uncancelled((2, 2), (), 0)) == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_j_attack_figure():
    # on B(1,2,3,5,7,8,9) at jump 2: (2,2) attacks rows 2 and 3, (4,1) the
    # free rows 1 and 4, and (6,6) rows 6 and 7, each to the right of its column
    attacked = j_attack_rows(((2, 2), (4, 1), (6, 6)), 2)
    assert attacked == {2: 2, 3: 2, 1: 4, 4: 4, 6: 6, 7: 6}


def test_j_attack_degenerates_to_row_cancellation():
    assert j_attack_rows(((1, 1),), 1) == {1: 1}
    assert j_attack_rows(((1, 1), (3, 2)), 1) == {1: 1, 2: 3}
    assert j_attack_rows(((1, 1), (3, 2)), 0) == {}


def test_j_attack_wraps_below_the_ground():
    # a rook in row 0 at jump 2 attacks row 0, then wraps to row -1, the
    # first free row below it; below the ground the upward scan stops at
    # row 0, so the next rook's attack wraps past the two taken rows
    assert j_attack_rows(((1, 0),), 2, depth=2) == {0: 1, -1: 1}
    assert j_attack_rows(((1, 0), (2, -2)), 2, depth=4) == {0: 1, -1: 1, -2: 2, -3: 2}
    with pytest.raises(ValueError):
        j_attack_rows(((1, 0),), 2, depth=1)


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
