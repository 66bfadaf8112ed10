from fractions import Fraction

import pytest

from conftest import sample_elliptic, to_wide
from ellrook.boards import SkylineBoard, j_rook_placements
from ellrook.errors import NotJAttackingBoard
from ellrook.jattack import (
    RGWord,
    b_board,
    enumerate_rg_words,
    gen_stirling1,
    gen_stirling2,
    gen_stirling2_normalization,
    gen_stirling2_normalized,
    j_placement_weight,
    jump_enumeration_total,
    jump_product_check,
    phi,
    phi_inverse,
    rg_word_weight_identity,
    rook_number_j,
    statistic_d,
)
from ellrook.numeric import relative_error
from ellrook.rook import rook_number
from ellrook.special import carlitz_stirling2_q, classical_stirling1, stirling2, via_recursion
from ellrook.weights import ABq, PlainQ, random_z


def test_jump_one_reduces_to_plain_rooks(rng):
    fam = sample_elliptic(rng)
    for heights in [(0, 1, 2, 3), (1, 2, 3), (2, 2, 3, 4)]:
        board = SkylineBoard(heights)
        for k in range(board.n + 1):
            lhs = rook_number_j(board, k, 1, fam)
            rhs = rook_number(board, k, fam)
            assert relative_error(lhs, rhs) < 1e-12


def test_requires_attacking_board(rng):
    fam = sample_elliptic(rng)
    with pytest.raises(NotJAttackingBoard):
        rook_number_j(SkylineBoard((2, 2)), 1, 3, fam)


def test_figure_placement_weight(rng):
    # jump 2 on B(1,2,3,5,7,8,9): weight from the hand-traced attack sets
    fam = sample_elliptic(rng)
    board = SkylineBoard((1, 2, 3, 5, 7, 8, 9))
    rooks = ((2, 2), (4, 1), (6, 6))
    attacked = set()
    for col in range(3, 8):
        for row in (2, 3):
            if row <= board.heights[col - 1]:
                attacked.add((col, row))
    for col in range(5, 8):
        for row in (1, 4):
            if row <= board.heights[col - 1]:
                attacked.add((col, row))
    attacked |= {(7, 6), (7, 7)}
    expected = 1
    col_rook = dict(rooks)
    for i, h in enumerate(board.heights, 1):
        for j in range(1, h + 1):
            own = col_rook.get(i)
            if own is not None and j <= own:
                continue
            if (i, j) in attacked:
                continue
            nw = sum(1 for ci, cj in rooks if ci < i and cj > j)
            expected *= fam.small_weight(2 * (i - 1) + 1 - j - 2 * nw)
    got = j_placement_weight(board, rooks, 2, fam)
    assert relative_error(got, expected) < 1e-12


def test_full_jump_rooks_factorize(rng):
    fam = sample_elliptic(rng)
    board = b_board(2, 3, 3)
    lhs = rook_number_j(board, 3, 3, fam)
    rhs = 1
    for i, b in enumerate(board.heights, 1):
        rhs *= fam.shifted(3 * (i - 1) - b).number(b - 3 * (i - 1))
    assert relative_error(lhs, rhs) < 1e-10


def test_jump_product_with_enumeration_exact():
    # exact rational arithmetic removes the cancellation noise entirely
    q = Fraction(2, 3)
    fam = PlainQ(q)
    board = b_board(2, 3, 3)
    entry = jump_product_check(board, 3, fam, 9)
    total = jump_enumeration_total(board, 3, 9, fam)
    assert total == entry.lhs == entry.rhs


def test_jump_product_with_enumeration_exact_every_small_board():
    # the three-way check at an exact a,b;q point on every B(I, J, n) with
    # I <= 2, J <= 3, n <= 3, at the shallowest extension z = J*n and one deeper
    fam = ABq(Fraction(3, 7), Fraction(5, 11), Fraction(2, 3))
    cases = 0
    for offset in range(3):
        for jump in range(1, 4):
            for n in range(1, 4):
                board = b_board(offset, jump, n)
                for z in (jump * n, jump * n + 1):
                    entry = jump_product_check(board, jump, fam, z)
                    total = jump_enumeration_total(board, jump, z, fam)
                    assert total == entry.lhs == entry.rhs, (offset, jump, n, z)
                    cases += 1
    assert cases == 54


def test_jump_product_with_enumeration_high_precision(rng):
    # the weighted sum over the deep extension is ill-conditioned in
    # doubles, so the three-way cross-check runs at extended precision
    from mpmath import mp, mpc

    from ellrook.weights import FullElliptic, random_generic_point

    a, b, q, p = random_generic_point(rng)
    with mp.workdps(35):
        fam = FullElliptic(*(to_wide(mpc(v)) for v in (a, b, q, p)))
        board = b_board(2, 3, 3)
        entry = jump_product_check(board, 3, fam, 9)
        total = jump_enumeration_total(board, 3, 9, fam)
        assert entry.rel_err < 1e-12
        assert relative_error(total, entry.lhs) < 1e-12
        assert relative_error(total, entry.rhs) < 1e-12


def test_jump_product_complex_argument(rng):
    fam = sample_elliptic(rng)
    assert jump_product_check(b_board(1, 2, 3), 2, fam, random_z(rng)).rel_err < 1e-8


def test_jump_enumeration_requires_depth(rng):
    fam = sample_elliptic(rng)
    with pytest.raises(ValueError):
        jump_enumeration_total(b_board(1, 2, 3), 2, 5, fam)


def test_gen_stirling2_base_cases(rng):
    fam = sample_elliptic(rng)
    assert gen_stirling2(2, 3, 0, 0, fam) == 1
    assert gen_stirling2(2, 3, 3, -1, fam) == 0
    assert gen_stirling2(2, 3, 3, 4, fam) == 0


def test_gen_stirling2_staircase_case(rng):
    fam = sample_elliptic(rng)
    for n in range(1, 6):
        for k in range(n + 1):
            lhs = gen_stirling2(0, 1, n, k, fam)
            rhs = stirling2(n, k, fam)
            assert relative_error(lhs, rhs) < 1e-11


def test_gen_stirling2_recursion(rng):
    fam = sample_elliptic(rng)
    for offset, jump, n, k in ((2, 3, 4, 2), (1, 2, 4, 3), (0, 1, 5, 2)):
        lhs = via_recursion("gen-stirling2", n, k, fam, I=offset, J=jump)
        rhs = gen_stirling2(offset, jump, n, k, fam)
        assert relative_error(lhs, rhs) < 1e-9


def test_gen_stirling1_recursion(rng):
    fam = sample_elliptic(rng)
    assert gen_stirling1(2, 3, 0, 0, fam) == 1
    assert gen_stirling1(2, 3, 2, 3, fam) == 0
    for offset, jump, n, k in ((1, 2, 4, 2), (2, 3, 3, 1), (0, 1, 5, 3)):
        lhs = via_recursion("gen-stirling1", n, k, fam, I=offset, J=jump)
        rhs = gen_stirling1(offset, jump, n, k, fam)
        assert relative_error(lhs, rhs) < 1e-9


def test_gen_stirling1_counts_at_trivial_weights():
    fam = PlainQ(1)
    for n in range(7):
        for k in range(n + 1):
            assert gen_stirling1(0, 1, n, k, fam) == classical_stirling1(n, k)


def test_rg_word_figure():
    words = enumerate_rg_words(2, 3, 6, 2)
    target = RGWord(2, 3, (0, 0, 1, 2, 0, 1, 2), (1, 0, 0, 0, 1, 2))
    target.validate()
    assert target in words
    assert phi(target) == ((1, 1), (4, 5), (5, 10), (6, 15))


def test_rg_word_validation():
    with pytest.raises(ValueError):
        RGWord(2, 3, (0, 2), (0,)).validate()  # growth violated
    with pytest.raises(ValueError):
        RGWord(2, 3, (0, 1), (1,)).validate()  # block opener must be color 0
    with pytest.raises(ValueError):
        RGWord(0, 1, (0, 0), (0,)).validate()  # zero block closed when offset = 0
    with pytest.raises(ValueError):
        enumerate_rg_words(3, 2, 2, 1)  # offset must stay below jump


def test_rg_word_counts_and_roundtrip():
    board = b_board(1, 2, 5)
    for k in range(6):
        words = enumerate_rg_words(1, 2, 5, k)
        placements = set(j_rook_placements(board.heights, 2, 5 - k))
        images = set()
        for gamma in words:
            cells = phi(gamma)
            images.add(cells)
            assert phi_inverse(1, 2, 5, cells) == gamma
        assert images == placements
        assert len(images) == len(words)


def test_rg_word_roundtrip_at_offset_and_jump_zero():
    # B(0, 0, n) has no cells: only the all-blocks word, whose letters
    # target row 0, maps to the empty placement
    for n in range(5):
        for k in range(n + 1):
            words = enumerate_rg_words(0, 0, n, k)
            assert len(words) == (k == n)
            for gamma in words:
                assert phi(gamma) == ()
                assert phi_inverse(0, 0, n, ()) == gamma


def test_rg_counts_match_classical_stirling():
    for n in range(1, 7):
        for k in range(n + 1):
            count = len(enumerate_rg_words(0, 1, n, k))
            expected = int(stirling2(n, k, PlainQ(1))) if n else (k == 0)
            assert count == expected


def test_all_new_blocks_word_is_empty_placement():
    gamma = RGWord(2, 3, (0, 1, 2, 3, 4), (0, 0, 0, 0))
    gamma.validate()
    assert phi(gamma) == ()


def test_per_word_weight_identity(rng):
    fam = sample_elliptic(rng)
    for k in range(5):
        for gamma in enumerate_rg_words(2, 3, 4, k):
            assert rg_word_weight_identity(gamma, fam).rel_err < 1e-10


def test_statistic_d_equals_normalized(rng):
    fam = sample_elliptic(rng)
    for k in range(5):
        lhs = statistic_d(2, 3, 4, k, fam)
        rhs = gen_stirling2_normalized(2, 3, 4, k, fam)
        assert relative_error(lhs, rhs) < 1e-10
    assert statistic_d(1, 2, 4, 4, fam) == 1


def test_statistic_d_carlitz_relation():
    # at the plain-q family the tilde numbers are Carlitz' q-Stirling
    # numbers and D carries the inverse big-weight normalization
    q = Fraction(3, 5)
    fam = PlainQ(q)
    for n in range(1, 6):
        for k in range(1, n + 1):
            carlitz = carlitz_stirling2_q(n, k, q)
            assert gen_stirling2(0, 1, n, k, fam) == carlitz
            norm = gen_stirling2_normalization(0, 1, k, fam)
            assert statistic_d(0, 1, n, k, fam) * norm == carlitz


def test_matrix_inverse_at_staircase(rng):
    fam = sample_elliptic(rng)
    n_max = 4
    big = {
        (n, k): gen_stirling2_normalized(0, 1, n, k, fam)
        for n in range(n_max + 1)
        for k in range(n + 1)
    }
    small = {
        (n, k): (-1) ** (n - k) * gen_stirling1(0, 1, n, k, fam)
        for n in range(n_max + 1)
        for k in range(n + 1)
    }
    for n in range(n_max + 1):
        for target in range(n + 1):
            terms = [big[(n, k)] * small[(k, target)] for k in range(target, n + 1)]
            total = sum(terms)
            want = 1 if target == n else 0
            scale = max(1.0, max(abs(t) for t in terms))
            assert abs(total - want) / scale < 1e-10


def test_rg_counts_match_placements_full_grid():
    for jump in (1, 2, 3):
        for offset in range(jump + 1):
            for n in range(1, 6):
                board = b_board(offset, jump, n)
                for k in range(n + 1):
                    words = enumerate_rg_words(offset, jump, n, k)
                    count = sum(
                        1 for _ in j_rook_placements(board.heights, jump, n - k)
                    )
                    assert len(words) == count, (offset, jump, n, k)
