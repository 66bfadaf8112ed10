from fractions import Fraction
from itertools import permutations

from conftest import sample_elliptic
from ellrook.boards import SkylineBoard
from ellrook.files import (
    ABOVE_ROOK,
    file_above_product_check,
    file_number,
    file_number_via_recursion,
    file_product_check,
    file_row_via_recursion,
    q_file_number,
)
from ellrook.numeric import relative_error, worst_error
from ellrook.weights import PlainQ, q_number, random_z


def test_empty_placement_values(rng):
    fam = sample_elliptic(rng)
    board = SkylineBoard((2, 1, 2))
    want = 1
    for i, c in enumerate(board.heights, 1):
        for j in range(1, c + 1):
            want *= fam.small_weight(1 - j)
    assert relative_error(file_number(board, 0, fam), want) < 1e-12
    assert file_number(board, 0, fam, ABOVE_ROOK) == 1


def test_single_rook_row_weight(rng):
    fam = sample_elliptic(rng)
    value = file_number(SkylineBoard((1, 1)), 1, fam)
    assert relative_error(value, 2 * fam.small_weight(0)) < 1e-13


def test_product_formula_on_skyline(rng):
    fam = sample_elliptic(rng)
    z = random_z(rng)
    board = SkylineBoard((4, 2, 1, 5, 3))
    assert file_product_check(board, fam, z).rel_err < 1e-8


def test_product_formula_collapses_at_zero(rng):
    fam = sample_elliptic(rng)
    board = SkylineBoard((2, 3, 1))
    entry = file_product_check(board, fam, 0)
    assert entry.rel_err < 1e-11
    assert relative_error(entry.rhs, file_number(board, board.n, fam)) < 1e-12


def test_above_rook_product(rng):
    fam = sample_elliptic(rng)
    z = random_z(rng)
    assert file_above_product_check(SkylineBoard((1, 2, 2)), fam, z).rel_err < 1e-8
    # all-zero columns leave only the k = n term
    entry = file_above_product_check(SkylineBoard((0, 0, 0)), fam, z)
    assert relative_error(entry.lhs, fam.number(z) ** 3) < 1e-12
    assert entry.rel_err < 1e-12


def test_recursion_matches_enumeration(rng):
    fam = sample_elliptic(rng)
    for heights in [(2, 3), (4, 2, 1, 5, 3), (0, 3, 3)]:
        board = SkylineBoard(heights)
        for k in range(board.n + 1):
            lhs = file_number_via_recursion(board, k, fam)
            rhs = file_number(board, k, fam)
            assert relative_error(lhs, rhs) < 1e-10, (heights, k)
    assert file_number_via_recursion(SkylineBoard((2, 3)), -1, fam) == 0


def test_column_permutation_invariance(rng):
    fam = sample_elliptic(rng)
    base = (0, 1, 3, 3, 5)
    reference = [file_number(SkylineBoard(base), k, fam) for k in range(6)]
    for perm in set(permutations(base)):
        board = SkylineBoard(perm)
        for k in range(6):
            assert relative_error(file_number(board, k, fam), reference[k]) < 1e-10


def test_q_degeneration_exact():
    q = Fraction(5, 7)
    board = SkylineBoard((2, 0, 3))
    n = board.n
    fam = PlainQ(q)
    # the column recursion computes the same numbers independently
    recursion = file_row_via_recursion(board, fam)
    for k in range(n + 1):
        assert file_number(board, k, fam) == recursion.get(k, 0)
    for z in range(n + 3):
        lhs = 1
        for c in board.heights:
            lhs *= q_number(q, z + c)
        rhs = sum(
            q_file_number(board, n - k, q) * q_number(q, z) ** k for k in range(n + 1)
        )
        assert lhs == rhs



def test_q_file_numbers_beyond_double_range():
    # an exact q whose modulus no double holds: the exact sums never pass
    # through a complex double
    q = Fraction(10**400, 3)
    board = SkylineBoard((2, 0, 3))
    recursion = file_row_via_recursion(board, PlainQ(q))
    for k in range(board.n + 1):
        assert q_file_number(board, k, q) == recursion.get(k, 0)

def test_both_factorizations_on_all_small_profiles(rng):
    # column order never matters, so height multisets cover every skyline
    # board with n <= 5, heights <= 5; both factorizations at 25 points
    import itertools

    from ellrook.errors import IllConditioned, PoleEncountered
    from ellrook.numeric import guard_condition
    from ellrook.weights import FullElliptic, random_generic_point

    def draw():
        a, b, q, p = random_generic_point(rng)
        return FullElliptic(a, b, q, p), random_z(rng)

    def guarded_error(entry):
        guard_condition(entry.scale, entry.lhs, entry.rhs, 1e6)
        return entry.rel_err

    points = [draw() for _ in range(25)]
    worst = 0.0
    for n in range(1, 6):
        for profile in itertools.combinations_with_replacement(range(6), n):
            board = SkylineBoard(profile)
            for fam, z in points:
                while True:
                    try:
                        worst = worst_error(
                            worst,
                            guarded_error(file_product_check(board, fam, z)),
                            guarded_error(file_above_product_check(board, fam, z)),
                        )
                        break
                    except (IllConditioned, PoleEncountered):
                        fam, z = draw()
    assert worst < 1e-8
