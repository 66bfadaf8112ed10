import math
from fractions import Fraction
from itertools import product

import pytest

from conftest import sample_elliptic
from ellrook import rook as rook_module
from ellrook.boards import SkylineBoard
from ellrook.files import ABOVE_ROOK, ROW_ONLY, _file_transfer, file_number, file_row
from ellrook.jattack import b_board, rook_number_j
from ellrook.numeric import relative_error
from ellrook.rook import (
    _j_rook_exact,
    _j_rook_transfer,
    j_rook_row,
    max_identity_check,
    product_formula_check,
    q_rook_number,
    rect_rook_number_aq,
    rectangle,
    rook_number,
    rook_number_via_recursion,
    rook_row,
    rook_row_via_recursion,
)
from ellrook.weights import Aq, PlainQ, q_factorial, random_generic_point, random_z


def test_placement_weight_example(rng):
    # the two-rook placement on the 3x3 board: weight w(0)^2 w(-1)
    fam = sample_elliptic(rng)
    board = SkylineBoard((3, 3, 3))
    # r_2 includes that placement; check the full r_3 identity instead
    lhs = rook_number(board, 3, fam)
    rhs = fam.shifted(-3).number(3) * fam.shifted(-2).number(2)
    assert relative_error(lhs, rhs) < 1e-10


def test_rook_number_bounds(rng):
    fam = sample_elliptic(rng)
    board = SkylineBoard((1, 2))
    assert rook_number(board, -1, fam) == 0
    assert rook_number(board, 3, fam) == 0
    assert rook_number(SkylineBoard((0,)), 0, fam) == 1


def test_non_ferrers_rejected(rng):
    fam = sample_elliptic(rng)
    with pytest.raises(ValueError):
        rook_number(SkylineBoard((2, 1)), 1, fam)


def test_recursion_matches_enumeration(rng):
    fam = sample_elliptic(rng)
    for heights in [(1, 2), (0, 1, 2, 3), (2, 2, 3), (0, 2, 3, 5, 5)]:
        board = SkylineBoard(heights)
        for k in range(board.n + 1):
            lhs = rook_number_via_recursion(board, k, fam)
            rhs = rook_number(board, k, fam)
            assert relative_error(lhs, rhs) < 1e-10, (heights, k)


def test_product_formula_near_machine(rng):
    fam = sample_elliptic(rng)
    board = SkylineBoard((0, 2, 3, 5, 5))
    assert product_formula_check(board, fam, 2.3 + 0.4j).rel_err < 1e-8


def test_product_formula_collapses_at_zero(rng):
    fam = sample_elliptic(rng)
    board = SkylineBoard((0, 2, 3, 5, 5))
    entry = product_formula_check(board, fam, 0)
    assert entry.rel_err < 1e-10
    assert relative_error(entry.lhs, rook_number(board, board.n, fam)) < 1e-12


def test_staircase_gives_power_identity(rng):
    # on the staircase the left side collapses to a pure power of [z]
    fam = sample_elliptic(rng)
    board = SkylineBoard((0, 1, 2, 3))
    z = random_z(rng)
    entry = product_formula_check(board, fam, z)
    assert relative_error(entry.rhs, fam.number(z) ** 4) < 1e-11
    assert entry.rel_err < 1e-8


def test_max_identity_small_boards(rng):
    fam = sample_elliptic(rng)
    assert max_identity_check(SkylineBoard((1, 2)), fam, 0).rel_err < 1e-9
    assert max_identity_check(SkylineBoard((1, 2)), fam, 1).rel_err < 1e-9
    assert max_identity_check(SkylineBoard((0, 1, 2)), fam, 2).rel_err < 1e-9


def test_rect_aq_closed_form(rng):
    a, _, q, _ = random_generic_point(rng)
    fam = Aq(a, q)
    for ell, m in ((1, 1), (2, 3), (3, 2), (4, 3)):
        for k in range(min(ell, m) + 1):
            got = rook_number(rectangle(ell, m), k, fam)
            want = rect_rook_number_aq(ell, m, k, a, q)
            assert relative_error(got, want) < 1e-11, (ell, m, k)


def test_rect_aq_full_rooks_is_product(rng):
    # k = l = m = n matches the a;q limit of the square-board factorization
    a, _, q, _ = random_generic_point(rng)
    fam = Aq(a, q)
    for n in (2, 3, 4):
        want = 1
        for i in range(1, n + 1):
            want *= fam.shifted(i - 1 - n).number(n - i + 1)
        got = rect_rook_number_aq(n, n, n, a, q)
        assert relative_error(got, want) < 1e-11


def test_q_rook_oracles():
    q = Fraction(2, 3)
    assert q_rook_number(rectangle(4, 4), 4, q) == q_factorial(q, 4)
    board = SkylineBoard((0, 2, 3, 5, 5))
    assert q_rook_number(board, 0, q) == q**board.area
    # the elliptic machinery at the plain-q family is literally the q-number,
    # which the column recursion computes independently
    fam = PlainQ(q)
    staircase = SkylineBoard((0, 1, 2, 3))
    recursion = rook_row_via_recursion(staircase, fam)
    for k in range(5):
        assert rook_number(staircase, k, fam) == recursion.get(k, 0)



def test_q_rook_numbers_beyond_double_range():
    # an exact q whose modulus no double holds: the exact sums never pass
    # through a complex double
    q = Fraction(10**400, 3)
    board = SkylineBoard((0, 2, 3, 5, 5))
    recursion = rook_row_via_recursion(board, PlainQ(q))
    for k in range(board.n + 1):
        assert q_rook_number(board, k, q) == recursion.get(k, 0)
        assert rook_number(board, k, PlainQ(q)) == recursion.get(k, 0)

def test_rook_equivalent_boards(rng):
    fam = sample_elliptic(rng)
    for n in (2, 3, 4):
        lah_like = rectangle(n, n - 1)
        evens = SkylineBoard(tuple(2 * i for i in range(n)))
        for k in range(n + 1):
            lhs = rook_number(lah_like, n - k, fam)
            rhs = rook_number(evens, n - k, fam)
            assert relative_error(lhs, rhs) < 1e-9, (n, k)


def test_single_placement_weight_example(rng):
    # the worked two-rook placement on the 3x3 board
    from ellrook.boards import j_uncancelled

    fam = sample_elliptic(rng)
    unc = j_uncancelled((3, 3, 3), ((1, 3), (3, 1)), 1)
    weight = 1
    for (i, j), nw in unc.items():
        weight *= fam.small_weight(i - j - nw)
    expected = fam.small_weight(0) ** 2 * fam.small_weight(-1)
    assert relative_error(weight, expected) < 1e-13


# the exact q of the packed path, a PlainQ over an int or a Fraction; the
# reference is the kernel run on weight q itself, in int or Fraction arithmetic
EXACT_QS = [Fraction(7, 5), Fraction(-3, 4), 0, 1, 2, Fraction(10**400, 3)]
EXACT_IDS = ["7/5", "-3/4", "0", "1", "2", "1e400/3"]


def _only(row: dict, k) -> dict:
    """The kernel's output for k, from its output for k = None."""
    return row if k is None else {k: row[k]} if k in row else {}


@pytest.mark.parametrize("q", EXACT_QS, ids=EXACT_IDS)
def test_packed_exact_q_equals_unpacked_kernels_on_skylines(q):
    fam = PlainQ(q)
    for columns in range(5):
        for heights in product(range(5), repeat=columns):
            board = SkylineBoard(heights)
            rook = _j_rook_transfer(heights, 1, 0, None, lambda ell: q)
            file = {
                w: _file_transfer(heights, w, None, lambda ell: q) for w in (ROW_ONLY, ABOVE_ROOK)
            }
            for k in (None, *range(columns + 2)):
                assert rook_row(board, fam, k=k) == _only(rook, k), (heights, k)
                for w, want in file.items():
                    assert file_row(board, fam, w, k) == _only(want, k), (heights, w, k)


def test_packed_exact_q_equals_unpacked_kernel_on_jump_boards():
    # the unpacking, the only step that depends on q, is checked at every q
    # above; here the packing on depth-extended jump boards, at q = 2
    fam = PlainQ(2)
    for offset, jump, n in product(range(3), range(4), range(1, 5)):
        board = b_board(offset, jump, n)
        for depth in sorted({0, jump * n, jump * n + 1}):
            want = _j_rook_transfer(board.heights, jump, depth, None, lambda ell: 2)
            for k in (None, *range(n + 2)):
                got = j_rook_row(board, jump, fam, depth, k)
                assert got == _only(want, k), (board, depth, k)


def test_packed_exact_q_value_types():
    board = SkylineBoard((0, 2, 3, 5, 5))
    assert all(type(v) is int for v in rook_row(board, PlainQ(2)).values())
    assert all(type(v) is int for v in rook_row(board, PlainQ(Fraction(3))).values())
    assert all(type(v) is Fraction for v in rook_row(board, PlainQ(Fraction(7, 5))).values())


def test_packed_fields_do_not_carry_on_the_8x8_square():
    # at q = 1 each sum is the sum of its fields, which a carry between
    # fields would change
    row = rook_row(rectangle(8, 8), PlainQ(1))
    assert row == {k: math.comb(8, k) ** 2 * math.factorial(k) for k in range(9)}


def _outcome(call):
    """call()'s dict as a list of items, in order, or its ValueError."""
    try:
        return list(call().items())
    except ValueError as exc:
        return "ValueError", str(exc)


def test_exact_kernel_equals_weighted_kernel_at_the_packed_weight():
    # every skyline with <= 4 columns and heights <= 3, at jumps 0-3 and
    # depths 0-2: the same sums in the same order, or the same ValueError
    # where the extension is too shallow for the below-ground attack rule
    for columns in range(5):
        for heights in product(range(4), repeat=columns):
            for jump, depth in product(range(4), range(3)):
                shift = math.prod(h + depth + 1 for h in heights).bit_length()
                packed = 1 << shift
                for k in (None, *range(-1, columns + 2)):
                    want = _outcome(
                        lambda: _j_rook_transfer(heights, jump, depth, k, lambda ell: packed)
                    )
                    got = _outcome(lambda: _j_rook_exact(heights, jump, depth, k, shift))
                    assert got == want, (heights, jump, depth, k)


@pytest.mark.parametrize("q", [Fraction(7, 5), 1], ids=["7/5", "1"])
def test_packed_path_records_no_plan(q):
    # the exact sums come from _j_rook_exact and _file_transfer run
    # unrecorded: no plan is looked up or kept, so no call is warmed by another
    fam = PlainQ(q)
    caches = (rook_module._plan, rook_module.rook_signature)
    before = [cache.cache_info() for cache in caches]
    for heights in ((0, 2, 3, 5, 5), (3, 3, 3)):
        board = SkylineBoard(heights)
        for k in range(board.n + 1):
            rook_number(board, k, fam)
            q_rook_number(board, k, q)
            for weighting in (ROW_ONLY, ABOVE_ROOK):
                file_number(board, k, fam, weighting)
    for offset, jump, n in ((1, 2, 3), (0, 3, 2)):
        board = b_board(offset, jump, n)
        for k in range(n + 1):
            rook_number_j(board, k, jump, fam)
    assert [cache.cache_info() for cache in caches] == before
