import math
import operator
import random

import pytest
from conftest import from_wide, to_wide
from mpmath import mp, mpc, mpf

from ellrook.errors import PoleEncountered
from ellrook.harness import run_check, wide_family
from ellrook.jattack import b_board, jump_enumeration_total, jump_product_check
from ellrook.numeric import guard_denominator
from ellrook.weights import FullElliptic, WeightTable, random_family
from ellrook.wide import GUARD_BITS, ZERO_EXP, Wide, digits_prec, wide_type

WIDE = wide_type(digits_prec(35))


def _random_wide(rng, scale=1.0):
    # a product of two doubles fills the mantissa
    def draw():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * scale

    return WIDE(draw()) * WIDE(draw())


def _operands(rng):
    """Pairs of a Wide value and an operand of each type Wide takes."""
    for _ in range(40):
        x = _random_wide(rng)
        yield x, _random_wide(rng)
        yield x, rng.randint(-(10**12), 10**12)
        yield x, rng.choice((1, -1, 2, 3))
        yield x, rng.uniform(-3, 3)
        yield x, complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        yield x, to_wide(from_wide(_random_wide(rng)))  # at 60 digits


def _close(got, want, ulps=8):
    """got within a few units in the last place of the 35-digit type."""
    assert isinstance(got, WIDE)
    assert abs(from_wide(got) - want) <= ulps * mpf(2) ** -WIDE.bits * abs(want), (got, want)


@pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
def test_arithmetic_matches_mpmath_at_60_digits(op):
    fn = getattr(operator, op)
    rng = random.Random(op)
    with mp.workdps(60):
        for x, y in _operands(rng):
            y_mp = from_wide(y) if isinstance(y, Wide) else mpc(y)
            _close(fn(x, y), fn(from_wide(x), y_mp))
            # y on the left: Wide's reflected methods, or the 60-digit type's own
            got = fn(y, x)
            assert isinstance(got, Wide)
            _close(WIDE(got), fn(y_mp, from_wide(x)), ulps=16)


def test_powers_negation_and_conversions():
    rng = random.Random(1)
    with mp.workdps(60):
        for _ in range(20):
            x = _random_wide(rng)
            for n in (0, 1, 2, 5, -1, -3):
                _close(x**n, from_wide(x) ** n, ulps=32)
            assert x**0 == 1 and type(x**0) is WIDE
            assert -x == to_wide(-from_wide(x)) and -(-x) == x
            assert complex(x) == complex(from_wide(x))
            assert abs(abs(x) - float(abs(from_wide(x)))) <= 1e-15 * abs(x)


def test_zero():
    rng = random.Random(2)
    zero = WIDE(0)
    assert not zero and zero.exp == ZERO_EXP and zero == 0
    assert abs(zero) == 0.0 and complex(zero) == 0
    for _ in range(20):
        x = _random_wide(rng)
        difference = x - x
        assert difference == 0 and not difference and difference.exp == ZERO_EXP
        assert zero + x == x and x + zero == x and x - zero == x and zero - x == -x
        assert zero * x == 0 and x * 0 == 0 and 0.0 * x == 0 and zero / x == 0
        with pytest.raises(ZeroDivisionError):
            x / zero
        with pytest.raises(ZeroDivisionError):
            1 / zero


def test_negligible_addend_and_large_exponent_gaps():
    rng = random.Random(3)
    with mp.workdps(60):
        for _ in range(20):
            x = _random_wide(rng)
            for gap in (WIDE.bits - 4, WIDE.bits + 2, WIDE.bits + 40, 3000):
                small = _random_wide(rng) * WIDE(2.0) ** -gap
                for got, want in (
                    (x + small, from_wide(x) + from_wide(small)),
                    (small + x, from_wide(x) + from_wide(small)),
                    (x - small, from_wide(x) - from_wide(small)),
                    (small - x, from_wide(small) - from_wide(x)),
                ):
                    _close(got, want)
                if gap >= WIDE.bits + 40:
                    assert x + small == x  # below the mantissa, the sum is x
            # beyond the double range either way, the values stay exact
            huge, tiny = x * WIDE(2.0) ** 3000, x * WIDE(2.0) ** -3000
            _close(huge * tiny, from_wide(x) ** 2)
            _close(huge / (tiny * 7), from_wide(x) * mpf(2) ** 6000 / (from_wide(x) * 7))
            assert abs(huge) == math.inf and abs(tiny) == 0.0 and "* 2**" in repr(huge)
            with pytest.raises(OverflowError):
                complex(huge)


def test_abs_and_complex_of_mantissas_beyond_the_double_range():
    # a 320-digit type carries mantissas of over 1024 bits
    wide = wide_type(digits_prec(320))
    assert wide.bits > 1024
    with mp.workdps(320):
        for c in (0.6 + 0.8j, -1e-300 + 3e-301j, 2.5e300 - 1j):
            x = to_wide(mpc(c) / 3) * 3
            assert type(x) is wide
            assert max(abs(x.re), abs(x.im)).bit_length() > 1024
            assert complex(x) == c and abs(abs(x) - abs(c)) <= 1e-15 * abs(c)


def test_a_value_below_the_double_range_is_a_pole_as_in_mpmath():
    # guard_denominator compares abs(value) with POLE_EPS: a Wide value
    # whose modulus rounds to 0.0 is a pole, as an mpc of that size is
    x = WIDE(0.5 + 0.25j) * WIDE(2.0) ** -1100
    assert x and abs(x) == 0.0
    with pytest.raises(PoleEncountered):
        guard_denominator(x)
    with mp.workdps(35), pytest.raises(PoleEncountered):
        guard_denominator(from_wide(x))
    assert guard_denominator(x * WIDE(2.0) ** 200) is not None


def test_hash_and_equality_agree_with_python_numbers():
    # == as Python's numbers define it, and no hash: a value equal to a
    # double but carrying more digits must not key a dict or cache by value
    rng = random.Random(4)
    wider = wide_type(digits_prec(60))
    for _ in range(500):
        c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * 2.0 ** rng.randint(-60, 60)
        for number in (c, c.real, complex(0, c.imag), rng.randint(-(2**40), 2**40)):
            x = WIDE(number)
            assert x == number and number == x, number
            assert x == wider(number)
            assert x != WIDE(number) + 1 and x != WIDE(number) * (1 + WIDE(2.0) ** -100)
        # values no double holds, across precisions
        x = _random_wide(rng)
        assert x == wider(x)
        assert x == x * 1 == 1 * x == x / 1
    assert WIDE(1.5) != float("nan") and WIDE(1.5) != float("inf")
    assert WIDE(-1) == -1
    for value in (WIDE(0), WIDE(-1), x, wider(x)):
        with pytest.raises(TypeError):
            hash(value)
    # nor does a family over Wide numbers hash, though it equals its doubles'
    fam = random_family(random.Random(1), "elliptic")
    assert wide_family(fam) == fam
    with pytest.raises(TypeError):
        hash(wide_family(fam))


def test_conversions_are_exact():
    rng = random.Random(5)
    with mp.workdps(60):
        for _ in range(100):
            c = complex(rng.uniform(-3, 3), rng.uniform(-1e-12, 1e-12))
            assert from_wide(WIDE(c)) == mpc(c)
            value = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)) / 7
            assert from_wide(to_wide(value)) == value
        assert WIDE(2.0**-1074) == 2.0**-1074  # the least subnormal
        for bad in (mpf("inf"), mpc(1, mpf("nan"))):
            with pytest.raises(OverflowError):
                to_wide(bad)
    for bad in (float("inf"), complex(1, float("inf"))):
        with pytest.raises(OverflowError):
            WIDE(bad)
    with pytest.raises(TypeError):
        WIDE("1")
    assert WIDE.bits == WIDE.prec + GUARD_BITS
    with mp.workdps(35):
        assert WIDE.prec == mp.prec


# the boards of the jump cross-check: B(I, J, n) for I <= 2, J <= 3, n <= 2
# at z = J n and J n + 1, and two deeper ones
CROSS_CHECK_SHAPES = [
    (b_board(offset, jump, n), jump, z)
    for offset in range(3)
    for jump in (1, 2, 3)
    for n in (1, 2)
    for z in (jump * n, jump * n + 1)
] + [(b_board(2, 3, 3), 3, 9), (b_board(0, 3, 3), 3, 10)]


@pytest.mark.parametrize("p_modulus", [(0.05, 0.4), (0.55, 0.9)])
def test_cross_check_sides_match_a_70_digit_evaluation(p_modulus):
    # the 35-digit lhs, rhs and enumeration total of the jump cross-check
    # against the same family evaluated over Wide numbers at 70 digits;
    # the judge compares them at 1e-8 and cannot see an error this small
    rng = random.Random(25)
    worst = 0.0
    for board, jump, z in CROSS_CHECK_SHAPES:
        fam = random_family(rng, "elliptic", p_modulus=p_modulus)
        precise = wide_family(fam)
        entry = jump_product_check(board, jump, precise, z)
        sides = (entry.lhs, entry.rhs, jump_enumeration_total(board, jump, z, precise))
        with mp.workdps(70):
            reference = FullElliptic(*(to_wide(mpc(v)) for v in (fam.a, fam.b, fam.q, fam.p)))
            want = jump_product_check(board, jump, reference, z)
            wants = (want.lhs, want.rhs, jump_enumeration_total(board, jump, z, reference))
            for got, value in zip(sides, wants):
                # ints where no weight enters
                got, value = from_wide(WIDE(got)), from_wide(to_wide(value))
                worst = max(worst, float(abs(got - value) / abs(value)))
    assert worst <= 1e-26, worst


def test_wide_family_after_its_double_family_keeps_its_digits():
    # evaluated right after the double family at the same point; a memo
    # keyed by value would hand the 35-digit family the doubles' values,
    # since a Wide value equals the double it came from
    rng = random.Random(26)
    for _ in range(4):
        fam = random_family(rng, "elliptic")
        ks, zs = range(-2, 5), (2, 3, 5)
        doubles = WeightTable(fam)
        assert [doubles[k] for k in ks] == [fam.small_weight(k) for k in ks]
        assert all(type(fam.number(z)) is complex for z in zs)
        precise = wide_family(fam)
        table = WeightTable(precise)
        got = [table[k] for k in ks] + [precise.number(z) for z in zs]
        with mp.workdps(70):
            reference = FullElliptic(*(to_wide(mpc(v)) for v in (fam.a, fam.b, fam.q, fam.p)))
            wants = [reference.small_weight(k) for k in ks] + [reference.number(z) for z in zs]
            for value, want in zip(got, wants):
                assert type(value) is WIDE
                want = from_wide(want)
                assert abs(from_wide(value) - want) <= 1e-30 * abs(want)


def test_a_35_digit_cross_check_hashes_no_wide_value():
    # Wide values are unhashable, so the extended-precision memo, keyed by
    # mantissas, and every other path must run without hashing one
    assert Wide.__hash__ is None and WIDE.__hash__ is None
    # integer z at or above J*n runs the 35-digit enumeration cross-check
    assert run_check("product-jump", "1,3", jump=2, z=4, trials=1).passed
