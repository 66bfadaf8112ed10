import cmath
import importlib
import math
from fractions import Fraction

import pytest

from conftest import from_wide, sample_elliptic, to_wide
from ellrook import weights
from ellrook.errors import PoleEncountered
from ellrook.numeric import cpow, relative_error
from ellrook.weights import (
    ABq,
    Aq,
    FrakPQ,
    FullElliptic,
    PlainQ,
    ZeroBq,
    q_binomial,
    q_factorial,
    q_falling,
    q_number,
    random_family,
    random_generic_point,
    random_z,
    shift_params,
)

# the submodule; the package attribute ellrook.theta is the function
theta_module = importlib.import_module("ellrook.theta")


def test_plain_q_small_weight_is_constant():
    fam = PlainQ(0.37 + 0.2j)
    for k in (-3, 0, 1, 7):
        assert fam.small_weight(k) == fam.q
    assert PlainQ(2).big_weight(3) == 8


def test_shift_identity_small(rng):
    fam = sample_elliptic(rng)
    k, n = 2, 3
    assert relative_error(fam.small_weight(k + n), fam.shifted(k).small_weight(n)) < 1e-12
    k, n = 1, 4
    assert relative_error(fam.small_weight(k + n), fam.shifted(k).small_weight(n)) < 1e-12


def test_aq_formula_matches_hand_derived_limit():
    # the b -> 0 limit of the three-factor quotient, worked out once by hand
    a, q, k = 0.42 + 0.13j, 0.66 + 0.31j, 4
    fam = Aq(a, q)
    limit = (1 - a * q ** (2 * k + 1)) / ((1 - a * q ** (2 * k - 1)) * q)
    assert relative_error(fam.small_weight(k), limit) < 1e-12


def test_big_weight_is_prefix_product(rng):
    fam = sample_elliptic(rng)
    prod = 1
    for j in range(1, 6):
        prod *= fam.small_weight(j)
    assert relative_error(fam.big_weight(5), prod) < 1e-11
    assert fam.big_weight(0) == 1


def test_big_weight_shift(rng):
    fam = sample_elliptic(rng)
    k, n = 3, 2
    lhs = fam.big_weight(k + n)
    rhs = fam.big_weight(k) * fam.shifted(k).big_weight(n)
    assert relative_error(lhs, rhs) < 1e-12


def test_elliptic_number_basics(rng):
    fam = sample_elliptic(rng)
    assert fam.number(0) == 0
    assert relative_error(fam.number(1), 1) < 1e-14
    z, y = 3.7 + 0.2j, 2
    rhs = fam.number(y) + fam.big_weight(y) * fam.shifted(y).number(z - y)
    assert relative_error(fam.number(z), rhs) < 1e-10


def test_number_telescopes(rng):
    for _ in range(5):
        fam = sample_elliptic(rng)
        for n in range(1, 9):
            rhs = 1 + sum(fam.big_weight(j) for j in range(1, n))
            assert relative_error(fam.number(n), rhs) < 1e-11


def test_shift_params_plain():
    assert shift_params(1, 1, 2, 0) == (1, 1)
    assert shift_params(1, 1, 2, 1) == (4, 2)


def test_binomial_boundaries(rng):
    fam = sample_elliptic(rng)
    assert fam.binomial(0, 0) == 1
    assert fam.binomial(3, 5) == 0
    assert fam.binomial(3, -1) == 0


def test_binomial_recursion(rng):
    fam = sample_elliptic(rng)
    n, k = 3, 2
    lhs = fam.binomial(n + 1, k)
    w = fam.scaled(k - 1, 2 * k - 2).big_weight(n + 1 - k)
    rhs = fam.binomial(n, k) + fam.binomial(n, k - 1) * w
    assert relative_error(lhs, rhs) < 1e-10


def test_number_is_column_binomial(rng):
    fam = sample_elliptic(rng)
    for n in range(1, 6):
        assert relative_error(fam.number(n), fam.binomial(n, 1)) < 1e-11


def test_total_ellipticity(rng):
    for _ in range(100):
        a, b, q, p = random_generic_point(rng)
        fam = FullElliptic(a, b, q, p)
        k = rng.randrange(-4, 5)
        base = fam.small_weight(k)
        assert relative_error(base, FullElliptic(a * p, b, q, p).small_weight(k)) < 1e-9
        assert relative_error(base, FullElliptic(a, b * p, q, p).small_weight(k)) < 1e-9


def test_degeneration_chain(rng):
    # each rung of the ladder at a vanishing parameter t against its limit
    for _ in range(20):
        a, b, q, p = random_generic_point(rng)
        t = p * 1e-16
        rungs = (
            (FullElliptic(a, b, q, t), ABq(a, b, q)),
            (ABq(a, t, q), Aq(a, q)),
            (ABq(t, b, q), ZeroBq(b, q)),
            (ZeroBq(t, q), PlainQ(q)),
        )
        for near, limit in rungs:
            for k in (-2, 0, 3):
                assert relative_error(near.small_weight(k), limit.small_weight(k)) < 1e-13
                assert relative_error(near.big_weight(k), limit.big_weight(k)) < 1e-13
            assert relative_error(near.number(2.3 + 0.4j), limit.number(2.3 + 0.4j)) < 1e-13
            assert relative_error(near.binomial(5, 2), limit.binomial(5, 2)) < 1e-13


def test_abq_is_full_elliptic_at_p_zero():
    for method in ("small_weight", "big_weight", "number", "binomial"):
        assert getattr(ABq, method) is getattr(FullElliptic, method)
    assert ABq.p == 0
    assert not isinstance(ABq(1, 2, 0.5), FullElliptic)
    # theta(x; 0) = 1 - x exactly, so exact parameters give exact values:
    # those of the a,b;q formulas written out with a factor 1 - x each
    fam = ABq(Fraction(3, 7), Fraction(5, 11), Fraction(2, 3))
    assert fam.small_weight(2) == Fraction(33812, 544181)
    assert fam.big_weight(3) == Fraction(-419436280, 28220781421)
    assert fam.number(4) == Fraction(355342, 1711353)
    assert fam.binomial(4, 2) == Fraction(-218546756131, 541713088413)
    assert fam.shifted(1) == ABq(Fraction(4, 21), Fraction(10, 33), Fraction(2, 3))


def test_frak_pq_matches_substituted_base(rng):
    a, b, q, _ = random_generic_point(rng)
    fp = 1.15 - 0.2j
    fam = FrakPQ(a, b, fp, q)
    delegate = ABq(a, b, q / fp)
    for k in (-2, 1, 4):
        assert relative_error(fam.small_weight(k), delegate.small_weight(k)) < 1e-12
        assert relative_error(fam.big_weight(k), delegate.big_weight(k)) < 1e-12
    z = 1.8 + 0.7j
    assert relative_error(fam.number(z), delegate.number(z)) < 1e-12


def test_frak_pq_draw_keeps_the_quotient_on_the_principal_sheet(rng):
    for _ in range(500):
        fam = random_family(rng, "pq")
        gap = cmath.phase(fam.q) - cmath.phase(fam.fp)
        assert -math.pi < gap <= math.pi
        z = random_z(rng)
        assert relative_error(cpow(fam.q / fam.fp, z), cpow(fam.q, z) / cpow(fam.fp, z)) < 1e-12


def test_pole_is_raised_not_propagated():
    # b q^{k+2} = 1 makes a denominator theta vanish at p = 0
    fam = ABq(0.5, 1 / 0.7**5, 0.7)
    with pytest.raises(PoleEncountered):
        fam.small_weight(3)


def test_q_oracles_exact():
    two = Fraction(2)
    assert q_number(two, 3) == 7
    assert q_factorial(1, 3) == 6
    assert q_falling(1, 4, 2) == 12
    assert q_binomial(Fraction(3, 5), 4, 2) == Fraction(
        (1 - Fraction(3, 5) ** 3) * (1 - Fraction(3, 5) ** 4),
        (1 - Fraction(3, 5)) * (1 - Fraction(3, 5) ** 2),
    )
    assert q_binomial(1, 5, 2) == 10


def test_noninteger_weight_arguments(rng):
    # arbitrary complex k goes through the principal branch; shift still holds
    fam = sample_elliptic(rng)
    k = 0.75 + 0.3j
    lhs = fam.small_weight(k + 2)
    rhs = fam.shifted(2).small_weight(k)
    assert relative_error(lhs, rhs) < 1e-11



def test_full_elliptic_over_mpmath_numbers_truncates_at_their_precision(rng, monkeypatch):
    # no mp_family: the numbers alone set theta's truncation; the reference
    # evaluates the same weights at 60 digits with mpmath's own theta
    from mpmath import mp, mpc, qp

    def qp_theta(x, p):
        return qp(x, p) * qp(p / x, p)

    def qp_theta_multi(xs, p):
        return mp.fprod(qp_theta(x, p) for x in xs)

    def values(fam):
        return [fam.small_weight(3), fam.big_weight(2), fam.number(4), fam.binomial(5, 2)]

    for _ in range(5):
        point = random_generic_point(rng)
        with mp.workdps(35):
            fam = FullElliptic(*(to_wide(mpc(v)) for v in point))
            got = [from_wide(value) for value in values(fam)]
        with mp.workdps(60), monkeypatch.context() as patch:
            patch.setattr(weights, "theta_multi", qp_theta_multi)
            patch.setattr(theta_module, "theta", qp_theta)
            want = values(FullElliptic(*map(mpc, point)))
        for name, g, w in zip(("small_weight", "big_weight", "number", "binomial"), got, want):
            assert abs(g - w) < 1e-30 * abs(w), (name, point)
