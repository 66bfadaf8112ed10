import cmath
import importlib
import math
import random
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from conftest import exact_bits, from_wide, to_wide

from ellrook.errors import NoConvergence, ZeroArgument
from ellrook.harness import run_check
from ellrook.numeric import cpow_int, relative_error
from ellrook.theta import qp_shifted_factorial, theta, theta_multi, theta_product
from ellrook.weights import FullElliptic, random_generic_point
from ellrook.wide import Wide, digits_prec, wide_type

# the submodule; the package attribute ellrook.theta is the function
theta_module = importlib.import_module("ellrook.theta")
theta_fixed = importlib.import_module("ellrook.theta_fixed")


def _random_nonzero(rng):
    return rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2 * cmath.pi))


def _random_nome(rng):
    return rng.uniform(0.05, 0.4) * cmath.exp(1j * rng.uniform(0.0, 2 * cmath.pi))


def test_nome_validates_modulus():
    with pytest.raises(ValueError):
        theta_product(0.5 + 0j, 1.2 + 0j)
    assert theta_product(0.5, 0.3) == theta(0.5, 0.3)


def test_zero_argument_rejected():
    with pytest.raises(ZeroArgument):
        theta(0, 0.2)


def test_p_zero_is_exact():
    assert theta(0.5, 0) == 0.5
    assert theta(2 + 1j, 0) == 1 - (2 + 1j)


def test_vanishes_at_one():
    assert theta(1, 0.3) == 0


def test_quasi_periodicity_example():
    x, p = 0.3 + 0.1j, 0.2
    assert relative_error(theta(p * x, p), -theta(x, p) / x) < 1e-12


def test_inversion_and_quasi_periodicity_random(rng):
    for _ in range(200):
        x = _random_nonzero(rng)
        p = _random_nome(rng)
        assert relative_error(theta(x, p), -x * theta(1 / x, p)) < 1e-12
        assert relative_error(theta(p * x, p), -theta(x, p) / x) < 1e-12


def test_addition_formula_random(rng):
    for _ in range(200):
        x, y, u, v = (_random_nonzero(rng) for _ in range(4))
        p = _random_nome(rng)
        t1 = theta_multi([x * y, x / y, u * v, u / v], p)
        t2 = theta_multi([x * v, x / v, u * y, u / y], p)
        t3 = (u / y) * theta_multi([y * v, y / v, x * u, x / u], p)
        scale = max(abs(t1), abs(t2), abs(t3))
        assert abs(t1 - t2 - t3) / scale < 1e-10


def test_theta_multi_trivia():
    assert theta_multi([], 0.2) == 1
    x = 1.3 - 0.4j
    assert theta_multi([x], 0.2) == theta(x, 0.2)
    lhs = theta_multi([2, 0.5j], 0.1)
    assert relative_error(lhs, theta(2, 0.1) * theta(0.5j, 0.1)) < 1e-14


def _theta_product_of(xs, p):
    """The product theta_multi stands for, one theta call per argument."""
    return _product_of(theta(x, p) for x in xs)


def _product_of(values):
    out = 1
    for value in values:
        out *= value
    return out


def test_theta_multi_is_the_product_of_theta_calls(rng, monkeypatch):
    monkeypatch.setattr(theta_module, "_memo", {})
    xs = [_random_nonzero(rng) for _ in range(6)]
    more = [_random_nonzero(rng) for _ in range(3)]
    p, other = _random_nome(rng), _random_nome(rng)
    cases = [
        (xs, p),  # every argument a miss, on a new nome
        (xs, p),  # every argument a hit
        (xs[:3] + more, p),  # hits and misses, one repeated below
        (more + more, p),
        (xs, other),  # another nome
        (xs, p),  # back to the first, whose memo is kept
        ([0.7, -1.3, 2.0], p),  # floats skip the memo
        ([0.7, xs[0], Fraction(3, 2)], p),
        ([Fraction(3, 2), Fraction(-1, 3)], Fraction(1, 5)),
        ([0.4, 1.5 + 0.5j], 0.3),  # a float nome skips the memo
    ]
    for args, nome in cases:
        got = theta_multi(args, nome)
        assert exact_bits(got) == exact_bits(_theta_product_of(args, nome)), (args, nome)
    assert list(theta_module._memo[other][1]) == xs
    assert list(theta_module._memo[p][1]) == xs + more


def test_theta_multi_over_mpmath_numbers(rng):
    from mpmath import mp, mpc, mpf

    with mp.workdps(35):
        xs = [to_wide(mpc(_random_nonzero(rng))) for _ in range(4)]
        for p in (to_wide(mpc(_random_nome(rng))), to_wide(mpf(0.3))):
            real, more = to_wide(mpf(1.5)), [to_wide(mpf(0.5)), to_wide(mpc(2, 1))]
            for args in (xs, xs[:2] + [real], more):
                got = theta_multi(args, p)
                assert exact_bits(got) == exact_bits(_theta_product_of(args, p))
        # complex arguments at a Wide nome, and the reverse
        assert exact_bits(theta_multi([0.5 + 0.1j], xs[0] / 4)) == exact_bits(
            theta(0.5 + 0.1j, xs[0] / 4)
        )
        assert exact_bits(theta_multi(xs, 0.2 + 0.1j)) == exact_bits(
            _theta_product_of(xs, 0.2 + 0.1j)
        )


def test_shifted_factorial_branches():
    a, q, p = 0.7, 0.5, 0.2
    assert qp_shifted_factorial(a, q, p, 0) == 1
    assert qp_shifted_factorial(a, q, p, 1) == theta(a, p)
    # (a;q,p)_{-1} (a/q;q,p)_1 = 1
    product = qp_shifted_factorial(a, q, p, -1) * qp_shifted_factorial(a / q, q, p, 1)
    assert relative_error(product, 1) < 1e-14


def test_no_convergence_when_terms_exhausted():
    from mpmath import mp, mpc

    # |p|^j 1.5 falls below the truncation only past j = 390,000
    with pytest.raises(NoConvergence):
        theta(1.5, 0.9999)
    with mp.workdps(35), pytest.raises(NoConvergence):
        theta(to_wide(mpc(1.5)), to_wide(mpc(0.9999)))


def test_non_finite_argument_is_an_overflow():
    with pytest.raises(OverflowError):
        theta(complex(math.inf, 1.0), 0.2 + 0.1j)
    with pytest.raises(OverflowError):
        theta(complex(1e-320, 0.0), 0.3j)  # p/x overflows


def _bits(value: complex) -> tuple[str, str]:
    return value.real.hex(), value.imag.hex()


def _series_fixed(x, p):
    """theta(x; p) over Wide numbers by the fixed-point kernel, unmemoized."""
    return theta_fixed.series(x, p, theta_fixed.nome_table(p))


def _theta_fixed(x, p):
    """theta(x; p) over mpmath numbers by the fixed-point kernel at the Wide
    type of mp.prec, unmemoized, rounded to an mpc at mp.prec."""
    return from_wide(_series_fixed(to_wide(x), to_wide(p)))


def _product_fixed(x, p):
    """theta_product over mpmath numbers at the Wide type of mp.prec,
    rounded to an mpc at mp.prec."""
    return from_wide(theta_product(to_wide(x), to_wide(p)))


def _unmemoized(x, p):
    """The double-path kernel of theta(x, p) with a table built afresh."""
    return theta_module._theta_series(x, p, theta_module._series_table(p))


def test_memo_is_bit_identical_across_nomes(rng, monkeypatch):
    monkeypatch.setattr(theta_module, "_memo", {})
    xs = [_random_nonzero(rng) for _ in range(20)]
    first, second = _random_nome(rng), _random_nome(rng)
    kept = {}
    for p in (first, second, first):
        for x in xs + xs:
            assert _bits(theta(x, p)) == _bits(_unmemoized(x, p))
        table, values = theta_module._memo[p]
        assert table is not None and list(values) == xs
        # the return to the first nome finds its memo, not a rebuilt one
        assert kept.setdefault(p, values) is values
        assert list(theta_module._memo) == list(kept)


def test_memo_never_answers_extended_precision_calls():
    from mpmath import mp, mpc, qp

    x, p = 0.7 + 0.3j, 0.35 - 0.1j
    theta(x, p)
    with mp.workdps(35):
        xm, pm = mpc(x), mpc(p)
        xw, pw = to_wide(xm), to_wide(pm)
        assert xw == x and pw == p
        want = qp(xm, pm) * qp(pm / xm, pm)
        assert abs(from_wide(theta(xw, pw)) - want) / abs(want) < 1e-30


def _memo_races(xs, nomes, reference, rounds):
    """The (x, p) at which theta differed from reference(x, p), the (xs, p)
    at which theta_multi differed from the product of those, and any
    exception raised, while two threads called both alternating the nomes
    in opposite orders."""
    # keyed by index: Wide arguments are unhashable
    want = [[reference(x, p) for p in nomes] for x in xs]
    wrong = []

    products = [_product_of(row[b] for row in want) for b in range(len(nomes))]

    def alternate(order):
        try:
            for _ in range(rounds):
                for b in order:
                    p = nomes[b]
                    wrong.extend((x, p) for x, row in zip(xs, want) if theta(x, p) != row[b])
                    if theta_multi(xs, p) != products[b]:
                        wrong.append((tuple(xs), p))
        except Exception as exc:
            wrong.append(exc)

    indices = list(range(len(nomes)))
    threads = [
        threading.Thread(target=alternate, args=(order,)) for order in (indices, indices[::-1])
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return wrong


def test_memo_under_two_threads_alternating_nomes(rng):
    xs = [_random_nonzero(rng) for _ in range(30)]
    nomes = [_random_nome(rng), _random_nome(rng)]
    assert not _memo_races(xs, nomes, _unmemoized, 100)


def test_memo_under_two_threads_alternating_more_nomes_than_it_keeps(rng):
    xs = [_random_nonzero(rng) for _ in range(4)]
    nomes = [_random_nome(rng) for _ in range(theta_module._MEMO_NOMES + 8)]
    assert not _memo_races(xs, nomes, _unmemoized, 10)
    assert len(theta_module._memo) <= theta_module._MEMO_NOMES


def test_memo_keeps_the_last_nomes_in_insertion_order(rng, monkeypatch):
    monkeypatch.setattr(theta_module, "_memo", {})
    cap = theta_module._MEMO_NOMES
    x = _random_nonzero(rng)
    nomes = [_random_nome(rng) for _ in range(cap + 8)]
    for i, p in enumerate(nomes):
        theta(x, p)
        assert list(theta_module._memo) == nomes[max(0, i + 1 - cap) : i + 1]
    # an evicted nome is built again, as the newest, and evicts the oldest
    first = nomes[0]
    assert _bits(theta(x, first)) == _bits(_unmemoized(x, first))
    assert list(theta_module._memo) == nomes[9:] + [first]


def test_memo_builds_one_table_per_nome_it_keeps(rng, monkeypatch):
    monkeypatch.setattr(theta_module, "_memo", {})
    xs = [_random_nonzero(rng) for _ in range(3)]
    nomes = [_random_nome(rng) for _ in range(3)]
    want = {(x, p): _bits(_unmemoized(x, p)) for x in xs for p in nomes}
    build, built = theta_module._series_table, []

    def counted(p):
        built.append(p)
        return build(p)

    monkeypatch.setattr(theta_module, "_series_table", counted)
    for _ in range(100):
        for p in nomes:
            for x in xs:
                assert _bits(theta(x, p)) == want[(x, p)]
    assert built == nomes


def test_mp_memo_under_two_threads_alternating_nomes(rng):
    from mpmath import mp, mpc

    with mp.workdps(35):
        xs = [to_wide(mpc(_random_nonzero(rng))) for _ in range(30)]
        nomes = [to_wide(mpc(_random_nome(rng))), to_wide(mpc(_random_nome(rng)))]
        assert not _memo_races(xs, nomes, _series_fixed, 40)


def _qp_theta(x, p):
    from mpmath import qp

    return qp(x, p) * qp(p / x, p)


# the truncation that dps digits set lies between floor and the bound
@pytest.mark.parametrize("dps, floor, bound", [(35, 1e-33, 1e-30), (60, 1e-58, 1e-55)])
def test_fixed_point_kernel_matches_qp(rng, dps, floor, bound):
    from mpmath import mp, mpc, mpf

    with mp.workdps(dps):
        assert floor < 2.0 ** theta_fixed.log2_tolerance(mp.prec) <= bound
        for i in range(120):
            modulus = mp.exp(mpf(rng.uniform(-6.0, 6.0))) * rng.choice((1, -1))
            if i % 3 == 0:
                x = modulus * mp.expj(rng.uniform(0.0, 2 * math.pi))
            elif i % 3 == 1:
                x = mpc(modulus)
            else:
                x = modulus * mp.expj(rng.uniform(-1e-9, 1e-9))
            p = mpf(rng.uniform(1e-3, 0.45))
            if i % 2:
                p *= mp.expj(rng.uniform(0.0, 2 * math.pi))
            want = _qp_theta(x, p)
            got = _theta_fixed(x, p)
            assert abs(got - want) < bound * abs(want), (x, p)
        # above |p| = 1/2 the table grows its guard bits and its depth
        for i, modulus in enumerate((0.6, 0.6, 0.8, 0.8, 0.9, 0.9, 0.97, 0.97)):
            turn = mp.expj(rng.uniform(0.0, 2 * math.pi)) if i % 2 else rng.choice((1, -1))
            p = mpf(modulus) * turn
            x = mp.exp(mpf(rng.uniform(-4.0, 4.0)))
            x *= mp.expj(rng.uniform(0.0, 2 * math.pi)) if i % 4 < 2 else rng.choice((1, -1))
            want = _qp_theta(x, p)
            got = _theta_fixed(x, p)
            assert abs(got - want) < bound * abs(want), (x, p)


@pytest.mark.parametrize("dps, floor, bound", [(35, 1e-33, 1e-30), (60, 1e-58, 1e-55)])
@pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3])
def test_fixed_point_reduction_matches_qp(rng, dps, floor, bound, m):
    from mpmath import mp, mpc, mpf

    with mp.workdps(dps):
        assert floor < 2.0 ** theta_fixed.log2_tolerance(mp.prec) <= bound
        for i in range(20):
            # down to |p| = 1e-8, where x or p^-m is about 2^{-80 |m|}
            log_p = mpf(rng.uniform(math.log(1e-8), math.log(0.45)))
            p = mp.exp(log_p)
            if i % 2:
                p *= mp.expj(rng.uniform(0.0, 2 * math.pi))
            y = mp.exp(log_p * rng.uniform(-0.45, 0.45))
            if i % 4 != 2:
                y *= mp.expj(rng.uniform(0.0, 2 * math.pi))
            x = p**m * y  # real when p and y are
            assert round(float(mp.log(abs(x)) / log_p)) == m
            want = _qp_theta(x, p)
            got = _theta_fixed(x, p)
            assert abs(got - want) < bound * abs(want), (x, p)
        # the zero at x = p^m is exact where p's powers are
        for p in (mpf(0.25), mpf(-0.125), mpc(0, 0.5), mpc(0.25, -0.25)):
            assert _theta_fixed(p**m, p) == 0


def test_fixed_point_reduction_far_from_the_unit_circle():
    from mpmath import mp, mpc

    with mp.workdps(35):
        p = mpc(0.3, 0.35)
        for m in (-200, 200):
            x = p**m * mpc(0.9, 0.2)
            want = _product_fixed(x, p)
            assert abs(_theta_fixed(x, p) - want) < 1e-30 * abs(want)


@pytest.mark.parametrize("m", [-1000, -300, 300, 1000])
def test_fixed_point_reduction_by_binary_powering_matches_qp(rng, m):
    from mpmath import mp, mpf

    with mp.workdps(35):
        # |p|^|m| within the double range: |p| > 0.4917 at |m| = 1000
        low = math.log(0.4925 if abs(m) == 1000 else 0.12)
        for i in range(4):
            log_p = mpf(rng.uniform(low, math.log(0.499)))
            p = mp.exp(log_p)
            if i % 2:
                p *= mp.expj(rng.uniform(0.0, 2 * math.pi))
            y = mp.exp(log_p * rng.uniform(-0.45, 0.45)) * mp.expj(rng.uniform(0.0, 2 * math.pi))
            x = p**m * y
            assert round(float(mp.log(abs(x)) / log_p)) == m
            with mp.workdps(55):
                want = _qp_theta(x, p)
            got = _theta_fixed(x, p)
            assert abs(got - want) < 1e-30 * abs(want), (x, p)
        if abs(m) == 300:
            # the zero at x = p^m stays exact where p's powers are
            for p in (mpf(0.25), mpf(-0.125), mp.mpc(0, 0.5), mp.mpc(0.25, -0.25)):
                assert _theta_fixed(p**m, p) == 0


def test_fixed_point_kernel_zero_and_out_of_range_arguments():
    from mpmath import inf, mp, mpc

    with mp.workdps(35):
        with pytest.raises(ZeroArgument):
            theta(to_wide(mpc(0)), to_wide(mpc(0.2, 0.1)))
        with pytest.raises(OverflowError):
            theta(to_wide(mpc(inf, 1.0)), to_wide(mpc(0.2, 0.1)))
        with pytest.raises(OverflowError):
            # p/x overflows, as on doubles
            theta(to_wide(mpc(1e-320)), to_wide(mpc(0, 0.3)))
        x = to_wide(mpc(0.5, 0.25))
        assert theta(x, to_wide(mpc(0))) == 1 - x


def test_fixed_point_kernel_above_the_double_exponent_range():
    # at 320 digits the mantissas have over 1024 bits, more than a double's
    # exponent reaches; |x| and |p| are still read off them
    from mpmath import mp, mpc

    with mp.workdps(320):
        for x, p in ((mpc(0.7, 0.3), mpc(0.35, -0.1)), (mpc(2.5, -1.0), mpc(-0.8, 0.3))):
            value = from_wide(theta(to_wide(x), to_wide(p)))
            want = _qp_theta(x, p)
            assert abs(value - want) < 1e-313 * abs(want)


def test_theta_at_400_digits_matches_qp():
    # past about 1,090 bits the truncation 2^(17 - prec) underflows in
    # doubles; theta and theta_product carry it as its log2
    from mpmath import mp, mpc, mpf

    wide = wide_type(digits_prec(400))
    for x, p in ((0.7 + 0.3j, 0.35 - 0.1j), (2.5 - 1.0j, -0.6 + 0.3j)):
        with mp.workdps(400):
            want = _qp_theta(mpc(x), mpc(p))
            bound = mpf(2) ** theta_fixed.log2_tolerance(wide.prec) * abs(want)
            for got in (theta(wide(x), wide(p)), theta_product(wide(x), wide(p))):
                assert type(got) is wide
                assert abs(from_wide(got) - want) < bound


def test_fixed_point_kernel_nomes_at_the_ends_of_the_double_range():
    from mpmath import mp, mpf

    with mp.workdps(35):
        x = to_wide(mpf(0.5))
        with pytest.raises(NoConvergence):  # |p| rounds to 1 in doubles
            theta(x, to_wide(1 - mpf("1e-20")))
        with pytest.raises(OverflowError):  # |p| rounds to 0 in doubles
            theta(x, to_wide(mpf("1e-400")))


def test_fixed_point_kernel_on_real_arguments():
    from mpmath import mp, mpf

    with mp.workdps(35):
        for x, p in ((mpf(0.5), mpf(0.3)), (mpf(-2.5), mpf(-0.2)), (3, mpf("0.1"))):
            value = theta(to_wide(x), to_wide(p))
            assert value.im == 0
            value = from_wide(value)
            assert abs(value - _qp_theta(mp.mpc(x), mp.mpc(p))) < 1e-30 * abs(value)
        p = to_wide(mpf(0.3))
        assert theta(p, p) == 0 == theta(to_wide(mpf(1)), p)


def _wide_key(value):
    """The Wide memo's key of a Wide value: its mantissa triple."""
    return value.re, value.im, value.exp


def test_extended_precision_memo_is_keyed_by_precision():
    from mpmath import mp, mpc

    x, p = 0.7 + 0.3j, 0.35 - 0.1j
    with mp.workdps(35):
        low = from_wide(theta(to_wide(mpc(x)), to_wide(mpc(p))))
    with mp.workdps(60):
        high = from_wide(theta(to_wide(mpc(x)), to_wide(mpc(p))))
        want = _qp_theta(mpc(x), mpc(p))
        assert abs(high - want) < 1e-55 * abs(want)
        assert abs(low - want) > 1e-45 * abs(want)
        memo_p, _, _, values = theta_module._wide_memo
        assert type(memo_p).prec == mp.prec and list(values) == [_wide_key(type(memo_p)(x))]


def test_memos_never_answer_each_other():
    from mpmath import mp, mpc

    x, p = 0.6 - 0.45j, 0.3 + 0.2j
    with mp.workdps(35):
        precise = theta(to_wide(mpc(x)), to_wide(mpc(p)))
        before = theta_module._wide_memo
        key = _wide_key(wide_type(mp.prec)(x))
        stored = before[3][key]
        value = theta(x, p)
        assert type(value) is complex
        assert _bits(value) == _bits(_unmemoized(x, p))
        assert list(theta_module._memo)[-1] == p and theta_module._memo[p][1][x] is value
        # a repeated call is answered from the Wide memo
        assert theta(to_wide(mpc(x)), to_wide(mpc(p))) is precise
        assert theta_module._wide_memo is before and theta_module._wide_memo[3][key] is stored
        # the Wide memo holds the one extended-precision value
        memo_p, _, _, values = theta_module._wide_memo
        assert memo_p == p and list(values) == [key]
        assert all(type(value) is wide_type(mp.prec) for value in values.values())


def test_cross_check_never_runs_the_product_on_wide_numbers(monkeypatch):
    # theta on Wide numbers runs the series at every nonzero nome
    product = theta_module.theta_product

    def double_only(x, p):
        assert not isinstance(x, Wide) and not isinstance(p, Wide)
        return product(x, p)

    monkeypatch.setattr(theta_module, "theta_product", double_only)
    # integer z at or above J*n runs the 35-digit enumeration cross-check
    assert run_check("product-jump", "1,3", jump=2, z=4, trials=3).passed


def test_import_leaves_mpmath_unloaded():
    loaded = "{'mpmath', 'ellrook.theta_fixed'} & set(sys.modules)"
    code = f"import sys, ellrook; sys.exit(bool({loaded}))"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
    # the 35-digit cross-check runs on Wide numbers, without mpmath
    check = 'ellrook.run_check("product-jump", "1,3", jump=2, z=4, trials=3)'
    code = f"import sys, ellrook; sys.exit(not {check}.passed or 'mpmath' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
    # and runs where mpmath cannot be imported at all
    blocked = "import sys; sys.modules['mpmath'] = None; import ellrook.cli; "
    for argv in (
        ["check", "product-jump", "--board", "2,5,8", "--J", "3", "--z", "9", "--seed", "7"],
        ["check", "theta-inversion", "--trials", "20", "--seed", "1"],
    ):
        code = blocked + f"sys.exit(ellrook.cli.main({argv!r}))"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 0 and run.stdout.startswith("PASS"), (argv, run)


@pytest.mark.parametrize("call", ["theta", "theta_multi", "theta_product", "small_weight", "Wide"])
def test_mpmath_numbers_are_a_type_error(rng, call):
    # no mpmath number reaches the doubles' truncation unseen
    from mpmath import mp, mpc, mpf

    with mp.workdps(35):
        x, p = mpc(0.7, 0.3), mpc(0.35, -0.1)
        point = random_generic_point(rng)
        calls = {
            "theta": lambda: theta(x, p),
            "theta_multi": lambda: theta_multi([x], p),
            "theta_product": lambda: theta_product(mpf(0.7), mpf(0.35)),
            "small_weight": lambda: FullElliptic(*map(mpc, point)).small_weight(2),
            "Wide": lambda: wide_type(mp.prec)(x),
        }
        with pytest.raises(TypeError):
            calls[call]()
        # p = 0 is exact for every number type
        assert theta(x, 0) == 1 - x


def _qp_double(x: complex, p: complex) -> complex:
    from mpmath import mp, mpc

    with mp.workdps(40):
        return complex(_qp_theta(mpc(x), mpc(p)))


def _polar(rng, lo, hi):
    """A complex number of log-uniform modulus in [lo, hi] and uniform argument."""
    return math.exp(rng.uniform(math.log(lo), math.log(hi))) * cmath.exp(
        1j * rng.uniform(0.0, 2 * math.pi)
    )


def test_double_kernel_matches_qp(rng):
    for i in range(300):
        x, p = _polar(rng, math.exp(-8), math.exp(8)), _polar(rng, 1e-3, 0.5)
        if i % 2:
            x, p = complex(rng.choice((1, -1)) * abs(x)), complex(rng.choice((1, -1)) * abs(p))
        assert relative_error(theta(x, p), _qp_double(x, p)) < 5e-14, (x, p)


def test_double_kernel_near_zeros(rng):
    # Near a zero x = p^k the value is as ill-conditioned as x - p^k is in
    # doubles.  That difference is exact for k = 0 and 1 at any nome, and for
    # every k at a power of two times 1, -1, i or -i, whose powers are exact.
    for i in range(200):
        if i % 2:
            k, p = rng.choice((0, 1)), _polar(rng, 1e-3, 0.5)
        else:
            k, p = rng.randint(-3, 3), 2.0 ** -rng.randint(1, 9) * rng.choice((1, -1, 1j, -1j))
            p = complex(p)
        x = cpow_int(p, k) * (1 + _polar(rng, 1e-9, 1e-3))
        assert relative_error(theta(x, p), _qp_double(x, p)) < 5e-14, (x, p, k)


def test_exact_zeros_on_both_paths(rng):
    from mpmath import mp, mpc

    for _ in range(20):
        p = _random_nome(rng)
        assert theta(1 + 0j, p) == 0 and theta(p, p) == 0
        with mp.workdps(35):
            pw = to_wide(mpc(p))
            assert theta(to_wide(mpc(1)), pw) == 0 and theta(pw, pw) == 0


def test_nomes_above_one_half_keep_the_product(rng):
    from mpmath import mp, mpc

    nomes = []
    for _ in range(20):
        x, p = _random_nonzero(rng), rng.uniform(0.51, 0.9) * cmath.exp(1j * rng.uniform(0, 6.3))
        assert _bits(theta(x, p)) == _bits(theta_product(x, p))
        nomes.append(p)
    assert all(theta_module._memo[p][0] is None for p in nomes)
    # Wide numbers sum the series there, from a table of their own
    with mp.workdps(35):
        x, p = to_wide(mpc(x)), to_wide(mpc(p))
        value = theta(x, p)
        assert theta_module._wide_memo[2] is not None
        want = theta_product(x, p)
        assert abs(value - want) < 1e-30 * abs(want)


def test_product_and_series_above_one_half_match_qp(rng):
    from mpmath import mp, mpc

    with mp.workdps(35):
        for _ in range(10):
            x = mpc(_random_nonzero(rng))
            p = mpc(rng.uniform(0.51, 0.8) * cmath.exp(1j * rng.uniform(0, 6.3)))
            want = _qp_theta(x, p)
            assert abs(_theta_fixed(x, p) - want) < 1e-30 * abs(want)
            assert abs(_product_fixed(x, p) - want) < 1e-30 * abs(want)


def test_theta_product_over_wide_numbers_truncates_at_their_precision(rng):
    wide = wide_type(digits_prec(35))
    for modulus in (0.3, 0.7):
        x = wide(_random_nonzero(rng))
        p = wide(modulus * cmath.exp(1j * rng.uniform(0, 6.3)))
        got, want = theta_product(x, p), theta(x, p)
        assert type(got) is wide and abs(got - want) < 1e-30 * abs(want)


def test_nome_is_validated_on_both_paths():
    from mpmath import mp, mpc

    with pytest.raises(ValueError):
        theta(0.5 + 0j, 1.2 + 0j)
    with mp.workdps(35), pytest.raises(ValueError):
        theta(to_wide(mpc(0.5)), to_wide(mpc(0, 1.2)))


def test_planted_coefficient_defect_fails_every_theta_identity(monkeypatch):
    build = theta_module._series_table

    def defective(p):
        log_p, f0, coeffs = build(p)
        return log_p, f0, coeffs[:-2] + [coeffs[-2] * 1.001, coeffs[-1]]  # f_2

    monkeypatch.setattr(theta_module, "_series_table", defective)
    # a table memoized by an earlier call would hide the defect
    monkeypatch.setattr(theta_module, "_memo", {})
    for identity in ("theta-inversion", "theta-quasiperiodicity", "addition-formula"):
        report = run_check(identity, trials=50, seed=1)
        assert not report.passed and report.max_rel_err > 1e-8, report
