import cmath
import importlib
import math
import random
import sys
import threading

import pytest

from ellrook.errors import NoConvergence, ZeroArgument
from ellrook.numeric import relative_error
from ellrook.theta import (
    DEFAULT_CONFIG,
    Nome,
    ThetaEvalConfig,
    qp_shifted_factorial,
    theta,
    theta_multi,
)

# the submodule; the package attribute ellrook.theta is the function
theta_module = importlib.import_module("ellrook.theta")


def _random_nonzero(rng):
    return rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2 * cmath.pi))


def _random_nome(rng):
    return rng.uniform(0.05, 0.4) * cmath.exp(1j * rng.uniform(0.0, 2 * cmath.pi))


def test_nome_validates_modulus():
    with pytest.raises(ValueError):
        Nome(1.2)
    assert Nome(0.3).p == 0.3


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


def test_shifted_factorial_branches():
    a, q, p = 0.7, 0.5, 0.2
    assert qp_shifted_factorial(a, q, p, 0) == 1
    assert qp_shifted_factorial(a, q, p, 1) == theta(a, p)
    # (a;q,p)_{-1} (a/q;q,p)_1 = 1
    product = qp_shifted_factorial(a, q, p, -1) * qp_shifted_factorial(a / q, q, p, 1)
    assert relative_error(product, 1) < 1e-14


def test_no_convergence_when_terms_exhausted():
    with pytest.raises(NoConvergence):
        theta(1.5, 0.999, ThetaEvalConfig(truncation_tolerance=1e-17, max_terms=5))


def test_config_validation():
    with pytest.raises(ValueError):
        ThetaEvalConfig(truncation_tolerance=0.0)
    with pytest.raises(ValueError):
        ThetaEvalConfig(max_terms=0)


def test_non_finite_argument_is_an_overflow():
    with pytest.raises(OverflowError):
        theta(complex(math.inf, 1.0), 0.2 + 0.1j)
    with pytest.raises(OverflowError):
        theta(complex(1e-320, 0.0), 0.3j)  # p/x overflows


def _bits(value: complex) -> tuple[str, str]:
    return value.real.hex(), value.imag.hex()


def test_memo_is_bit_identical_across_nomes(rng):
    # a Nome skips the memo, so theta(x, Nome(p)) is the bare product
    xs = [_random_nonzero(rng) for _ in range(20)]
    first, second = _random_nome(rng), _random_nome(rng)
    for p in (first, second, first):
        for x in xs + xs:
            assert _bits(theta(x, p)) == _bits(theta(x, Nome(p)))
        memo_p, _, values = theta_module._memo
        assert memo_p == p and list(values) == xs


def test_equal_config_gets_its_own_memo():
    x, p = 0.8 - 0.3j, 0.25 + 0.1j
    twin = ThetaEvalConfig()
    assert twin == DEFAULT_CONFIG and twin is not DEFAULT_CONFIG
    theta(x, p)
    theta(1.1 + 0.2j, p, twin)
    _, memo_cfg, values = theta_module._memo
    assert memo_cfg is twin and list(values) == [1.1 + 0.2j]
    coarse = ThetaEvalConfig(truncation_tolerance=1e-3)
    assert theta(x, p, coarse) == theta(x, Nome(p), coarse) != theta(x, p)


def test_memo_never_answers_extended_precision_calls():
    from mpmath import mp, mpc, qp

    x, p = 0.7 + 0.3j, 0.35 - 0.1j
    cfg = ThetaEvalConfig(truncation_tolerance=1e-33)
    theta(x, p, cfg)
    with mp.workdps(35):
        xm, pm = mpc(x), mpc(p)
        assert xm == x and pm == p and hash(xm) == hash(x)
        want = qp(xm, pm) * qp(pm / xm, pm)
        assert abs(theta(xm, pm, cfg) - want) / abs(want) < 1e-30


def test_memo_under_two_threads_alternating_nomes(rng):
    xs = [_random_nonzero(rng) for _ in range(30)]
    nomes = [_random_nome(rng), _random_nome(rng)]
    want = {(x, p): theta(x, Nome(p)) for x in xs for p in nomes}
    wrong = []

    def alternate(order):
        for _ in range(100):
            for p in order:
                wrong.extend((x, p) for x in xs if theta(x, p) != want[(x, p)])

    threads = [
        threading.Thread(target=alternate, args=(order,)) for order in (nomes, nomes[::-1])
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
    assert not wrong
