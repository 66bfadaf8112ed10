import random

import pytest

from ellrook.weights import FullElliptic, random_generic_point
from ellrook.wide import Wide


@pytest.fixture
def rng():
    return random.Random(20260808)


def sample_elliptic(rng) -> FullElliptic:
    a, b, q, p = random_generic_point(rng)
    return FullElliptic(a, b, q, p)


def exact_bits(value):
    """value down to its bits, for comparisons that a rounding difference
    or a zero's sign must fail: an mpmath number's mantissa tuples, a Wide
    number's type, mantissas and exponent, a double's hex digits, or the
    exact value itself."""
    if hasattr(value, "_mpc_"):
        return value._mpc_
    if isinstance(value, Wide):
        return type(value), value.re, value.im, value.exp
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return value.hex()
    return value
