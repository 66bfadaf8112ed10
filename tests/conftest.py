import random

import pytest

from ellrook.weights import FullElliptic, random_generic_point
from ellrook.wide import Wide, normalize, wide_type


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


def _mpf_parts(mpf_tuple) -> tuple[int, int]:
    """The (mantissa, exponent) of an mpmath real's (sign, man, exp, bc)."""
    sign, man, exp, bc = mpf_tuple
    if not man and bc:  # mpmath's inf, -inf and nan have man 0 and bc != 0
        raise OverflowError("mpmath infinity or NaN has no Wide value")
    return -man if sign else man, exp


def to_wide(value):
    """An mpmath number as the value of the Wide type of mp.prec with the
    same mantissa tuples, exactly (OverflowError for an infinity or a NaN);
    an int, float, complex or Wide number as that type converts it."""
    from mpmath import mp

    cls = wide_type(mp.prec)
    if hasattr(value, "_mpc_"):
        re, im = value._mpc_
    elif hasattr(value, "_mpf_"):
        re, im = value._mpf_, mp.zero._mpf_
    else:
        return cls(value)
    (mr, er), (mi, ei) = _mpf_parts(re), _mpf_parts(im)
    if not mi:
        ei = er
    elif not mr:
        er = ei
    low = min(er, ei)
    return normalize(cls, mr << er - low, mi << ei - low, low)


def from_wide(value):
    """A Wide value as an mpc, each part rounded to mp.prec."""
    from mpmath import mp

    return mp.mpc(mp.mpf((value.re, value.exp)), mp.mpf((value.im, value.exp)))
