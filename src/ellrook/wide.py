"""Complex numbers of extended precision in Python ints.

A Wide value is (re + i im) 2^exp with re and im Python ints.  Each Wide
type has one precision, prec bits, like mpmath's mp.prec, and its values
carry mantissas of bits = prec + GUARD_BITS bits: the larger of |re| and
|im| has that many bits (one more where rounding a negative part down
carries), or both are 0, and then exp is ZERO_EXP, below every other
exponent.  The precision is the type's, so it never depends on
process-wide state, and wide_type(prec) returns the one type of each
precision.  Every operation rounds its exact result down to the mantissa
width (toward -inf in each component).  A sum aligns its terms exactly,
so cancellation loses nothing the terms held, and errs by at most one
unit in the last place of the result; a product errs by one, a quotient
by two.

The type takes +, -, *, / with ints, floats, complex numbers and other
Wide values (a double converts exactly), unary -, ** with an int
exponent, abs (a float: 0.0 below the double range, inf above it),
complex(), and == as Python's numbers define it, so a Wide value equals
the complex, float or int of the same value.  It is unhashable: a value
that equals a double yet carries more digits would make a dict or cache
keyed by value answer one precision with the other's entry.
The constructor takes the same types, and raises TypeError on any other.
Values are immutable and safe to share between threads.

ellrook.theta sends Wide arguments to the fixed-point series of
ellrook.theta_fixed, which works on the mantissas, and the weight families,
the transfer replay and the harness run over the type as over complex.
"""

from __future__ import annotations

import math
from functools import cache

# the bits a Wide type carries beyond its precision: the rounding of a few
# hundred fixed-point operations in theta costs at most about 10 of them
GUARD_BITS = 20
# the exponent of zero, so that a zero addend is always negligible
ZERO_EXP = -(1 << 62)

_new = object.__new__
# a double's mantissa as an int: frexp's fraction times 2^53
_DOUBLE = float(1 << 53)


class Wide:
    """(re + i im) 2^exp at the precision of the type; see the module."""

    __slots__ = ("re", "im", "exp")
    prec: int  # set by wide_type, with bits = prec + GUARD_BITS
    bits: int

    def __new__(cls, value):
        parts = _parts(value)
        if parts is None:
            raise TypeError(f"cannot convert {type(value).__name__} to {cls.__name__}")
        return normalize(cls, *parts)

    def __add__(self, other):
        cls = type(self)
        if type(other) is not cls:
            if type(other) is int and not other:
                return self  # a kernel's constant 0
            other = _coerce(cls, other)
            if other is NotImplemented:
                return other
        gap = self.exp - other.exp
        if gap >= 0:
            if gap > cls.bits + 1:
                return self
            return normalize(cls, (self.re << gap) + other.re, (self.im << gap) + other.im, other.exp)
        if gap < -1 - cls.bits:
            return other
        return normalize(cls, self.re + (other.re << -gap), self.im + (other.im << -gap), self.exp)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not type(self):
            other = _coerce(type(self), other)
            if other is NotImplemented:
                return other
        return self + -other

    def __rsub__(self, other):
        other = _coerce(type(self), other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        cls = type(self)
        if type(other) is not cls:
            if type(other) is int and other == 1:
                return self  # an empty product
            other = _coerce(cls, other)
            if other is NotImplemented:
                return other
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        re, im = ar * br - ai * bi, ar * bi + ai * br
        # normalize, inlined for a product of two values, which is too wide
        shift = ((re if re >= 0 else -re) | (im if im >= 0 else -im)).bit_length() - cls.bits
        if shift <= 0:
            return normalize(cls, re, im, self.exp + other.exp)
        out = _new(cls)
        out.re, out.im, out.exp = re >> shift, im >> shift, self.exp + other.exp + shift
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        cls = type(self)
        if type(other) is not cls:
            other = _coerce(cls, other)
            if other is NotImplemented:
                return other
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        norm = br * br + bi * bi
        if not norm:
            raise ZeroDivisionError(f"{cls.__name__} division by zero")
        # the quotient of two normalized values, shifted up by bits + 2,
        # has at least bits bits
        shift = cls.bits + 2
        return normalize(
            cls,
            ((ar * br + ai * bi) << shift) // norm,
            ((ai * br - ar * bi) << shift) // norm,
            self.exp - other.exp - shift,
        )

    def __rtruediv__(self, other):
        other = _coerce(type(self), other)
        return other if other is NotImplemented else other / self

    def __neg__(self):
        out = _new(type(self))
        out.re, out.im, out.exp = -self.re, -self.im, self.exp
        return out

    def __pow__(self, n):
        if type(n) is not int:
            return NotImplemented
        if n < 0:
            return 1 / self**-n
        out, base = normalize(type(self), 1, 0, 0), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __abs__(self) -> float:
        re, im, exp = self.re, self.im, self.exp
        # a double holds 64 bits of the larger part, and an int of over 1024 bits
        # converts to no double at all
        shift = ((re if re >= 0 else -re) | (im if im >= 0 else -im)).bit_length() - 64
        if shift > 0:
            re, im, exp = re >> shift, im >> shift, exp + shift
        try:
            return math.ldexp(math.hypot(re, im), exp)
        except OverflowError:
            return math.inf

    def __complex__(self) -> complex:
        return complex(_float(self.re, self.exp), _float(self.im, self.exp))

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __eq__(self, other):
        if type(other) is type(self) and self.exp == other.exp:
            return self.re == other.re and self.im == other.im
        try:
            parts = _parts(other)
        except (OverflowError, ValueError):  # a float inf or NaN
            return False
        if parts is None:
            return NotImplemented
        re, im, exp = parts
        if not (re or im) or not (self.re or self.im):
            return not (re or im or self.re or self.im)
        gap = self.exp - exp
        if gap >= 0:
            return self.re << gap == re and self.im << gap == im
        return self.re == re << -gap and self.im == im << -gap

    def __repr__(self) -> str:
        try:
            return f"{type(self).__name__}({complex(self)!r})"
        except OverflowError:  # beyond the double range
            return f"{type(self).__name__}(({self.re} + {self.im}j) * 2**{self.exp})"


@cache
def wide_type(prec: int) -> type:
    """The Wide type of precision prec bits."""
    return type(f"Wide{prec}", (Wide,), {"__slots__": (), "prec": prec, "bits": prec + GUARD_BITS})


def digits_prec(digits: int) -> int:
    """The precision in bits of `digits` decimal digits, as mpmath sets
    mp.prec from mp.dps."""
    return max(1, round((digits + 1) * math.log2(10)))


def normalize(cls, re: int, im: int, exp: int) -> Wide:
    """The value of type cls nearest (re + i im) 2^exp from below, in each
    component."""
    top = (re if re >= 0 else -re) | (im if im >= 0 else -im)
    shift = top.bit_length() - cls.bits
    if shift > 0:
        re >>= shift
        im >>= shift
        exp += shift
    elif not top:
        exp = ZERO_EXP
    elif shift:
        re <<= -shift
        im <<= -shift
        exp += shift
    out = _new(cls)
    out.re, out.im, out.exp = re, im, exp
    return out


def fixed(value: Wide, bits: int) -> tuple[int, int]:
    """The (re, im) of value in fixed point with `bits` fraction bits,
    rounded down."""
    shift = value.exp + bits
    if shift >= 0:
        return value.re << shift, value.im << shift
    return value.re >> -shift, value.im >> -shift


def _float(m: int, exp: int) -> float:
    """m 2^exp as a float, from the 64 leading bits of m (an int of over
    1024 bits converts to no double at all)."""
    shift = (m if m >= 0 else -m).bit_length() - 64
    if shift > 0:
        m >>= shift
        exp += shift
    return math.ldexp(m, exp)


def _coerce(cls, value):
    """value as a cls value, or NotImplemented for a type Wide does not take."""
    parts = _parts(value)
    return NotImplemented if parts is None else normalize(cls, *parts)


def _parts(value):
    """The exact (re, im, exp) of an int, float, complex or Wide number, or
    None for another type; OverflowError (or ValueError) for an infinity
    (or a NaN)."""
    if isinstance(value, int):
        return value, 0, 0
    if isinstance(value, float):
        m, e = math.frexp(value)
        return int(m * _DOUBLE), 0, e - 53
    if isinstance(value, complex):
        (mr, er), (mi, ei) = math.frexp(value.real), math.frexp(value.imag)
        return _join(int(mr * _DOUBLE), er - 53, int(mi * _DOUBLE), ei - 53)
    if isinstance(value, Wide):
        return value.re, value.im, value.exp
    return None


def _join(mr: int, er: int, mi: int, ei: int) -> tuple[int, int, int]:
    """The (re, im, exp) of mr 2^er + i mi 2^ei, exactly."""
    if not mi:
        ei = er
    elif not mr:
        er = ei
    low = min(er, ei)
    return mr << er - low, mi << ei - low, low
