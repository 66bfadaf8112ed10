"""theta(x; p) over Wide numbers, in fixed-point Python ints.

This is the one theta kernel of extended precision.  Its numbers are
(re, im) int pairs with wp fraction bits, wp being the mantissa width of
the nome's Wide type (its precision plus ellrook.wide.GUARD_BITS) and more
above |p| = 1/2.  nome_table builds the coefficients of ellrook.theta's
series for one Wide nome with 0 < |p| < 1 in that arithmetic, and series
sums the series at one argument and returns a value of the nome's type,
read straight off the fixed-point result; the series is truncated at
2^log2_tolerance(prec), which the type's precision sets, carried as its
log2 so that it never underflows.  ellrook.theta keeps one memo of these
values, and its theta_product runs the definition over Wide numbers as a
reference that no user path calls.

The series is theta(y; p) = (1 - y) T(y), T(y) = f_0 + sum_k f_k (y^k +
y^-k), on the annulus |p|^{1/2} <= |y| <= |p|^{-1/2}.  With q = |p| its
terms are |f_k y^{+-k}| <= q^{k^2/2} / ((q; q)_inf (1 - q^{k+1})), since
|(p; p)_inf| >= (q; q)_inf, and |T(y)| >= (q^{1/2}; q)_inf^2 there, since
|1 - p^j y| >= 1 - q^{j - 1/2} and |1 - p^{j+1}/y| >= 1 - q^{j + 1/2}.
The rounding and truncation errors, relative to T, scale with the terms'
size over that minimum.  Up to q = 1/2, (q; q)_inf >= 0.289 and the terms
are below 7 q^{k^2/2}.  Above it both grow with the excess
e = log (1/2; 1/2)_inf - log (q; q)_inf: 1/(q; q)_inf = e^e / 0.289, and
(q^{1/2}; q)_inf^2 >= e^{-3e} (2^{-1/2}; 1/2)_inf^2, so the ratio grows by
at most e^{4e} (checked on a grid of q in (1/2, 0.9997), the factors
1/(1 - q^{k+1}) included; 4 is tight near q = 1/2).  So the table adds
4e/ln 2 guard bits and cuts the series at 2^log2_tolerance(prec) e^{-4e}; at
q <= 1/2, e = 0 and neither changes.  e comes from Dedekind's eta:
log (q; q)_inf = t/24 - pi^2/(6t) + log(2 pi / t)/2 for q = e^-t, up to
log (r; r)_inf, r = e^{-4 pi^2/t} < 1e-24 at q >= 1/2.  A nome whose
series needs more than MAX_TERMS terms (|p| > 0.9996 at 35 digits) raises
NoConvergence.

ellrook.theta imports this module on its first call on Wide numbers, so
that a process that never makes one never loads it.
"""

from __future__ import annotations

import math

from .errors import NoConvergence, ZeroArgument
from .theta import _LOG_HALF, LOG2_TOLERANCE, MAX_TERMS, _series_coefficients, _series_size
from .wide import fixed, normalize


def log2_tolerance(prec: int) -> float:
    """log2 of the truncation at a precision of prec bits, 17 - prec: five
    decimal digits above it, and never looser than the doubles' TOLERANCE.
    A log, since 2^(17 - prec) underflows past about 1,090 bits."""
    return min(LOG2_TOLERANCE, 17 - prec)


def _log_euler(log_p: float) -> float:
    """log (|p|; |p|)_inf at |p| = e^log_p >= 1/2, by Dedekind's eta."""
    t = -log_p
    return t / 24 - math.pi**2 / (6 * t) + math.log(2 * math.pi / t) / 2


def nome_table(p):
    """(type, wp, |p|, p, 1/p, f_0, [f_N, ..., f_1]) with 1/p and f_k as
    (re, im) ints of wp fraction bits, for a Wide nome p with 0 < |p| < 1,
    which this validates; NoConvergence where the series needs more than
    MAX_TERMS terms."""
    cls = type(p)
    # |p| < 1 exactly, also where it rounds to 1 in doubles
    if p.exp >= 0 or p.re * p.re + p.im * p.im >= 1 << -2 * p.exp:
        raise ValueError(f"nome must satisfy |p| < 1, got |p| = {abs(p)}")
    abs_p = min(abs(p), math.nextafter(1.0, 0.0))
    if not abs_p:
        raise OverflowError(f"theta nome {p} out of range")
    log_p = math.log(abs_p)
    excess = _log_euler(_LOG_HALF) - _log_euler(log_p) if log_p > _LOG_HALF else 0.0
    size = _series_size(log_p, log2_tolerance(cls.prec), 4 * excess)
    if size[0] > MAX_TERMS:
        raise NoConvergence(f"theta series needs {size[0]} > {MAX_TERMS} terms (|p| = {abs_p})")
    # an error in f_k is multiplied by |y|^k <= |p|^{-k/2} in the Horner pass,
    # and by e^{4e} relative to the value
    wp = cls.bits + int((size[0] * -log_p / 2 + 4 * excess) / math.log(2))
    one = 1 << wp

    def mul(a, b):
        (ar, ai), (br, bi) = a, b
        return (ar * br - ai * bi) >> wp, (ar * bi + ai * br) >> wp

    def add(a, b):
        return a[0] + b[0], a[1] + b[1]

    def neg(a):
        return -a[0], -a[1]

    def reciprocal(a):
        norm = a[0] * a[0] + a[1] * a[1]
        return (a[0] << 2 * wp) // norm, (-a[1] << 2 * wp) // norm

    fixed_p = fixed(p, wp)
    coeffs = _series_coefficients(fixed_p, size, (one, 0), mul, add, neg, reciprocal)
    return cls, wp, abs_p, p, reciprocal(fixed_p), coeffs[0], coeffs[:0:-1]


def series(x, p, table):
    """theta(x; p) for a Wide nome p by the series of table, in wp-bit
    fixed point, as a value of p's type; x is converted to it.

    The reduction runs in the same fixed point: with x = p^m y,
    theta(x; p) = (-1)^m p^{-m(m-1)/2} y^{-m} theta(y; p).  y is formed at
    e = wp + |m| log2(1/|p|) fraction bits from the small one of x (m > 0)
    and p^-m (m < 0), of modulus about |p|^|m|, and for m > 0 as
    1 - y = (p^m - x) / p^m, whose difference is exact near the zero
    x = p^m.  The powers of p, 1/p and y are taken by binary powering over
    block-floating values of wp bits (_power), which keep their relative
    precision at any size, so a reduction costs O(log |m|) products."""
    cls, wp, abs_p, p, (qr, qi), f0, coeffs = table
    if type(x) is not cls:
        x = cls(x)
    abs_x = abs(x)
    if not (0 < abs_x < math.inf and abs_p / abs_x < math.inf):
        if not x:
            raise ZeroArgument("theta argument must be nonzero")
        # |x| or |p|/|x| beyond the double range, as on the double path
        raise OverflowError(f"theta argument {x} out of range")
    log_p = math.log(abs_p)
    m = round(math.log(abs_x) / log_p)
    one = 1 << wp
    if m:
        n = abs(m)
        e = wp + int(n * -log_p / math.log(2)) + 1
        sr, si = _fixed(_power((*fixed(p, e), e), n, wp), e)  # p^n at e fraction bits
        if m > 0:
            # 1 - y = (p^m - x) p^-m, from e to wp fraction bits
            xr, xi = fixed(x, e)
            dr, di = sr - xr, si - xi
            hr, hi, hbits = _power((qr, qi, wp), n, wp)
            shift = e + hbits - wp
            dr, di = (dr * hr - di * hi) >> shift, (dr * hi + di * hr) >> shift
            yr, yi = one - dr, -di
        else:
            xr, xi = fixed(x, wp)
            yr, yi = (xr * sr - xi * si) >> e, (xr * si + xi * sr) >> e
            dr, di = one - yr, -yi
    else:
        yr, yi = fixed(x, wp)
        dr, di = one - yr, -yi
    norm = yr * yr + yi * yi
    wr, wi = (yr << 2 * wp) // norm, (-yi << 2 * wp) // norm
    ar = ai = br = bi = 0
    for fr, fi in coeffs:
        ar, ai = ar + fr, ai + fi
        ar, ai = (ar * yr - ai * yi) >> wp, (ar * yi + ai * yr) >> wp
        br, bi = br + fr, bi + fi
        br, bi = (br * wr - bi * wi) >> wp, (br * wi + bi * wr) >> wp
    tr, ti = f0[0] + ar + br, f0[1] + ai + bi
    # theta(y) = (1 - y) T, exact with 2 wp fraction bits
    vr, vi = dr * tr - di * ti, dr * ti + di * tr
    bits = 2 * wp
    if m:
        # the scale is the product of the n factors q^j b, j = lo, ..., lo + n - 1,
        # with b = w, lo = 0 for m > 0 and b = y, lo = 1 for m < 0: c^(n/g) for
        # c = b^g q^middle, the product of its g middle factors (g = 2 for even n)
        g, lo = 2 - n % 2, 0 if m > 0 else 1
        c = _power((wr, wi, wp) if m > 0 else (yr, yi, wp), g, wp)
        middle = g * lo + g * (n - 1) // 2
        if middle:
            c = _mul(c, _power((qr, qi, wp), middle, wp), wp)
        sr, si, sbits = _power(c, n // g, wp)
        if m & 1:
            sr, si = -sr, -si
        vr, vi = vr * sr - vi * si, vr * si + vi * sr
        bits += sbits
    return normalize(cls, vr, vi, -bits)


def _mul(a, b, cap: int):
    """The product of two block-floating values, cut to cap bits."""
    ar, ai, abits = a
    br, bi, bbits = b
    re, im = ar * br - ai * bi, ar * bi + ai * br
    excess = (abs(re) | abs(im)).bit_length() - cap
    if excess > 0:
        return re >> excess, im >> excess, abits + bbits - excess
    return re, im, abits + bbits


def _power(a, n: int, cap: int):
    """a^n, n >= 1, by binary powering of block-floating values of cap bits."""
    if n == 1:
        return a
    out = None
    while True:
        if n & 1:
            out = a if out is None else _mul(out, a, cap)
        n >>= 1
        if not n:
            return out
        a = _mul(a, a, cap)


def _fixed(a, bits: int):
    """The (re, im) ints of a block-floating value at bits fraction bits."""
    re, im, shift = a[0], a[1], bits - a[2]
    if shift >= 0:
        return re << shift, im << shift
    return re >> -shift, im >> -shift
