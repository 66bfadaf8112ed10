"""Modified Jacobi theta functions and theta shifted factorials.

theta(x; p) = prod_{j>=0} (1 - p^j x)(1 - p^{j+1}/x) for x != 0, |p| < 1.

The infinite product is truncated at the first j where the factor pair is
within the configured tolerance of 1, using the a-priori bound
|p|^j * max(|x|, |p|/|x|).  The nome p = 0 takes a dedicated exact path
(theta = 1 - x) so that every q-degeneration is free of truncation error.

theta memoizes its values for one nome at a time.  Every weight at a
parameter point (a, b, q, p) is a quotient of theta values at the same p,
and most of their arguments repeat, so theta keeps the values of the last
nome and config it saw and starts an empty memo whenever p differs (by !=)
or cfg is another object (by is).  There are two such memos, never shared:
one for calls with a Python complex x and p, and one for calls on mpmath
numbers, which is also keyed by mp.prec.  mpmath numbers compare (and
mostly hash) equal to the doubles they were built from, so a shared memo
would answer an extended-precision call with a double-precision value, or
a call at 60 digits with a value computed at 35.  Exact, float and Nome
inputs without mpmath numbers go straight to the product.  Each memo holds
at most the distinct arguments of one parameter point.

Every call on mpmath numbers runs the same truncated product in
fixed-point Python ints (_theta_fixed), at mp.prec plus guard bits, with a
block-floating accumulator, and returns an mpc (an mpf for real inputs)
rounded to mp.prec.  This is the technique of mpmath's own libmp series;
at 35 digits it is about ten times faster than the product in mpc
arithmetic.  mpmath is imported only on that path.

All functions here are pure and safe for concurrent use: the memos are
replaced, never cleared, and theta reads them into a local first, so a
racing thread can only cost a hit, never return another nome's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoConvergence, ZeroArgument
from .numeric import POLE_EPS, cpow_int, guard_denominator


@dataclass(frozen=True)
class Nome:
    """The nome p of a theta function; requires |p| < 1 strictly."""

    p: complex

    def __post_init__(self):
        if abs(self.p) >= 1:
            raise ValueError(f"nome must satisfy |p| < 1, got |p| = {abs(self.p)}")


@dataclass(frozen=True)
class ThetaEvalConfig:
    truncation_tolerance: float = 1e-17
    max_terms: int = 10000

    def __post_init__(self):
        if self.truncation_tolerance <= 0:
            raise ValueError("truncation_tolerance must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_CONFIG = ThetaEvalConfig()


def _nome_value(p) -> complex:
    if isinstance(p, Nome):
        return p.p
    if abs(p) >= 1:
        raise ValueError(f"nome must satisfy |p| < 1, got |p| = {abs(p)}")
    return p


# (p, cfg, {x: theta(x; p)}) for the last complex nome theta was called with
_memo: tuple = (None, None, {})
# (p, mp.prec, cfg, {x: theta(x; p)}) for the last nome of a call on mpmath numbers
_mp_memo: tuple = (None, None, None, {})


def theta(x, p, cfg: ThetaEvalConfig = DEFAULT_CONFIG):
    """Modified Jacobi theta function theta(x; p), memoized per nome."""
    global _memo, _mp_memo
    if type(x) is complex and type(p) is complex:
        memo_p, memo_cfg, values = _memo
        if memo_p != p or memo_cfg is not cfg:
            values = {}
            _memo = (p, cfg, values)
        else:
            value = values.get(x)
            if value is not None:
                return value
        value = values[x] = _theta_product(x, p, cfg)
        return value
    if not (_is_mp(x) or _is_mp(p.p if isinstance(p, Nome) else p)):
        return _theta_product(x, p, cfg)
    from mpmath import mp

    prec = mp.prec
    memo_p, memo_prec, memo_cfg, values = _mp_memo
    if memo_cfg is not cfg or memo_prec != prec or memo_p != p:
        values = {}
        _mp_memo = (p, prec, cfg, values)
    else:
        value = values.get(x)
        if value is not None:
            return value
    value = values[x] = _theta_fixed(x, p, cfg)
    return value


def _is_mp(value) -> bool:
    """Whether value is an mpmath real or complex number."""
    return hasattr(value, "_mpc_") or hasattr(value, "_mpf_")


def _theta_product(x, p, cfg: ThetaEvalConfig):
    """theta(x; p) as its truncated product, unmemoized."""
    if x == 0:
        raise ZeroArgument("theta argument must be nonzero")
    pv = _nome_value(p)
    if pv == 0:
        return 1 - x
    abs_p = abs(pv)
    bound = max(abs(x), abs_p / abs(x))
    if bound == math.inf:
        raise OverflowError(f"theta argument {x} out of range")
    out = 1
    pj = 1
    for _ in range(cfg.max_terms):
        if bound < cfg.truncation_tolerance:
            return out
        out *= (1 - pj * x) * (1 - pj * pv / x)
        pj *= pv
        bound *= abs_p
    raise NoConvergence(
        f"theta product not converged after {cfg.max_terms} terms (|p| = {abs_p})"
    )


# guard bits of _theta_fixed over mp.prec: the rounding of a few hundred
# fixed-point operations costs at most about 10 of them
_GUARD_BITS = 20


def _theta_fixed(x, p, cfg: ThetaEvalConfig):
    """theta(x; p) over mpmath numbers, unmemoized: the truncated product of
    _theta_product in fixed-point ints, rounded to an mpc at mp.prec.

    Numbers are (re, im) int pairs with wp fraction bits, where wp adds
    guard bits and log2 max(|x|, 1/|x|) to mp.prec, so that the smaller of
    x and p/x is held to mp.prec bits.  With u = p^j x and v = p^{j+1}/x the
    factor (1 - u)(1 - v) is 1 - s + w for s = u + v and w = uv = p^{2j+1},
    so each factor steps s by p and w by p^2: three complex multiplies with
    the accumulator's.  The accumulator is block-floating, (re + i im) * 2^exp
    with a wp-bit mantissa, so a small product keeps its relative precision.
    """
    if x == 0:
        raise ZeroArgument("theta argument must be nonzero")
    pv = _nome_value(p)
    if pv == 0:
        return 1 - x
    from mpmath import mp
    from mpmath.libmp import from_man_exp, mpc_div, to_fixed

    x, pv = mp.convert(x), mp.convert(pv)
    real = type(x) is mp.mpf and type(pv) is mp.mpf
    x, pv = mp.mpc(x), mp.mpc(pv)
    abs_x, abs_p = abs(x), abs(pv)
    # the bound is a double, as on the double path: an argument beyond its
    # range is an overflow there too
    bound = float(max(abs_x, abs_p / abs_x))
    if bound == math.inf:
        raise OverflowError(f"theta argument {x} out of range")
    abs_p = float(abs_p)
    prec = mp.prec
    wp = prec + _GUARD_BITS + abs(mp.mag(abs_x))
    one = 1 << wp
    xr, xi = x._mpc_
    vr, vi = mpc_div(pv._mpc_, x._mpc_, wp, "n")
    pr, pi = (to_fixed(part, wp) for part in pv._mpc_)
    sr = to_fixed(xr, wp) + to_fixed(vr, wp)
    si = to_fixed(xi, wp) + to_fixed(vi, wp)
    wr, wi = pr, pi
    p2r, p2i = (pr * pr - pi * pi) >> wp, (2 * pr * pi) >> wp
    ar, ai, exp = 1, 0, 0
    tolerance = cfg.truncation_tolerance
    for _ in range(cfg.max_terms):
        if bound < tolerance:
            re = from_man_exp(ar, exp, prec, "n")
            if real:
                return mp.make_mpf(re)
            return mp.make_mpc((re, from_man_exp(ai, exp, prec, "n")))
        hr, hi = one - sr + wr, wi - si
        ar, ai = ar * hr - ai * hi, ar * hi + ai * hr
        exp -= wp
        shift = max(ar.bit_length(), ai.bit_length()) - wp
        if shift > 0:
            ar >>= shift
            ai >>= shift
            exp += shift
        sr, si = (sr * pr - si * pi) >> wp, (sr * pi + si * pr) >> wp
        wr, wi = (wr * p2r - wi * p2i) >> wp, (wr * p2i + wi * p2r) >> wp
        bound *= abs_p
    raise NoConvergence(
        f"theta product not converged after {cfg.max_terms} terms (|p| = {abs_p})"
    )


def theta_multi(xs, p, cfg: ThetaEvalConfig = DEFAULT_CONFIG):
    """Product of theta over a list of arguments; empty list gives 1."""
    out = 1
    for x in xs:
        out *= theta(x, p, cfg)
    return out


def qp_shifted_factorial(a, q, p, n: int, cfg: ThetaEvalConfig = DEFAULT_CONFIG):
    """Theta shifted factorial (a; q, p)_n, with the usual three branches."""
    if n == 0:
        return 1
    if n > 0:
        out = 1
        for k in range(n):
            out *= theta(a * cpow_int(q, k), p, cfg)
        return out
    den = 1
    for k in range(-n):
        den *= theta(a * cpow_int(q, n + k), p, cfg)
    return 1 / guard_denominator(den)


def qp_shifted_multi(xs, q, p, n: int, cfg: ThetaEvalConfig = DEFAULT_CONFIG):
    """Product of (x; q, p)_n over a list of leading arguments."""
    out = 1
    for x in xs:
        out *= qp_shifted_factorial(x, q, p, n, cfg)
    return out


def q_pochhammer(a, q, n: int):
    """(a; q)_n = prod_{i=0}^{n-1} (1 - a q^i); exact for exact inputs."""
    if n < 0:
        den = q_pochhammer(a * cpow_int(q, n), q, -n)
        if abs(den) < POLE_EPS:
            raise ZeroArgument("q_pochhammer reciprocal factor vanished")
        return 1 / den
    out = 1 - a * 0  # unit in the arithmetic of a
    power = out
    for i in range(n):
        out *= 1 - a * power
        power *= q
    return out
