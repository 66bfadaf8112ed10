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
or cfg is another object (by is).  Only calls with a Python complex x and p
use it: mpmath numbers on the extended-precision path compare and hash
equal to the doubles they were built from, and must never be answered
with a double-precision value.  Exact, float and Nome inputs go straight
to the product.  The memo holds at most the distinct arguments of one
parameter point.

All functions here are pure and safe for concurrent use: the memo is
replaced, never cleared, and theta reads it into a local first, so a racing
thread can only cost a hit, never return another nome's value.
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


def theta(x, p, cfg: ThetaEvalConfig = DEFAULT_CONFIG):
    """Modified Jacobi theta function theta(x; p), memoized per nome."""
    global _memo
    if type(x) is not complex or type(p) is not complex:
        return _theta_product(x, p, cfg)
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
