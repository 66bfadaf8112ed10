"""Shared numeric plumbing: complex powers, pole guards, relative error."""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import IllConditioned, PoleEncountered

# Below this modulus a denominator is treated as an exact zero.
POLE_EPS = 1e-300

# Floor used in the relative-error metric so that two near-zero sides compare
# as equal instead of dividing by zero.
REL_ERR_FLOOR = 1e-30


def cpow_int(z, k: int):
    """z**k for integer k by repeated squaring; branch-cut free."""
    if k < 0:
        w = cpow_int(z, -k)
        if abs(w) < POLE_EPS:
            raise PoleEncountered(f"zero base raised to negative power {k}")
        return 1 / w
    out = z**0 if not isinstance(z, complex) else 1
    base = z
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def cpow(z, w):
    """Power z**w: exact product path for integer w, principal branch otherwise."""
    if isinstance(w, int):
        return cpow_int(z, w)
    if isinstance(w, float) and w.is_integer():
        return cpow_int(z, int(w))
    if isinstance(w, complex) and w.imag == 0 and w.real.is_integer():
        return cpow_int(z, int(w.real))
    exponent = w * cmath.log(z)
    if not cmath.isfinite(exponent):
        # cmath.exp would raise ValueError at an infinite imaginary part
        raise OverflowError(f"{z} ** {w} out of range")
    return cmath.exp(exponent)


def guard_denominator(value):
    """Return value, raising PoleEncountered if it is numerically zero."""
    if abs(value) < POLE_EPS:
        raise PoleEncountered("denominator factor vanished (non-generic point)")
    return value


def relative_error(lhs, rhs, floor: float = REL_ERR_FLOOR) -> float:
    """|lhs - rhs| / max(|lhs|, |rhs|, floor)."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor)


def worst_error(*errors) -> float:
    """The largest of errors, 0.0 for none.  Unlike max(), a NaN anywhere
    makes the result NaN, so a non-finite error is never outvoted."""
    worst = 0.0
    for err in errors:
        if err > worst or err != err:
            worst = err
    return worst


def factor_sum(values: dict, magnitudes: dict, n: int, factor):
    """The sum over k = 0..n of values[n - k] * factor(1) * ... * factor(k),
    with the largest magnitudes[n - k] * |factor(1) * ... * factor(k)|: the
    sum side of a product check and its term scale."""
    total = 0
    prod = 1
    term_scale = 0.0
    for k in range(n + 1):
        if k:
            prod = prod * factor(k)
        term_scale = worst_error(term_scale, magnitudes.get(n - k, 0.0) * abs(prod))
        total = total + values.get(n - k, 0) * prod
    return total, term_scale


def guard_condition(term_scale, lhs, rhs, max_condition) -> None:
    """Reject evaluations that doubles cannot judge, so they are resampled.

    term_scale bounds the intermediate magnitudes, max(|lhs|, |rhs|) the
    final ones; their ratio times machine epsilon bounds the achievable
    relative error, so points beyond max_condition are rejected, as are
    points where either side or the term scale is NaN or infinite.
    """
    lhs_scale, rhs_scale = abs(lhs), abs(rhs)
    # a NaN compares False with everything, so "below inf" excludes it too
    if not (term_scale < math.inf and lhs_scale < math.inf and rhs_scale < math.inf):
        raise IllConditioned(
            f"non-finite evaluation: lhs {lhs}, rhs {rhs}, term scale {term_scale}"
        )
    result_scale = max(lhs_scale, rhs_scale, REL_ERR_FLOOR)
    if term_scale > max_condition * result_scale:
        raise IllConditioned(
            f"cancellation ratio {term_scale / result_scale:.2e} exceeds {max_condition:.1e}"
        )


class CheckEntry(NamedTuple):
    """Both sides of one identity evaluation.  scale, when given, is the
    pre-cancellation magnitude, the largest term summed into either side;
    the harness rejects a point whose scale is too large for the sides it
    cancelled to (guard_condition).  With None the sides are judged as
    they are."""

    lhs: complex
    rhs: complex
    scale: float | None = None

    @property
    def rel_err(self) -> float:
        return relative_error(self.lhs, self.rhs)
