"""Modified Jacobi theta functions and theta shifted factorials.

theta(x; p) = prod_{j>=0} (1 - p^j x)(1 - p^{j+1}/x) for x != 0, |p| < 1.

The truncated product is the definition: it stops at the first j where the
factor pair is within the tolerance of 1, by the a-priori bound
|p|^j * max(|x|, |p|/|x|).  theta_product, the product by name, runs it
for every number type theta takes, and theta runs it on exact and float
inputs and on complex doubles at |p| > 1/2; p = 0 takes an exact path
(theta = 1 - x), so that every q-degeneration is free of truncation error.

The numbers set the truncation.  Doubles, exact numbers and floats keep
the product and the series within TOLERANCE, 1e-17; Wide numbers
(ellrook.wide) of precision prec bits within min(1e-17, 2^(17 - prec)),
about 1e-31 at 35 digits.  These are the only types theta takes: at
p != 0 the product raises TypeError on any other, an mpmath number
included, rather than cut it at the doubles' tolerance.  The product
raises NoConvergence after MAX_TERMS factor pairs, which only a nome near
the unit circle reaches; so does the series over Wide numbers where it
would need more than MAX_TERMS terms.

Complex calls at 0 < |p| <= 1/2, and Wide calls at every 0 < |p| < 1,
sum the Jacobi triple product sum_n (-1)^n p^{n(n-1)/2} x^n / (p; p)_inf
instead (Gasper-Rahman, Basic Hypergeometric Series, section 11.2).
Pairing its terms n and 1 - n gives theta(y; p) =
(1 - y) (f_0 + sum_{k=1}^N f_k (y^k + y^-k)), with the zero at y = 1 an
exact factor and f_0..f_N built once per nome.  A call takes
m = round(log|x| / log|p|) and y = x p^-m, runs one Horner pass in y and
one in 1/y, and undoes the reduction by quasi-periodicity,
theta(x; p) = (-1)^m p^{m(m+1)/2} x^-m theta(y; p).  With |y| between
|p|^{1/2} and |p|^{-1/2} the k-th term is below 7 |p|^{k^2/2} at
|p| <= 1/2, so N is a dozen at most, and (p; p)_inf >= 0.289 keeps the
cancellation under 2 bits.  Above 1/2 it grows by up to e^{4e}, with
e = log (1/2; 1/2)_inf - log (|p|; |p|)_inf: 11 bits at |p| = 0.7 and 71
at 0.9, more than a double can spare, so complex doubles keep the product
there; Wide numbers pay in guard bits and terms (theta_fixed).

theta memoizes values per nome, next to the nome's table: every weight at
a parameter point is a quotient of theta values at the same p, most
arguments repeat, and the product checks evaluate many boards at the same
few points.  theta_multi, which every weight calls, reads the memo once
per call (_memo_of, the helper theta uses), not once per argument, and on
a miss stores the kernel's value itself, as theta does; where theta keeps
no memo (exact numbers, and p = 0, where the a,b;q weights run) it calls
theta_product, which takes p = 0 first.  Complex calls keep the memos of
the last 32 nomes, in a dict keyed by p (by identity, then ==) in the
order they were built; a call with a new p builds a new table, validating
the nome, starts an empty memo and drops the oldest nome past 32.  Calls
on Wide numbers keep one nome's memo, since each extended-precision check
draws its own nome, selected by p and its type, which sets the precision,
and keyed by the argument's mantissa triple (re, im, exp), since Wide
numbers are unhashable.  The two never share a memo: a Wide number
compares equal to the double it was built from, so a memo keyed by value
would answer a 35-digit call with a double, or a 60-digit call with a
35-digit value.  The Wide kernel, in fixed-point Python ints, is
ellrook.theta_fixed, which theta imports only on that path.

All functions here are pure and safe for concurrent use: the memos are
replaced, never cleared or evicted in place (a new complex nome copies the
dict of nomes and rebinds it), and theta reads them into a local first, so
a racing thread can only cost a hit or a table, never return another
nome's value.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate

from .errors import NoConvergence, ZeroArgument
from .numeric import POLE_EPS, cpow_int, guard_denominator
from .wide import Wide


# the truncation of the product and the series over doubles, exact numbers
# and floats, and its log2; Wide numbers derive theirs from their precision
# (theta_fixed.log2_tolerance)
TOLERANCE = 1e-17
LOG2_TOLERANCE = math.log2(TOLERANCE)
# the factor pairs the product may take before it raises NoConvergence
MAX_TERMS = 10000
# the types the product runs on at TOLERANCE
_PRODUCT_TYPES = (int, float, complex, Fraction)


def _valid_nome(p):
    if abs(p) >= 1:
        raise ValueError(f"nome must satisfy |p| < 1, got |p| = {abs(p)}")
    return p


# the complex nomes whose memo theta keeps
_MEMO_NOMES = 32
# {p: (series table, {x: theta(x; p)})} for the last _MEMO_NOMES complex
# nomes theta was called with, oldest first; the table is None where the
# product runs
_memo: dict = {}
# (p, series kernel, series table, {x: theta(x; p)}) for the last nonzero
# Wide nome
_wide_memo: tuple = (None, None, None, {})


def theta(x, p):
    """Modified Jacobi theta function theta(x; p), memoized per nome."""
    memo = _memo_of(x, p)
    if memo is None:
        return theta_product(x, p)
    series, table, values = memo
    key = x if series is _theta_series or not isinstance(x, Wide) else (x.re, x.im, x.exp)
    value = values.get(key)
    if value is None:
        value = values[key] = series(x, p, table)
    return value


def _memo_of(x, p):
    """(series, table, {x: theta(x; p)}) of the memo that serves theta(x,
    p), built if missing, with series(x, p, table) its kernel; None where
    theta keeps no memo."""
    global _memo, _wide_memo
    if type(x) is complex and type(p) is complex:
        memo = _memo
        entry = memo.get(p)
        if entry is not None:
            return _theta_series, entry[0], entry[1]
        table, values = _series_table(p), {}
        # a new dict, so that a racing reader never sees one mutated
        kept = [item for item in memo.items() if item[0] != p]
        memo = dict(kept[max(0, len(kept) - _MEMO_NOMES + 1) :])
        memo[p] = (table, values)
        _memo = memo
        return _theta_series, table, values
    if not isinstance(p, Wide):
        if not isinstance(x, Wide) or not p:
            return None
        p = type(x)(p)
    memo_p, series, table, values = _wide_memo
    if memo_p is not p and not (type(memo_p) is type(p) and memo_p == p):
        if not p:
            return None
        from . import theta_fixed

        series, table, values = theta_fixed.series, theta_fixed.nome_table(p), {}
        _wide_memo = (p, series, table, values)
    return series, table, values


def theta_product(x, p):
    """theta(x; p) as its truncated product, unmemoized, for ints, floats,
    complex numbers, Fractions and Wide numbers; TypeError for another
    type, once p is nonzero.  The factors past the cut multiply it by 1 + d
    with |d| below 2 cut / (1 - |p|), so over Wide numbers the cut is
    2^log2_tolerance(prec) (1 - |p|) / 2 at their precision, carried as its
    log2, which stays finite past the double range."""
    if x == 0:
        raise ZeroArgument("theta argument must be nonzero")
    if p == 0:
        return 1 - x
    wide = p if isinstance(p, Wide) else x if isinstance(x, Wide) else None
    if wide is None and not (isinstance(x, _PRODUCT_TYPES) and isinstance(p, _PRODUCT_TYPES)):
        raise TypeError(f"theta takes no ({type(x).__name__}, {type(p).__name__}) arguments")
    abs_p = abs(_valid_nome(p))
    bound = max(abs(x), abs_p / abs(x))
    if bound == math.inf:
        raise OverflowError(f"theta argument {x} out of range")
    logs = math.log2(abs_p) if abs_p else -math.inf, math.log2(bound)
    if wide is None:
        return _product(x, p, *logs, LOG2_TOLERANCE)
    from . import theta_fixed

    slack = math.log2((1 - abs_p) / 2)
    return _product(x, p, *logs, theta_fixed.log2_tolerance(wide.prec) + slack)


def _product(x, p, log_p, log_bound, log_cut):
    """The factor pairs of theta(x; p) until bound |p|^j falls below the
    cut, from the log2 of each."""
    out = 1
    pj = 1
    for _ in range(MAX_TERMS):
        if log_bound < log_cut:
            return out
        out *= (1 - pj * x) * (1 - pj * p / x)
        pj *= p
        log_bound += log_p
    raise NoConvergence(f"theta product not converged after {MAX_TERMS} terms (|p| = {2**log_p})")


# the series serves nomes with 0 < |p| <= 1/2
_LOG_HALF = math.log(0.5)
# the reduction of a double call takes powers of p and x of order
# |p|^{m^2}; beyond e^-600 the call is left to the product, which needs none
_MAX_REDUCTION_LOG = 600.0


def _series_size(log_p: float, log2_tolerance: float, log_slack: float = 0.0) -> tuple[int, int]:
    """(N, K) for the series at a nome of modulus e^log_p.  At |p| <= 1/2
    its k-th term is below 7 |p|^{k^2/2}, so the terms past N sum to less
    than 32 |p|^{(N+1)^2/2}, kept below 2^log2_tolerance e^-log_slack (which
    pays for their growth above 1/2); Euler's series for (p; p)_inf is cut
    past its K-th term, |p|^{K(3K-1)/2}, on the same rule."""
    ratio = max(2 * ((log2_tolerance - 5) * math.log(2) - log_slack) / log_p, 0.0)
    return max(1, int(math.sqrt(ratio))), int((1 + math.sqrt(1 + 12 * ratio)) / 6)


def _series_coefficients(p, size, one, mul, add, neg, reciprocal) -> list:
    """f_0, ..., f_N of the series at nome p, in the arithmetic of one, mul,
    add, neg and reciprocal."""
    n, k_max = size
    # c_j = (-1)^j p^{j(j-1)/2} for j = 1..N+2, and their tail sums d_{N+1}..d_0
    u, power, cs = one, one, []
    for j in range(1, n + 3):
        cs.append(neg(u) if j & 1 else u)
        power = mul(power, p)
        u = mul(u, power)
    tails = list(accumulate(reversed(cs), add))
    # (p; p)_inf by Euler's pentagonal series, 1 + sum_k (-1)^k g_k (1 + p^k)
    # with g_k = p^{k(3k-1)/2} = g_{k-1} p^{3k-2}
    euler, g, step, pk = one, one, p, one
    cube = mul(mul(p, p), p)
    for k in range(1, k_max + 1):
        g, step, pk = mul(g, step), mul(step, cube), mul(pk, p)
        term = mul(g, add(one, pk))
        euler = add(euler, neg(term) if k & 1 else term)
    scale = neg(reciprocal(euler))
    return [mul(d, scale) for d in tails[:0:-1]]


def _series_table(p):
    """(log|p|, f_0, [f_N, ..., f_1]) for a complex nome p, or None where
    the product runs."""
    log_p = math.log(abs(p)) if _valid_nome(p) else -math.inf
    if not -math.inf < log_p <= _LOG_HALF:
        return None
    size = _series_size(log_p, LOG2_TOLERANCE)
    coeffs = _series_coefficients(
        p, size, 1, operator.mul, operator.add, operator.neg, lambda z: 1 / z
    )
    return log_p, coeffs[0], coeffs[:0:-1]


def _theta_series(x, p, table):
    """theta(x; p) for a complex x and nome p by the series of table, or by
    the product where there is no table or the reduction leaves doubles."""
    ax = abs(x)
    if table is None or not 0 < ax < math.inf:
        return theta_product(x, p)
    log_p, f0, coeffs = table
    m = round(math.log(ax) / log_p)
    if m * m * log_p < -_MAX_REDUCTION_LOG:
        return theta_product(x, p)
    y, factor = x, 1 - x
    if m > 0:
        # p^m - x is exact near a zero x = p^m that the double p^m represents
        power = cpow_int(p, m)
        y, factor = x / power, (power - x) / power
    elif m < 0:
        y = x * cpow_int(p, -m)
        factor = 1 - y
    w = 1 / y
    a = b = 0
    for f in coeffs:
        a = (a + f) * y
        b = (b + f) * w
    value = factor * (f0 + a + b)
    if m:
        value *= cpow_int(p, m * (m + 1) >> 1)
        value = value / cpow_int(x, m) if m > 0 else value * cpow_int(x, -m)
        if m & 1:
            value = -value
    return value


def theta_multi(xs, p):
    """Product of theta over a list of arguments; empty list gives 1.  The
    memo is read once for each run of arguments of one type, and a miss
    stores the kernel's value under theta's key; where there is no memo
    theta_product runs (exact numbers, and p = 0, where it is 1 - x)."""
    out = 1
    kind = memo = None
    for x in xs:
        if type(x) is not kind:
            kind, memo = type(x), _memo_of(x, p)
            if memo is not None:
                series, table, values = memo
                wide = series is not _theta_series and isinstance(x, Wide)
        if memo is None:
            out *= theta_product(x, p)
            continue
        key = (x.re, x.im, x.exp) if wide else x
        value = values.get(key)
        if value is None:
            value = values[key] = series(x, p, table)
        out *= value
    return out


def qp_shifted_factorial(a, q, p, n: int):
    """Theta shifted factorial (a; q, p)_n, with the usual three branches."""
    if n == 0:
        return 1
    if n > 0:
        out = 1
        for k in range(n):
            out *= theta(a * cpow_int(q, k), p)
        return out
    den = 1
    for k in range(-n):
        den *= theta(a * cpow_int(q, n + k), p)
    return 1 / guard_denominator(den)


def qp_shifted_multi(xs, q, p, n: int):
    """Product of (x; q, p)_n over a list of leading arguments."""
    out = 1
    for x in xs:
        out *= qp_shifted_factorial(x, q, p, n)
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
