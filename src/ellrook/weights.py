"""Elliptic small/big weights, elliptic numbers and binomials, and the
degeneration ladder: full elliptic -> a,b;q -> a;q / 0,b;q -> plain q,
plus the homogeneous two-base family obtained by replacing q with q/fp.

Each family is an immutable value exposing the same surface:

    small_weight(k)   cell weight w(k)
    big_weight(k)     prefix weight W(k), W(0) = 1
    number(z)         elliptic number [z], satisfying [z] = [z-1] + W(z-1)
    binomial(n, k)    elliptic binomial coefficient
    scaled(i, j)      the family with a -> a*q^i, b -> b*q^j
    shifted(k)        scaled(2k, k), the substitution used throughout

The a,b;q family is FullElliptic at p = 0: it runs FullElliptic's own
formulas, where theta(x; 0) = 1 - x exactly, so exact parameters give
exact values.  The limits b -> 0 and a -> 0 and plain q are separate
closed-form families, never numeric limits of the elliptic formulas, so
each rung of the ladder has an independent side to be checked against
(the degeneration-chain identity).  Whenever a
denominator factor vanishes (modulus below 1e-300) the family raises
PoleEncountered, signalling a non-generic parameter point; samplers catch
this and redraw.  All families are pure values, safe for concurrent use.

WeightTable(fam) memoizes fam's small weights in one dict per family
object, shared by every transfer pass and placement weight on it, so a
35-digit cross-check's product check and enumeration total evaluate each
weight once.  The dict sits in the object's __dict__, outside its
dataclass fields (==, hash, fields() and replace() never see it), and
refers to nothing, so it makes no reference cycle.  It is keyed by the
object, not its value: a family over Wide numbers equals the family over
the doubles it came from, and is unhashable, as its Wide fields are.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Union

from .numeric import cpow, cpow_int, guard_denominator
from .theta import q_pochhammer, qp_shifted_multi, theta_multi


def shift_params(a, b, q, k: int):
    """The substitution (a, b) -> (a*q^{2k}, b*q^k)."""
    return a * cpow_int(q, 2 * k), b * cpow_int(q, k)


@dataclass(frozen=True)
class FullElliptic:
    """Weights built from theta quotients at parameters (a, b, q, p)."""

    a: complex
    b: complex
    q: complex
    p: complex

    tag: ClassVar[str] = "elliptic"

    def scaled(self, a_pow: int = 0, b_pow: int = 0) -> "FullElliptic":
        return FullElliptic(
            self.a * cpow_int(self.q, a_pow),
            self.b * cpow_int(self.q, b_pow),
            self.q,
            self.p,
        )

    def shifted(self, k: int) -> "FullElliptic":
        return self.scaled(2 * k, k)

    def small_weight(self, k):
        a, b, q, p = self.a, self.b, self.q, self.p
        qk = cpow(q, k)
        q2k = qk * qk
        num = theta_multi([a * q2k * q, b * qk, a * qk / (q * q * b)], p)
        den = theta_multi([a * q2k / q, b * qk * q * q, a * qk / b], p)
        return q * num / guard_denominator(den)

    def big_weight(self, k):
        a, b, q, p = self.a, self.b, self.q, self.p
        qk = cpow(q, k)
        q2k = qk * qk
        num = theta_multi([a * q * q2k, b * q, b * q * q, a / (q * b), a / b], p)
        den = theta_multi([a * q, b * qk * q, b * qk * q * q, a * qk / (q * b), a * qk / b], p)
        return qk * num / guard_denominator(den)

    def number(self, z):
        a, b, q, p = self.a, self.b, self.q, self.p
        qz = cpow(q, z)
        num = theta_multi([qz, a * qz, b * q * q, a / b], p)
        den = theta_multi([q, a * q, b * qz * q, a * qz / (q * b)], p)
        return num / guard_denominator(den)

    def binomial(self, n: int, k: int):
        if k < 0 or k > n:
            return 0
        a, b, q, p = self.a, self.b, self.q, self.p
        qk = cpow_int(q, k)
        m = n - k
        num = qp_shifted_multi([q * qk, a * q * qk, b * q * qk, a * q / (qk * b)], q, p, m)
        den = qp_shifted_multi([q, a * q, b * q * qk * qk, a * q / b], q, p, m)
        return num / guard_denominator(den)


@dataclass(frozen=True)
class ABq:
    """The p = 0 degeneration with both parameters a and b kept: FullElliptic
    at p = 0, where theta(x; 0) = 1 - x exactly.  Its four weight methods are
    FullElliptic's own functions; it is a class of its own, not a subclass,
    so isinstance(fam, FullElliptic) stays a full-elliptic test."""

    a: complex
    b: complex
    q: complex

    tag: ClassVar[str] = "abq"
    p: ClassVar[int] = 0

    def scaled(self, a_pow: int = 0, b_pow: int = 0) -> "ABq":
        return ABq(self.a * cpow_int(self.q, a_pow), self.b * cpow_int(self.q, b_pow), self.q)

    def shifted(self, k: int) -> "ABq":
        return self.scaled(2 * k, k)

    small_weight = FullElliptic.small_weight
    big_weight = FullElliptic.big_weight
    number = FullElliptic.number
    binomial = FullElliptic.binomial


@dataclass(frozen=True)
class Aq:
    """The b -> 0 limit of the a,b;q family."""

    a: complex
    q: complex

    tag: ClassVar[str] = "aq"

    def scaled(self, a_pow: int = 0, b_pow: int = 0) -> "Aq":
        return Aq(self.a * cpow_int(self.q, a_pow), self.q)

    def shifted(self, k: int) -> "Aq":
        return self.scaled(2 * k, k)

    def small_weight(self, k):
        a, q = self.a, self.q
        q2k = cpow(q, k) ** 2
        return (1 - a * q2k * q) / guard_denominator((1 - a * q2k / q) * q)

    def big_weight(self, k):
        a, q = self.a, self.q
        qk = cpow(q, k)
        return (1 - a * qk * qk * q) / guard_denominator((1 - a * q) * qk)

    def number(self, z):
        a, q = self.a, self.q
        qz = cpow(q, z)
        num = (1 - qz) * (1 - a * qz) * q
        return num / guard_denominator((1 - q) * (1 - a * q) * qz)

    def binomial(self, n: int, k: int):
        if k < 0 or k > n:
            return 0
        a, q = self.a, self.q
        qk = cpow_int(q, k)
        m = n - k
        num = q_pochhammer(q * qk, q, m) * q_pochhammer(a * q * qk, q, m)
        den = q_pochhammer(q, q, m) * q_pochhammer(a * q, q, m)
        return num * cpow_int(q, k * (k - n)) / guard_denominator(den)


@dataclass(frozen=True)
class ZeroBq:
    """The a -> 0 limit of the a,b;q family."""

    b: complex
    q: complex

    tag: ClassVar[str] = "0bq"

    def scaled(self, a_pow: int = 0, b_pow: int = 0) -> "ZeroBq":
        return ZeroBq(self.b * cpow_int(self.q, b_pow), self.q)

    def shifted(self, k: int) -> "ZeroBq":
        return self.scaled(2 * k, k)

    def small_weight(self, k):
        b, q = self.b, self.q
        qk = cpow(q, k)
        return q * (1 - b * qk) / guard_denominator(1 - b * qk * q * q)

    def big_weight(self, k):
        b, q = self.b, self.q
        qk = cpow(q, k)
        num = (1 - b * q) * (1 - b * q * q)
        return qk * num / guard_denominator((1 - b * qk * q) * (1 - b * qk * q * q))

    def number(self, z):
        b, q = self.b, self.q
        qz = cpow(q, z)
        num = (1 - qz) * (1 - b * q * q)
        return num / guard_denominator((1 - q) * (1 - b * qz * q))

    def binomial(self, n: int, k: int):
        if k < 0 or k > n:
            return 0
        b, q = self.b, self.q
        qk = cpow_int(q, k)
        m = n - k
        num = q_pochhammer(q * qk, q, m) * q_pochhammer(b * q * qk, q, m)
        den = q_pochhammer(q, q, m) * q_pochhammer(b * q * qk * qk, q, m)
        return num / guard_denominator(den)


@dataclass(frozen=True)
class PlainQ:
    """The familiar q-weights: w(k) = q, W(k) = q^k.

    q may be an exact Fraction or int, in which case every value at integer
    arguments is exact; q = 1 gives the trivial weights used for counting.
    """

    q: object

    tag: ClassVar[str] = "q"

    def scaled(self, a_pow: int = 0, b_pow: int = 0) -> "PlainQ":
        return self

    def shifted(self, k: int) -> "PlainQ":
        return self

    def small_weight(self, k):
        return self.q

    def big_weight(self, k):
        return _qpow(self.q, k)

    def number(self, z):
        return q_number(self.q, z)

    def binomial(self, n: int, k: int):
        return q_binomial(self.q, n, k)


@dataclass(frozen=True)
class FrakPQ:
    """Homogeneous two-base specialization: p = 0 with q replaced by q/fp.

    small_weight and number use the homogeneous closed forms in fp and q;
    big_weight and binomial delegate to the equivalent ABq family at base
    q/fp (the two presentations agree identically).
    """

    a: complex
    b: complex
    fp: complex
    q: complex

    tag: ClassVar[str] = "pq"

    def _delegate(self) -> ABq:
        return ABq(self.a, self.b, self.q / self.fp)

    def scaled(self, a_pow: int = 0, b_pow: int = 0) -> "FrakPQ":
        base = self.q / self.fp
        return FrakPQ(
            self.a * cpow_int(base, a_pow), self.b * cpow_int(base, b_pow), self.fp, self.q
        )

    def shifted(self, k: int) -> "FrakPQ":
        return self.scaled(2 * k, k)

    def small_weight(self, k):
        a, b, fp, q = self.a, self.b, self.fp, self.q
        fpk = cpow(fp, k)
        qk = cpow(q, k)
        fp2k = fpk * fpk
        q2k = qk * qk
        num = (fp2k * fp - a * q2k * q) * (fpk - b * qk) * (b * fpk / (fp * fp) - a * qk / (q * q))
        den = (fp2k / fp - a * q2k / q) * (fpk * fp * fp - b * qk * q * q) * (b * fpk - a * qk)
        return fp * q * num / guard_denominator(den)

    def big_weight(self, k):
        return self._delegate().big_weight(k)

    def number(self, z):
        a, b, fp, q = self.a, self.b, self.fp, self.q
        fpz = cpow(fp, z)
        qz = cpow(q, z)
        num = (fpz - qz) * (fpz - a * qz) * (fp * fp - b * q * q) * (b - a)
        den = (fp - q) * (fp - a * q) * (fpz * fp - b * qz * q) * (b * fpz / fp - a * qz / q)
        return num / guard_denominator(den)

    def binomial(self, n: int, k: int):
        return self._delegate().binomial(n, k)


WeightFamily = Union[FullElliptic, ABq, Aq, ZeroBq, PlainQ, FrakPQ]


def _qpow(q, k):
    """q**k allowing exact bases; integer k stays exact."""
    if isinstance(k, int):
        if isinstance(q, (int, Fraction)):
            if q == 1:
                return 1
            if k < 0:
                return Fraction(1) / (Fraction(q) ** (-k))
            return q**k
        return cpow_int(q, k)
    return cpow(complex(q), k)


# ---------------------------------------------------------------------------
# classical q-analogues, exact at exact rational q (the section-2 oracles)
# ---------------------------------------------------------------------------


def q_number(q, n):
    """[n]_q = (1 - q^n)/(1 - q); equals n when q = 1."""
    if q == 1:
        return n
    if isinstance(n, int):
        return (1 - _qpow(q, n)) / (1 - q)
    qc = complex(q)
    return (1 - cpow(qc, n)) / (1 - qc)


def q_factorial(q, n: int):
    """[n]_q! = [n]_q [n-1]_q ... [1]_q."""
    out = 1
    for j in range(1, n + 1):
        out *= q_number(q, j)
    return out


def q_falling(q, n, k: int):
    """[n]_q falling factorial of length k."""
    out = 1
    for j in range(k):
        out *= q_number(q, n - j)
    return out


def q_binomial(q, n: int, k: int):
    """Gaussian binomial coefficient; math.comb at q = 1."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    if q == 1:
        return math.comb(n, k)
    num = 1
    den = 1
    for i in range(1, k + 1):
        num *= 1 - _qpow(q, n - k + i)
        den *= 1 - _qpow(q, i)
    return num / den


# ---------------------------------------------------------------------------
# generic-point sampling
# ---------------------------------------------------------------------------

FAMILY_TAGS = ("elliptic", "abq", "aq", "0bq", "q", "pq", "trivial")


def _polar(rng: random.Random, lo: float, hi: float) -> complex:
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * phi)


def _nonreal_phase(rng: random.Random) -> float:
    # keep the phase away from 0 and pi so q never degenerates to a real ray
    half = rng.choice((0.0, math.pi))
    return half + rng.uniform(0.25, math.pi - 0.25)


# default modulus ranges of the generic-point sampler
A_MODULUS = (0.5, 2.0)
B_MODULUS = (0.5, 2.0)
Q_MODULUS = (0.6, 0.95)
P_MODULUS = (0.05, 0.4)
FRAK_P_MODULUS = (0.8, 1.3)
Z_REAL = (0.4, 3.2)
Z_IMAG = (-0.6, 0.6)


def random_generic_point(rng: random.Random, q_modulus=Q_MODULUS, p_modulus=P_MODULUS):
    """Sample (a, b, q, p) in the well-conditioned generic region."""
    a = _polar(rng, *A_MODULUS)
    b = _polar(rng, *B_MODULUS)
    q = rng.uniform(*q_modulus) * cmath.exp(1j * _nonreal_phase(rng))
    p = _polar(rng, *p_modulus)
    return a, b, q, p


def random_z(rng: random.Random) -> complex:
    """A complex evaluation argument for the product formulas.

    The imaginary part stays small so that |q^z| cannot blow up when the
    phase of q is large; wilder arguments only degrade conditioning.
    """
    return complex(rng.uniform(*Z_REAL), rng.uniform(*Z_IMAG))


def random_family(
    rng: random.Random, tag: str, q_modulus=Q_MODULUS, p_modulus=P_MODULUS
) -> WeightFamily:
    """Draw a random family of the requested variant at a generic point."""
    a, b, q, p = random_generic_point(rng, q_modulus, p_modulus)
    if tag == "elliptic":
        return FullElliptic(a, b, q, p)
    if tag == "abq":
        return ABq(a, b, q)
    if tag == "aq":
        return Aq(a, q)
    if tag == "0bq":
        return ZeroBq(b, q)
    if tag == "q":
        return PlainQ(q)
    if tag == "pq":
        # keep arg(q) - arg(fp) in (-pi, pi], where the principal powers satisfy
        # (q/fp)^z = q^z / fp^z, so FrakPQ and ABq(a, b, q/fp) agree at every z
        arg_q = cmath.phase(q)
        modulus = rng.uniform(*FRAK_P_MODULUS)
        arg_fp = rng.uniform(max(-math.pi, arg_q - math.pi), min(math.pi, arg_q + math.pi))
        return FrakPQ(a, b, cmath.rect(modulus, arg_fp), q)
    if tag == "trivial":
        return PlainQ(1)
    raise ValueError(f"unknown weight family tag {tag!r}")


class WeightTable:
    """The small weights w(l) of one family object, keyed by integer l, in
    the dict that every table of that object shares (see the module)."""

    __slots__ = ("fam", "_cache")

    def __init__(self, fam: WeightFamily):
        self.fam = fam
        self._cache = vars(fam).setdefault("_small_weights", {})

    def __getitem__(self, ell: int):
        try:
            return self._cache[ell]
        except KeyError:
            val = self.fam.small_weight(ell)
            self._cache[ell] = val
            return val
