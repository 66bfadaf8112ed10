"""Named elliptic special numbers as board instantiations: Stirling numbers
of both kinds, Lah and Abel numbers with their restricted refinements,
closed forms, classical oracles, and table export.

Each family has one board builder, one row function and one per-k reader.
The restriction r and the Abel height m are parameters of the family's
board, and the plain numbers are r = 1 (and m = n); a restriction with no
board raises BadBoardSpec.  Values are always computed from placement
enumeration on that board, a whole row k -> S(n, k) per board in one
transfer pass; each per-k function reads one entry of its family's row.
RECURSIONS declares the published two-term recursion of each Stirling, Lah
and generalized Stirling family once, as data: via_recursion rebuilds a
value from it through the one kernel, rook.triangle, and the harness
derives its recursion-* checks from the same entries.  For the restricted
families those recursions are only valid from n = r onward (the classical
n = r-1 seed relies on all weights being 1), so they start from the exact
base at n = r.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

from .boards import SkylineBoard
from .errors import BadBoardSpec
from .files import ROW_ONLY, file_row
from .jattack import by_blocks, gen_stirling1_row, gen_stirling2_row
from .rook import rook_row, triangle
from .theta import q_pochhammer
from .weights import PlainQ, WeightFamily, q_binomial, q_factorial, q_number

# ---------------------------------------------------------------------------
# boards: the restriction r and the Abel height m are parameters of one board
# per family, and r = 1, m = n give the plain boards
# ---------------------------------------------------------------------------


def _require_restriction(n: int, r: int, low: int = 1) -> None:
    """A restricted board exists for low <= r <= n, and at r = 1 for n = 0."""
    if not low <= r <= max(n, 1):
        raise BadBoardSpec(f"the restriction needs {low} <= r <= n, not r={r} at n={n}")


def staircase(n: int, r: int = 1) -> SkylineBoard:
    """B(0, 1, ..., n-1) with its first r columns cut to height 0."""
    _require_restriction(n, r)
    return SkylineBoard(tuple(h if h >= r else 0 for h in range(n)))


def lah_board(n: int, r: int = 1) -> SkylineBoard:
    """[n+r-1] x [n-r]."""
    _require_restriction(n, r)
    return SkylineBoard((n - r,) * (n + r - 1))


def abel_board(n: int, r: int = 1, m: int | None = None) -> SkylineBoard:
    """r empty columns then n - r columns of height m (m = n if None)."""
    _require_restriction(n, r, low=0)
    return SkylineBoard((0,) * r + (n if m is None else m,) * (n - r))


def _restricted_base(n: int, r: int) -> dict:
    """The row of an r-restricted family below n = r: S(r-1, r-1) = 1, which
    is S(0, 0) = 1 of the plain numbers at r = 1."""
    return {n: 1} if n == r - 1 else {}


# ---------------------------------------------------------------------------
# Stirling numbers of the second kind
# ---------------------------------------------------------------------------


def stirling2_row(n: int, fam: WeightFamily, k: int | None = None, r: int = 1) -> dict:
    if n < r:
        return _restricted_base(n, r)
    return by_blocks(n, k, partial(rook_row, staircase(n, r), fam))


def stirling2(n: int, k: int, fam: WeightFamily, r: int = 1):
    return stirling2_row(n, fam, k, r).get(k, 0)


def stirling2_small_k(n: int, k: int, fam: WeightFamily):
    """The published closed forms for k <= 3; no general-k formula exists."""
    if k > n:
        return 0
    if k == 0:
        return 1 if n == 0 else 0
    if k == 1:
        return 1
    if k == 2:
        return fam.number(2) ** (n - 1) - 1
    if k == 3:
        two_up = fam.scaled(2, 1).number(2)
        value = fam.number(3) ** (n - 1) - two_up * fam.number(2) ** (n - 1)
        value = value + fam.small_weight(2)
        return value / two_up
    raise ValueError("closed forms are only available for k <= 3")


def carlitz_stirling2_q(n: int, k: int, q):
    """Carlitz' explicit q-Stirling number; exact at exact rational q."""
    total = 0
    sign = 1
    for j in range(k + 1):
        term = sign * q ** (j * (j - 1) // 2) * q_binomial(q, k, j)
        total += term * q_number(q, k - j) ** n
        sign = -sign
    den = q_factorial(q, k)
    if isinstance(total, int) and isinstance(den, int):
        return Fraction(total, den)
    return total / den


def classical_stirling2_r(n: int, k: int, r: int) -> int:
    """Counting oracle: partitions of [n] into k blocks, 1..r separated."""
    if n < r:
        return 1 if n == k == r - 1 else 0
    if n == r:
        return 1 if k == r else 0
    return classical_stirling2_r(n - 1, k - 1, r) + k * classical_stirling2_r(n - 1, k, r)


# ---------------------------------------------------------------------------
# Lah numbers
# ---------------------------------------------------------------------------


def lah_row(n: int, fam: WeightFamily, k: int | None = None, r: int = 1) -> dict:
    """Lah numbers, with the defining parameter shift of the restricted ones."""
    if n < r:
        return _restricted_base(n, r)
    return by_blocks(n, k, partial(rook_row, lah_board(n, r), fam.shifted(1 - r)))


def lah(n: int, k: int, fam: WeightFamily, r: int = 1):
    return lah_row(n, fam, k, r).get(k, 0)


def lah_aq_closed(n: int, k: int, a, q):
    """Closed form of the a;q Lah number."""
    if k < 1 or k > n:
        return 0 if n else (1 if k == 0 else 0)
    exp = k * (k - 1) // 2 - n * (n - 1) // 2 - n * (k - 1)
    value = q**exp * q_binomial(q, n, k) * q_factorial(q, n - 1) / q_factorial(q, k - 1)
    value *= q_pochhammer(a * q ** (k - n + 1), q, n + k)
    den = q_pochhammer(a * q ** (3 - 2 * n), q * q, n) * q_pochhammer(a * q * q, q * q, k)
    return value / den


def lah_q_closed(n: int, k: int, q):
    """The q-Lah number."""
    if k < 1 or k > n:
        return 0 if n else (1 if k == 0 else 0)
    return q ** (k * (k - 1)) * q_binomial(q, n, k) * q_factorial(q, n - 1) / q_factorial(q, k - 1)


def lah_r_aq_closed(n: int, k: int, r: int, a, q):
    """Closed form of the a;q restricted Lah number."""
    if k < r or k > n:
        return 0
    exp = (
        k * (k - 1) // 2
        - n * (n - 1) // 2
        - n * (k - 1)
        + r * (r - 1)
    )
    value = q**exp * q_binomial(q, n + r - 1, k + r - 1)
    value *= q_factorial(q, n - r) / q_factorial(q, k - r)
    value *= q_pochhammer(a * q ** (1 - n + k), q, n - k)
    value *= q_pochhammer(a * q ** (1 + 2 * r), q * q, k - r)
    return value / q_pochhammer(a * q ** (3 - 2 * n), q * q, n - r)


def lah_r_q_closed(n: int, k: int, r: int, q):
    if k < r or k > n:
        return 0
    value = q ** (k * (k - 1) - r * (r - 1)) * q_binomial(q, n + r - 1, k + r - 1)
    return value * q_factorial(q, n - r) / q_factorial(q, k - r)


def classical_lah_r(n: int, k: int, r: int) -> int:
    """Counting oracle for the restricted Lah numbers."""
    if k < r or k > n:
        return 0
    return (
        math.comb(n + r - 1, k + r - 1)
        * math.factorial(n - r)
        // math.factorial(k - r)
    )


# ---------------------------------------------------------------------------
# Stirling numbers of the first kind (file numbers on staircases)
# ---------------------------------------------------------------------------


def stirling1_row(n: int, fam: WeightFamily, k: int | None = None, r: int = 1) -> dict:
    if n < r:
        return _restricted_base(n, r)
    return by_blocks(n, k, partial(file_row, staircase(n, r), fam, ROW_ONLY))


def stirling1(n: int, k: int, fam: WeightFamily, r: int = 1):
    return stirling1_row(n, fam, k, r).get(k, 0)


def classical_stirling1(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind by their recursion."""
    if n == 0:
        return 1 if k == 0 else 0
    if k < 0 or k > n:
        return 0
    return classical_stirling1(n - 1, k - 1) + (n - 1) * classical_stirling1(n - 1, k)


# ---------------------------------------------------------------------------
# Abel numbers (file numbers on Abel boards)
# ---------------------------------------------------------------------------


def abel_row(
    n: int, fam: WeightFamily, k: int | None = None, r: int = 1, m: int | None = None
) -> dict:
    return by_blocks(n, k, partial(file_row, abel_board(n, r, m), fam, ROW_ONLY))


def abel(n: int, k: int, fam: WeightFamily, r: int = 1, m: int | None = None):
    return abel_row(n, fam, k, r, m).get(k, 0)


def abel_closed(n: int, k: int, fam: WeightFamily, r: int = 1, m: int | None = None):
    if k < r or k > n:
        return 0
    if m is None:
        m = n
    sh = fam.shifted(-m)
    return (
        math.comb(n - r, k - r)
        * sh.big_weight(m) ** (k - r)
        * sh.number(m) ** (n - k)
    )


# ---------------------------------------------------------------------------
# two-term recursions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Recursion:
    """The two-term recursion of one special-number family, whose rows
    k -> S(n, k) = row(fam, n, **params) come from enumeration:

        S(n+1, k) = same(fam, n, k) * S(n, k) + below(fam, n, k) * S(n, k-1)

    for n >= seed(**params); the rows below the seed row are exact base
    values.  params maps each parameter of the family to its default in
    the harness, which checks k >= first_k(**params).  Every callable takes
    the family's parameters as keywords.
    """

    row: Callable
    same: Callable
    below: Callable
    params: dict = field(default_factory=dict)
    seed: Callable = lambda **params: 0
    first_k: Callable = lambda **params: 0

    def value(self, fam: WeightFamily, n: int, k: int, **params):
        """The enumerated S(n, k)."""
        return self.row(fam, n, **params).get(k, 0)


def _restricted(base: Recursion, first_k) -> Recursion:
    """The r-restricted form of base: the same row function and coefficients,
    from the exact row n = r on (the classical n = r - 1 seed holds only at
    weights 1)."""
    return replace(base, params={"r": 2}, seed=lambda r: r, first_k=first_k)


_STIRLING2 = Recursion(
    row=lambda fam, n, r=1: stirling2_row(n, fam, r=r),
    same=lambda fam, n, k, **_: fam.number(k),
    below=lambda fam, n, k, **_: fam.big_weight(k - 1),
)
_LAH = Recursion(
    row=lambda fam, n, r=1: lah_row(n, fam, r=r),
    same=lambda fam, n, k, **_: fam.shifted(-n).number(n + k),
    below=lambda fam, n, k, **_: fam.shifted(-n).big_weight(n + k - 1),
    seed=lambda: 1,
)
_STIRLING1 = Recursion(
    row=lambda fam, n, r=1: stirling1_row(n, fam, r=r),
    same=lambda fam, n, k, **_: fam.shifted(-n).number(n),
    below=lambda fam, n, k, **_: fam.shifted(-n).big_weight(n),
)

# family name -> its recursion; the harness checks each as recursion-<name>
RECURSIONS = {
    "stirling2": _STIRLING2,
    "stirling2-r": _restricted(_STIRLING2, lambda r: r - 1),
    "lah": _LAH,
    "lah-r": _restricted(_LAH, lambda r: r),
    "stirling1": _STIRLING1,
    "stirling1-r": _restricted(_STIRLING1, lambda r: r - 1),
    "gen-stirling2": Recursion(
        row=lambda fam, n, I, J: gen_stirling2_row(I, J, n, fam),
        same=lambda fam, n, k, I, J: fam.shifted(-I).number(I + k * J),
        below=lambda fam, n, k, I, J: fam.shifted(-I).big_weight(I + (k - 1) * J),
        params={"I": 0, "J": 1},
    ),
    "gen-stirling1": Recursion(
        row=lambda fam, n, I, J: gen_stirling1_row(I, J, n, fam),
        same=lambda fam, n, k, I, J: fam.shifted(-(I + n * (J - 1))).number(I + n * J),
        below=lambda fam, n, k, I, J: 1,
        params={"I": 0, "J": 1},
    ),
}


def via_recursion(name: str, n: int, k: int, fam: WeightFamily, **params):
    """S(n, k) of the named family rebuilt by its recursion from the seed row."""
    spec = RECURSIONS[name]
    seed = spec.seed(**params)
    if n < seed:
        return spec.value(fam, n, k, **params)
    row = triangle(seed, n, partial(spec.same, fam, **params), partial(spec.below, fam, **params))
    return row.get(k, 0)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

# table family -> row(n, fam, r, m), the dict k -> value
_TABLE_ROWS = {
    "stirling2": lambda n, fam, r, m: stirling2_row(n, fam),
    "stirling2r": lambda n, fam, r, m: stirling2_row(n, fam, r=r),
    "lah": lambda n, fam, r, m: lah_row(n, fam),
    "lahr": lambda n, fam, r, m: lah_row(n, fam, r=r),
    "stirling1": lambda n, fam, r, m: stirling1_row(n, fam),
    "stirling1r": lambda n, fam, r, m: stirling1_row(n, fam, r=r),
    "abel": lambda n, fam, r, m: abel_row(n, fam),
    "abelr": lambda n, fam, r, m: abel_row(n, fam, r=r),
    "abelgen": lambda n, fam, r, m: abel_row(n, fam, m=m),
    "abelgenr": lambda n, fam, r, m: abel_row(n, fam, r=r, m=m),
}
TABLE_FAMILIES = tuple(_TABLE_ROWS)


def _is_trivial(fam: WeightFamily) -> bool:
    return isinstance(fam, PlainQ) and fam.q == 1


@dataclass
class SpecialNumberTable:
    """A triangular table of one special-number family."""

    family: str
    n_max: int
    weight_tag: str
    exact: bool
    values: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls, family: str, n_max: int, fam: WeightFamily, r: int = 1, m: int = 1
    ) -> "SpecialNumberTable":
        if family not in TABLE_FAMILIES:
            raise ValueError(f"unknown table family {family!r}")
        table = cls(family, n_max, getattr(fam, "tag", "?"), _is_trivial(fam))
        row_of = _TABLE_ROWS[family]
        for n in range(n_max + 1):
            try:
                row = row_of(n, fam, r, m)
            except BadBoardSpec:
                continue  # no board of this family at n
            for k in range(n + 1):
                table.values[(n, k)] = row.get(k, 0)
        return table

    def rows(self):
        for (n, k), value in sorted(self.values.items()):
            if self.exact:
                yield {"family": self.family, "n": n, "k": k, "value": str(int(value))}
            else:
                value = complex(value)
                yield {
                    "family": self.family,
                    "n": n,
                    "k": k,
                    "re": repr(value.real),
                    "im": repr(value.imag),
                }

    def write_csv(self, path: str) -> None:
        fields = ["family", "n", "k", "value"] if self.exact else ["family", "n", "k", "re", "im"]
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            for row in self.rows():
                writer.writerow(row)

    def write_json(self, path: str) -> None:
        payload = {
            "family": self.family,
            "weight_family": self.weight_tag,
            "n_max": self.n_max,
            "entries": list(self.rows()),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
