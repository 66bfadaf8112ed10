"""Random-point identity verification harness.

run_check drives one named identity for a number of trials, sampling
generic parameter points from a seeded generator, resampling whenever a
point fails numerically (a pole, ill-conditioning, an overflow or a zero
theta argument), and aggregating the worst relative error into a
CheckReport.  Reports are bit-reproducible given (seed, identity, board,
trials).

Each identity is one registry entry: a runner, its default trial count,
its tolerance and its parameters with their defaults (a heights board is
the parameter `board`, which has no default).  run_check resolves them
once: the spec, a heights board or key=value pairs, and its z and jump
arguments override the defaults; a key the identity does not take, a key
given twice, a negative size, a non-finite z, a missing board,
trials < 1 and a tolerance that is NaN or <= 0 are each a BadBoardSpec.
A runner reads the complete parameters once and returns one trial, which
run_check's one trial loop calls `trials` times, keeping the worst error.
Results come in three kinds.  Sides: most trials yield the two sides of
their identity (CheckEntry values or (lhs, rhs) pairs) to the one judge,
_judge, which guards each side that gives a term scale and keeps the
worst relative error.  Residuals: the trials of addition-formula and
matrix-inverse return their own residual over the largest term.
Counts: the exact counting checks (bijection-*, degeneration-q) return
their mismatches over the whole run instead of a trial, and the counting
bijections, which enumerate once, take no trial count but 1; with tolerance
0.5, passed still means max_rel_err < tolerance.  Runner factories serve whole
groups: _product, _recursion (special.RECURSIONS), _closed_form (the Lah
and Abel closed forms) and _bijection (the five counting bijections).
Parameters that leave no value to compare are a BadBoardSpec, never a PASS.
"""

from __future__ import annotations

import cmath
import json
import random
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from functools import cache, partial

from . import biject, files, jattack, rook, special
from . import weights as weights_defaults
from .boards import SkylineBoard, file_placements, j_rook_placements, rook_placements
from .errors import (
    BadBoardSpec,
    IllConditioned,
    PoleEncountered,
    ResamplesExhausted,
    UnknownIdentity,
    ZeroArgument,
)
from .numeric import CheckEntry, guard_condition, relative_error, worst_error
from .theta import theta, theta_product
from .weights import (
    ABq,
    Aq,
    FrakPQ,
    FullElliptic,
    PlainQ,
    ZeroBq,
    _polar,
    q_number,
    random_family,
    random_z,
)
from .wide import digits_prec, wide_type


# cancellation cap: doubles resolve ~1e-16 * MAX_CONDITION, well under the
# coarsest product-formula tolerance of 1e-8
MAX_CONDITION = 1e6


# the fresh points a trial may draw before run_check gives up
MAX_RESAMPLES = 50


@dataclass(frozen=True)
class SamplerConfig:
    """Modulus ranges of q and p for the generic-point sampler."""

    q_modulus: tuple = weights_defaults.Q_MODULUS
    p_modulus: tuple = weights_defaults.P_MODULUS

    def __post_init__(self):
        if not 0 < self.q_modulus[0] <= self.q_modulus[1] < 1:
            raise ValueError("q modulus range must stay inside (0, 1)")
        if not 0 <= self.p_modulus[0] <= self.p_modulus[1] < 1:
            raise ValueError("p modulus range must stay inside [0, 1)")


@dataclass(slots=True)
class CheckReport:
    identity_name: str
    board: str
    family: str
    trials: int
    max_rel_err: float
    resamples: int
    seed: int
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def parse_board_spec(text: str | None):
    """Parse either a heights literal "0,2,3,5,5" or "n=5,r=2"-style params."""
    if text is None or text == "" or text == "-":
        return None
    if "=" in text:
        pairs = [part.split("=") for part in text.split(",")]
        try:
            params = {key.strip(): int(value) for key, value in pairs}
        except ValueError as exc:
            raise BadBoardSpec(f"bad board spec {text!r}") from exc
        if len(params) < len(pairs):
            raise BadBoardSpec(f"board spec {text!r} gives a key twice")
        return params
    return SkylineBoard.parse(text)


# a pole, a cancellation doubles cannot resolve, an overflow, or a theta
# argument that underflowed to 0 (q^z at a z of large imaginary part)
_RESAMPLED = (PoleEncountered, IllConditioned, OverflowError, ZeroArgument)


@dataclass
class _Context:
    rng: random.Random
    family_tag: str
    params: dict
    trials: int
    config: SamplerConfig
    resamples: int = 0

    def with_retry(self, attempt, tag: str | None = None):
        """Evaluate attempt(fam) at fresh random families of the requested
        variant (or of variant tag, for an identity that holds only in one)
        until one is usable; each numeric failure of _RESAMPLED counts as a
        resample."""
        cfg = self.config
        for _ in range(MAX_RESAMPLES + 1):
            fam = random_family(self.rng, tag or self.family_tag, cfg.q_modulus, cfg.p_modulus)
            try:
                return attempt(fam)
            except _RESAMPLED as exc:
                self.resamples += 1
                failure = f"{type(exc).__name__}: {exc}"
        raise ResamplesExhausted(
            f"no usable parameter point after {MAX_RESAMPLES} resamples; "
            f"the last failed with {failure}"
        )


def _judge(sides) -> float:
    """The worst relative error over sides, each judged as it is yielded,
    after guard_condition if it gives a scale.  No sides is a BadBoardSpec."""
    errors = []
    for lhs, rhs, scale in (CheckEntry(*side) for side in sides):
        if scale is not None:
            guard_condition(scale, lhs, rhs, MAX_CONDITION)
        errors.append(float(relative_error(lhs, rhs)))
    if not errors:
        raise BadBoardSpec("these parameters leave no value to compare")
    return worst_error(*errors)


def _grid(ctx: _Context, sides, tag: str | None = None):
    """One trial: the judged sides that sides(fam) yields, at a family (of
    variant tag, if given) redrawn until every side can be judged."""
    return partial(ctx.with_retry, lambda fam: _judge(sides(fam)), tag)


# --- product formulas -------------------------------------------------------


def _product(check):
    """Runner for a factorization whose sides check(board, fam, z) returns."""

    def run(ctx: _Context):
        board, z_given = ctx.params["board"], ctx.params["z"]

        def sides(fam):
            yield check(board, fam, z_given if z_given is not None else random_z(ctx.rng))

        return _grid(ctx, sides)

    return run


# the precision of enumeration cross-checks, 35 decimal digits
_PRECISE = wide_type(digits_prec(35))


def wide_family(fam):
    """fam with its parameters converted to the Wide type of 35 decimal
    digits.

    The weighted sums over deep board extensions cancel catastrophically in
    doubles, so enumeration cross-checks run at extended precision; the
    generic family code evaluates unchanged over Wide values, whose theta
    truncates at their precision.  A PlainQ at an exact q is returned as it is.
    """
    if isinstance(fam, PlainQ) and isinstance(fam.q, (int, Fraction)):
        return fam
    return replace(fam, **{f.name: _PRECISE(getattr(fam, f.name)) for f in fields(fam)})


def _run_product_jump(ctx: _Context):
    board, jump, z_given = ctx.params["board"], ctx.params["J"], ctx.params["z"]

    def sides(fam):
        z = z_given if z_given is not None else random_z(ctx.rng)
        yield jattack.jump_product_check(board, jump, fam, z)
        if isinstance(z, int) and z >= jump * board.n:
            # the enumeration cross-check, at 35 digits
            precise = wide_family(fam)
            entry = jattack.jump_product_check(board, jump, precise, z)
            total = jattack.jump_enumeration_total(board, jump, z, precise)
            yield total, entry.lhs
            yield total, entry.rhs

    return _grid(ctx, sides)


def _run_max_identity(ctx: _Context):
    board, depth = ctx.params["board"], ctx.params["z"]
    if depth is not None and not (isinstance(depth, int) and depth >= 0):
        raise BadBoardSpec(f"max-identity needs a depth z that is an integer >= 0, not {depth}")

    def sides(fam):
        k = ctx.rng.randrange(0, 3) if depth is None else depth
        yield rook.max_identity_check(board, fam, k)

    return _grid(ctx, sides)


# --- recursions --------------------------------------------------------------


def _board_recursion(row_via_recursion, enumerated_row):
    """Runner for a board's recursion: its row of numbers against the
    enumerated row at each k, both built once per trial."""

    def run(ctx: _Context):
        board = ctx.params["board"]

        def sides(fam):
            row = row_via_recursion(board, fam)
            enumerated = enumerated_row(board, fam)
            for k in range(board.n + 1):
                yield row.get(k, 0), enumerated.get(k, 0)

        return _grid(ctx, sides)

    return run


def _run_recursion_binomial(ctx: _Context):
    n_max = ctx.params["n"]

    def sides(fam):
        for n in range(n_max + 1):
            for k in range(n + 2):
                lhs = fam.binomial(n + 1, k)
                rhs = fam.binomial(n, k)
                if k >= 1:
                    w = fam.scaled(k - 1, 2 * k - 2).big_weight(n + 1 - k)
                    rhs = rhs + fam.binomial(n, k - 1) * w
                yield lhs, rhs

    return _grid(ctx, sides)


def _recursion(name: str):
    """Runner for the recursion of special.RECURSIONS[name], one step at a
    time: each enumerated S(n+1, k) against the recursion's right-hand side
    over the enumerated S(n, .), from the seed row to n = `n`.  Each row
    S(n, .) is enumerated once per trial."""
    spec = special.RECURSIONS[name]

    def run(ctx: _Context):
        params = dict(ctx.params)
        n_max = params.pop("n")
        first_k = spec.first_k(**params)

        def sides(fam):
            row = cache(partial(spec.row, fam, **params))
            for n in range(spec.seed(**params), n_max):
                for k in range(first_k, n + 2):
                    lhs = row(n + 1).get(k, 0)
                    rhs = spec.same(fam, n, k, **params) * row(n).get(k, 0)
                    if k >= 1:
                        rhs = rhs + spec.below(fam, n, k, **params) * row(n).get(k - 1, 0)
                    yield lhs, rhs

        return _grid(ctx, sides)

    return run


# --- closed forms -------------------------------------------------------------


def _run_closed_form_rect_aq(ctx: _Context):
    board = ctx.params["board"]
    heights = set(board.heights)
    if len(heights) != 1:
        raise BadBoardSpec("closed-form-rect-aq needs a rectangular board")
    m = heights.pop()
    ell = board.n

    def sides(fam):
        row = rook.rook_row(board, fam)
        for k in range(min(ell, m) + 1):
            yield row.get(k, 0), rook.rect_rook_number_aq(ell, m, k, fam.a, fam.q)

    return _grid(ctx, sides, "aq")


def _closed_form(row, closed, tag: str | None = None):
    """Runner comparing row(n, fam, **params).get(k) with closed(n, k, fam,
    **params) for n = max(r, 1), ..., `n` and k = r, ..., n, at a family of
    variant tag.  params are the identity's parameters but `n`; the plain
    forms, which take no r, are the r = 1 cases."""

    def run(ctx: _Context):
        params = dict(ctx.params)
        n_max = params.pop("n")
        r = params.get("r", 1)

        def sides(fam):
            for n in range(max(r, 1), n_max + 1):
                values = row(n, fam, **params)
                for k in range(r, n + 1):
                    yield values.get(k, 0), closed(n, k, fam, **params)

        return _grid(ctx, sides, tag)

    return run


# the Lah closed forms at a family's a and q
def _lah_aq(n, k, fam):
    return special.lah_aq_closed(n, k, fam.a, fam.q)


def _lah_r_aq(n, k, fam, r):
    return special.lah_r_aq_closed(n, k, r, fam.a, fam.q)


def _lah_r_q(n, k, fam, r):
    return special.lah_r_q_closed(n, k, r, fam.q)


_lah_closed_form = partial(_closed_form, special.lah_row)
_abel_closed_form = _closed_form(special.abel_row, special.abel_closed)


def _run_closed_form_stirling2_small_k(ctx: _Context):
    n_max = ctx.params["n"]

    def sides(fam):
        for n in range(1, n_max + 1):
            row = special.stirling2_row(n, fam)
            for k in range(min(n, 3) + 1):
                yield row.get(k, 0), special.stirling2_small_k(n, k, fam)

    return _grid(ctx, sides)


# --- degenerations ------------------------------------------------------------


def _run_degeneration_chain(ctx: _Context):
    """Each rung of the degeneration ladder at a vanishing parameter t, the
    drawn p times 1e-16, against the family it tends to: FullElliptic at
    nome t against ABq, ABq at b = t against Aq and at a = t against
    ZeroBq, and ZeroBq at b = t against PlainQ.  A trial compares one
    weight method, drawn with its argument, on all four rungs."""

    def sides(fam):
        a, b, q, t = fam.a, fam.b, fam.q, fam.p * 1e-16
        k = ctx.rng.randrange(-4, 5)
        method, args = ctx.rng.choice(
            (
                ("small_weight", (k,)),
                ("big_weight", (k,)),
                ("number", (k + 2,)),
                ("binomial", (4, 2)),
            )
        )
        rungs = (
            (FullElliptic(a, b, q, t), ABq(a, b, q)),
            (ABq(a, t, q), Aq(a, q)),
            (ABq(t, b, q), ZeroBq(b, q)),
            (ZeroBq(t, q), PlainQ(q)),
        )
        for near, limit in rungs:
            yield getattr(near, method)(*args), getattr(limit, method)(*args)

    return _grid(ctx, sides, "elliptic")


def _run_degeneration_q(ctx: _Context) -> float:
    board = ctx.params["board"]
    n = board.n
    mismatches = 0
    degree = board.area + n + 1
    values = [Fraction(num, den) for num, den in ((2, 3), (3, 5), (5, 7), (7, 4), (9, 2))]
    while len(values) < max(ctx.trials, degree + 1):
        num = ctx.rng.randrange(2, 120)
        den = ctx.rng.randrange(2, 120)
        v = Fraction(num, den)
        if v != 1 and v not in values:
            values.append(v)
    shifts = [b - i + 1 for i, b in enumerate(board.heights, 1)]
    # every m of an [m]_q below: z + shift and z - k + 1, for z <= n + 2
    needed = range(min([1 - n, *shifts]), n + 3 + max([0, *shifts]))
    for q in values:
        fam = PlainQ(q)
        number = {m: q_number(q, m) for m in needed}
        row = rook.rook_row(board, fam)
        for z in range(n + 3):
            lhs = 1
            for shift in shifts:
                lhs *= number[z + shift]
            rhs = 0
            falling = 1  # [z]_q [z-1]_q ... [z-k+1]_q
            for k in range(n + 1):
                if k:
                    falling *= number[z - k + 1]
                rhs += row.get(n - k, 0) * falling
            if lhs != rhs:
                mismatches += 1
        # the column recursion computes the same numbers independently
        recursion = rook.rook_row_via_recursion(board, fam)
        for k in range(n + 1):
            if row.get(k, 0) != recursion.get(k, 0):
                mismatches += 1
    return float(mismatches)


def _run_degeneration_pq(ctx: _Context):
    if ctx.family_tag not in ("elliptic", "abq", "pq"):
        raise BadBoardSpec(
            f"degeneration-pq needs a family with parameters a and b "
            f"(elliptic, abq or pq), not {ctx.family_tag!r}"
        )

    def sides(fam):
        if not isinstance(fam, FrakPQ):
            fam = FrakPQ(fam.a, fam.b, 1.1 + 0.2j, fam.q)
        delegate = ABq(fam.a, fam.b, fam.q / fam.fp)
        k = ctx.rng.randrange(-3, 4)
        z = random_z(ctx.rng)
        yield fam.small_weight(k), delegate.small_weight(k)
        yield fam.number(z), delegate.number(z)
        yield fam.big_weight(k), delegate.big_weight(k)

    return _grid(ctx, sides)


def _run_ellipticity(ctx: _Context):
    def sides(fam):
        if not isinstance(fam, FullElliptic):
            raise BadBoardSpec("ellipticity is a full-elliptic statement")
        k = ctx.rng.randrange(-4, 5)
        base = fam.small_weight(k)
        shifted_a = FullElliptic(fam.a * fam.p, fam.b, fam.q, fam.p)
        shifted_b = FullElliptic(fam.a, fam.b * fam.p, fam.q, fam.p)
        yield base, shifted_a.small_weight(k)
        yield base, shifted_b.small_weight(k)

    return _grid(ctx, sides)


# --- theta substrate ----------------------------------------------------------


# one side is theta_product, the product by name: the series satisfies these
# two term by term; a trial draws x and p, no family, so nothing is resampled
def _run_theta_inversion(ctx: _Context):
    def sides():
        x = _polar(ctx.rng, 0.5, 2.0)
        p = _polar(ctx.rng, *ctx.config.p_modulus)
        yield theta(x, p), -x * theta_product(1 / x, p)

    return lambda: _judge(sides())


def _run_theta_quasiperiod(ctx: _Context):
    def sides():
        x = _polar(ctx.rng, 0.5, 2.0)
        p = _polar(ctx.rng, *ctx.config.p_modulus)
        yield theta_product(p * x, p), -theta(x, p) / x

    return lambda: _judge(sides())


def _run_addition_formula(ctx: _Context):
    def trial():
        x, y, u, v = (_polar(ctx.rng, 0.5, 2.0) for _ in range(4))
        p = _polar(ctx.rng, *ctx.config.p_modulus)
        t1 = theta(x * y, p) * theta(x / y, p) * theta(u * v, p) * theta(u / v, p)
        t2 = theta(x * v, p) * theta(x / v, p) * theta(u * y, p) * theta(u / y, p)
        t3 = (u / y) * theta(y * v, p) * theta(y / v, p) * theta(x * u, p) * theta(x / u, p)
        scale = max(abs(t1), abs(t2), abs(t3), 1e-30)
        return abs(t1 - t2 - t3) / scale

    return trial


# --- bijections (exact counting) ---------------------------------------------


def _bijection(domain, forward, inverse, blocks, codomain, count=None):
    """Runner for a bijection from placements onto a set of objects,
    judged over the whole run.  For k = 0, ..., n each placement of
    domain(n - k), a tuple of cells in column order, is mapped to
    forward(cells); the image must have blocks(image) == k and map back to
    the same tuple under inverse, the images must be distinct and make up
    codomain(), and if count is given there must be count(k) of them.
    Every callable but blocks takes the identity's parameters as keywords.
    The result is the number of mismatches, from one enumeration."""

    def run(ctx: _Context) -> float:
        if ctx.trials != 1:
            raise BadBoardSpec(f"a counting check runs once: trials must be 1, not {ctx.trials}")
        params = ctx.params
        mismatches = 0
        images = set()
        total = 0
        for k in range(params["n"] + 1):
            placements = 0
            for cells in domain(params["n"] - k, **params):
                image = forward(cells, **params)
                if blocks(image) != k or inverse(image, **params) != cells:
                    mismatches += 1
                images.add(image)
                placements += 1
            if count is not None and placements != count(k, **params):
                mismatches += 1
            total += placements
        if images != set(codomain(**params)) or total != len(images):
            mismatches += 1
        return float(mismatches)

    return run


def _run_bijection_rg_weight(ctx: _Context):
    n, offset, jump = ctx.params["n"], ctx.params["I"], ctx.params["J"]

    def sides(fam):
        for k in range(n + 1):
            for gamma in jattack.enumerate_rg_words(offset, jump, n, k):
                yield jattack.rg_word_weight_identity(gamma, fam)

    return _grid(ctx, sides)


def _run_matrix_inverse(ctx: _Context):
    n_max = ctx.params["n"]

    def attempt(fam):
        big_s = {}
        small_s = {}
        for n in range(n_max + 1):
            second = jattack.gen_stirling2_row(0, 1, n, fam)
            first = jattack.gen_stirling1_row(0, 1, n, fam)
            for k in range(n + 1):
                normalization = jattack.gen_stirling2_normalization(0, 1, k, fam)
                big_s[(n, k)] = second.get(k, 0) / normalization
                small_s[(n, k)] = (-1) ** (n - k) * first.get(k, 0)
        err = 0.0
        for n in range(n_max + 1):
            for target in range(n + 1):
                terms = [big_s[(n, k)] * small_s[(k, target)] for k in range(target, n + 1)]
                total = sum(terms)
                want = 1 if target == n else 0
                scale = max(1.0, max(abs(t) for t in terms))
                err = worst_error(err, abs(total - want) / scale)
        return err

    return partial(ctx.with_retry, attempt)


# --- registry -----------------------------------------------------------------

# the counting bijections, each with its parameters; each map is looked up on
# its module at the call
_BIJECTIONS = {
    "bijection-partition": (
        _bijection(
            lambda rooks, n: rook_placements(special.staircase(n).heights, rooks),
            lambda cells, n: biject.rooks_to_partition(cells, n),
            lambda part, n: biject.partition_to_rooks(part),
            len,
            lambda n: biject.set_partitions(n),
        ),
        {"n": 5},
    ),
    "bijection-cycles": (
        _bijection(
            lambda rooks, n, r: file_placements(special.staircase(n, r).heights, rooks),
            lambda cells, n, r: biject.file_to_cycles(cells, n),
            lambda perm, n, r: biject.cycles_to_file(perm),
            lambda perm: len(perm.cycles),
            lambda n, r: biject.restricted_cycle_structures(n, r),
        ),
        {"n": 5, "r": 1},
    ),
    "bijection-tubes": (
        _bijection(
            lambda rooks, n, r: rook_placements(special.lah_board(n, r).heights, rooks),
            lambda cells, n, r: biject.rooks_to_tubes(cells, n, r),
            lambda tubes, n, r: biject.tubes_to_rooks(tubes, n, r),
            lambda tubes: len(tubes.tubes),
            lambda n, r: set().union(*(biject.tube_placements(n, k, r) for k in range(r, n + 1))),
            lambda k, n, r: special.classical_lah_r(n, k, r),
        ),
        {"n": 4, "r": 2},
    ),
    "bijection-abel": (
        _bijection(
            lambda rooks, n, r, m: file_placements(special.abel_board(n, r, m).heights, rooks),
            lambda cells, n, r, m: biject.file_to_forest(cells, n, m, r),
            lambda forest, n, r, m: biject.forest_to_file(forest, n, m, r),
            lambda forest: len(forest.roots),
            lambda n, r, m: biject.rooted_forests(n, m, r),
            lambda k, n, r, m: biject.abel_count_general(n if m is None else m, n, k, r),
        ),
        {"n": 5, "r": 1, "m": None},  # m = None is the height n
    ),
    "bijection-rg": (
        _bijection(
            lambda rooks, n, I, J: j_rook_placements(jattack.b_board(I, J, n).heights, J, rooks),
            lambda cells, n, I, J: jattack.phi_inverse(I, J, n, cells),
            lambda gamma, n, I, J: jattack.phi(gamma),
            lambda gamma: gamma.k,
            lambda n, I, J: (
                w for k in range(n + 1) for w in jattack.enumerate_rg_words(I, J, n, k)
            ),
        ),
        {"n": 4, "I": 1, "J": 2},
    ),
}

# the parameters of an identity on a heights board; None: the board is
# required, z is drawn at each trial
_BOARD = {"board": None}
_BOARD_Z = {"board": None, "z": None}

# name -> (runner, default trials, default tolerance, parameters with their
# defaults)
_IDENTITIES = {
    "product-rook": (_product(rook.product_formula_check), 25, 1e-8, _BOARD_Z),
    "product-file": (_product(files.file_product_check), 25, 1e-8, _BOARD_Z),
    "product-file-above": (_product(files.file_above_product_check), 25, 1e-8, _BOARD_Z),
    "product-jump": (_run_product_jump, 25, 1e-8, {**_BOARD_Z, "J": 1}),
    "max-identity": (_run_max_identity, 10, 1e-9, _BOARD_Z),  # z: the depth, drawn in 0..2
    "recursion-rook": (
        _board_recursion(rook.rook_row_via_recursion, rook.rook_row), 5, 1e-9, _BOARD
    ),
    "recursion-file": (
        _board_recursion(files.file_row_via_recursion, files.file_row), 5, 1e-9, _BOARD
    ),
    "recursion-binomial": (_run_recursion_binomial, 5, 1e-9, {"n": 5}),
    **{
        f"recursion-{name}": (_recursion(name), 5, 1e-9, {"n": 5, **spec.params})
        for name, spec in special.RECURSIONS.items()
    },
    "closed-form-rect-aq": (_run_closed_form_rect_aq, 10, 1e-9, _BOARD),
    "closed-form-lah-aq": (_lah_closed_form(_lah_aq, "aq"), 10, 1e-9, {"n": 5}),
    "closed-form-lah-r-aq": (_lah_closed_form(_lah_r_aq, "aq"), 10, 1e-9, {"n": 5, "r": 2}),
    "closed-form-lah-r-q": (_lah_closed_form(_lah_r_q, "q"), 10, 1e-9, {"n": 5, "r": 2}),
    "closed-form-abel": (_abel_closed_form, 10, 1e-9, {"n": 5}),
    "closed-form-abel-r": (_abel_closed_form, 10, 1e-9, {"n": 5, "r": 2}),
    "closed-form-abel-general": (_abel_closed_form, 10, 1e-9, {"n": 4, "m": 8, "r": 1}),
    "closed-form-stirling2-small-k": (_run_closed_form_stirling2_small_k, 10, 1e-9, {"n": 5}),
    "degeneration-chain": (_run_degeneration_chain, 50, 1e-12, {}),
    "degeneration-q": (_run_degeneration_q, 10, 0.5, _BOARD),
    "degeneration-pq": (_run_degeneration_pq, 50, 1e-10, {}),
    "ellipticity": (_run_ellipticity, 200, 1e-9, {}),
    "theta-inversion": (_run_theta_inversion, 200, 1e-10, {}),
    "theta-quasiperiodicity": (_run_theta_quasiperiod, 200, 1e-10, {}),
    "addition-formula": (_run_addition_formula, 200, 1e-10, {}),
    **{name: (runner, 1, 0.5, params) for name, (runner, params) in _BIJECTIONS.items()},
    "bijection-rg-weight": (_run_bijection_rg_weight, 3, 1e-10, {"n": 4, "I": 1, "J": 2}),
    "matrix-inverse": (_run_matrix_inverse, 3, 1e-9, {"n": 6}),
}


def identity_names() -> list[str]:
    return sorted(_IDENTITIES)


def run_check(
    identity: str,
    board: str | None = None,
    family: str = "elliptic",
    trials: int | None = None,
    tol: float | None = None,
    seed: int = 0,
    *,
    z=None,
    jump: int | None = None,
    config: SamplerConfig = SamplerConfig(),
) -> CheckReport:
    """Run one identity check and return its report.  board is a heights
    board or key=value parameters; z and jump set z and J.  Each is checked
    against the parameters the identity takes, which default the rest."""
    if identity not in _IDENTITIES:
        raise UnknownIdentity(f"unknown identity {identity!r}")
    runner, default_trials, default_tol, declared = _IDENTITIES[identity]
    trials = default_trials if trials is None else trials
    tol = default_tol if tol is None else tol
    if trials < 1:
        raise BadBoardSpec(f"trials must be at least 1, not {trials}")
    if not tol > 0:  # NaN too: no error is below it, so every verdict would be FAIL
        raise BadBoardSpec(f"the tolerance must be a number > 0, not {tol}")
    spec = parse_board_spec(board)
    given = {"board": spec} if isinstance(spec, SkylineBoard) else dict(spec or {})
    for key, value in (("z", z), ("J", jump)):
        if value is not None:
            if key in given:
                raise BadBoardSpec(f"parameter {key!r} is given twice")
            given[key] = value
    for key, value in given.items():
        if key not in declared:
            takes = ", ".join(declared) or "no parameters"
            raise BadBoardSpec(f"{identity} does not take {key!r}; it takes {takes}")
        if key not in ("board", "z") and value < 0:
            raise BadBoardSpec(f"{identity} needs {key} >= 0, not {value}")
        if key == "z" and not cmath.isfinite(value):
            raise BadBoardSpec(f"{identity} needs a finite z, not {value}")
    params = {**declared, **given}
    if "board" in params and not isinstance(params["board"], SkylineBoard):
        raise BadBoardSpec(f"{identity} needs a heights board spec")
    ctx = _Context(random.Random(seed), family, params, trials, config)
    max_rel_err = runner(ctx)
    if callable(max_rel_err):  # the trial loop: run the trial `trials` times, keep the worst
        max_rel_err = worst_error(*(max_rel_err() for _ in range(trials)))
    return CheckReport(
        identity_name=identity,
        board="" if board is None else str(board),
        family=family,
        trials=trials,
        max_rel_err=float(max_rel_err),
        resamples=ctx.resamples,
        seed=seed,
        passed=max_rel_err < tol,
    )
