"""Random-point identity verification harness.

run_check drives one named identity for a number of trials, sampling
generic parameter points from a seeded generator, resampling whenever a
point fails numerically (a pole, ill-conditioning, an overflow or a zero
theta argument), and aggregating the worst relative error into a
CheckReport.  Reports are bit-reproducible given (seed, identity, board,
trials).

Each identity is one registry entry: a runner, its default trial count and
its tolerance.  A runner reads its board and parameters once and returns
one trial: a callable that run_check's one trial loop calls `trials` times,
keeping the worst error.  The checks judged over a whole run at once (the
bijection counts and degeneration-q) return that error instead.  Runner
factories serve whole groups: _product the product formulas, _recursion
each recursion declared in special.RECURSIONS, and _closed_form the closed
forms of the Lah and Abel numbers, whose entries name only the row, the
closed form, the weight variant and the parameter defaults.  Parameters that
leave no value to compare are a BadBoardSpec, never a PASS.

Counting identities (bijection-*) are exact: max_rel_err holds the number
of mismatches and the tolerance is 0.5, so passed still means
max_rel_err < tolerance.
"""

from __future__ import annotations

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
from .numeric import relative_error, worst_error
from .theta import Nome, ThetaEvalConfig, theta
from .weights import (
    ABq,
    Aq,
    FrakPQ,
    FullElliptic,
    PlainQ,
    ZeroBq,
    _polar,
    q_falling,
    q_number,
    random_family,
    random_z,
)


# cancellation cap: doubles resolve ~1e-16 * MAX_CONDITION, well under the
# coarsest product-formula tolerance of 1e-8
MAX_CONDITION = 1e6


@dataclass(frozen=True)
class SamplerConfig:
    """Modulus ranges for the generic-point sampler plus the retry cap."""

    a_modulus: tuple = weights_defaults.A_MODULUS
    b_modulus: tuple = weights_defaults.B_MODULUS
    q_modulus: tuple = weights_defaults.Q_MODULUS
    p_modulus: tuple = weights_defaults.P_MODULUS
    z_real: tuple = weights_defaults.Z_REAL
    z_imag: tuple = weights_defaults.Z_IMAG
    max_resamples: int = 50

    def __post_init__(self):
        if not 0 < self.q_modulus[0] <= self.q_modulus[1] < 1:
            raise ValueError("q modulus range must stay inside (0, 1)")
        if not 0 <= self.p_modulus[0] <= self.p_modulus[1] < 1:
            raise ValueError("p modulus range must stay inside [0, 1)")
        if self.max_resamples < 0:
            raise ValueError("max_resamples must be nonnegative")


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
        params = {}
        try:
            for part in text.split(","):
                key, value = part.split("=")
                params[key.strip()] = int(value)
        except ValueError as exc:
            raise BadBoardSpec(f"bad board spec {text!r}") from exc
        return params
    return SkylineBoard.parse(text)


# a pole, a cancellation doubles cannot resolve, an overflow, or a theta
# argument that underflowed to 0 (q^z at a z of large imaginary part)
_RESAMPLED = (PoleEncountered, IllConditioned, OverflowError, ZeroArgument)


@dataclass
class _Context:
    rng: random.Random
    family_tag: str
    board: SkylineBoard | None
    params: dict
    trials: int
    config: SamplerConfig
    resamples: int = 0

    def require_board(self) -> SkylineBoard:
        if not isinstance(self.board, SkylineBoard):
            raise BadBoardSpec("this identity needs a heights board spec")
        return self.board

    def param(self, name: str, default=None):
        value = self.params.get(name, default)
        if value is None:
            raise BadBoardSpec(f"this identity needs parameter {name!r}")
        return value

    def draw_family(self, tag: str | None = None):
        """A family of the requested variant, or of `tag` for an identity
        that holds only in one variant."""
        cfg = self.config
        return random_family(
            self.rng,
            self.family_tag if tag is None else tag,
            cfg.a_modulus,
            cfg.b_modulus,
            cfg.q_modulus,
            cfg.p_modulus,
        )

    def draw_z(self):
        return random_z(self.rng, self.config.z_real, self.config.z_imag)

    def with_retry(self, attempt, tag: str | None = None):
        """Evaluate attempt(fam) at fresh random families (of variant tag,
        if given) until one is usable; each numeric failure of _RESAMPLED
        counts as a resample."""
        for _ in range(self.config.max_resamples + 1):
            fam = self.draw_family(tag)
            try:
                return attempt(fam)
            except _RESAMPLED as exc:
                self.resamples += 1
                failure = f"{type(exc).__name__}: {exc}"
        raise ResamplesExhausted(
            f"no usable parameter point after {self.config.max_resamples} resamples; "
            f"the last failed with {failure}"
        )


def _worst_trial(ctx: _Context, trial) -> float:
    """The trial loop: call trial() ctx.trials times, keep the worst error."""
    return worst_error(*(trial() for _ in range(ctx.trials)))


def _grid_error(pairs) -> float:
    errors = [relative_error(lhs, rhs) for lhs, rhs in pairs]
    if not errors:
        raise BadBoardSpec("these parameters leave no value to compare")
    return worst_error(*errors)


def _grid(ctx: _Context, pairs, tag: str | None = None):
    """One trial: the worst error over the (lhs, rhs) pairs that pairs(fam)
    yields, at a family (of variant tag, if given) redrawn until no pole.
    Parameters under which pairs yields nothing are a BadBoardSpec."""
    return partial(ctx.with_retry, lambda fam: _grid_error(pairs(fam)), tag)


# --- product formulas -------------------------------------------------------


def _product(check):
    """Runner for a factorization judged by check(board, fam, z, max_condition)."""

    def run(ctx: _Context):
        board = ctx.require_board()
        z_given = ctx.params.get("z")

        def attempt(fam):
            z = z_given if z_given is not None else ctx.draw_z()
            return check(board, fam, z, MAX_CONDITION).rel_err

        return partial(ctx.with_retry, attempt)

    return run


def mp_family(fam, precision: float = 1e-30):
    """Rebuild a weight family over mpmath complex numbers.

    The weighted sums over deep board extensions cancel catastrophically in
    doubles, so enumeration cross-checks run at extended precision; the
    generic family code evaluates unchanged over mpc values.  A PlainQ at an
    exact q is returned as it is.
    """
    from mpmath import mpc

    if isinstance(fam, PlainQ) and isinstance(fam.q, (int, Fraction)):
        return fam
    numbers = {f.name: mpc(getattr(fam, f.name)) for f in fields(fam) if f.name != "cfg"}
    if isinstance(fam, FullElliptic):
        numbers["cfg"] = ThetaEvalConfig(truncation_tolerance=precision)
    return replace(fam, **numbers)


def _run_product_jump(ctx: _Context):
    from mpmath import mp

    board = ctx.require_board()
    jump = ctx.param("J", 1)
    z_given = ctx.params.get("z")

    def attempt(fam):
        z = z_given if z_given is not None else ctx.draw_z()
        entry = jattack.jump_product_check(board, jump, fam, z, MAX_CONDITION)
        err = entry.rel_err
        if isinstance(z, int) and z >= jump * board.n:
            with mp.workdps(35):
                precise = mp_family(fam)
                exact_entry = jattack.jump_product_check(board, jump, precise, z)
                total = jattack.jump_enumeration_total(board, jump, z, precise)
                err = worst_error(
                    err,
                    float(relative_error(total, exact_entry.lhs)),
                    float(relative_error(total, exact_entry.rhs)),
                )
        return err

    return partial(ctx.with_retry, attempt)


def _run_max_identity(ctx: _Context):
    board = ctx.require_board()
    depth = ctx.params.get("z")

    def attempt(fam):
        k = depth if depth is not None else ctx.rng.randrange(0, 3)
        return rook.max_identity_check(board, fam, int(k), MAX_CONDITION).rel_err

    return partial(ctx.with_retry, attempt)


# --- recursions --------------------------------------------------------------


def _board_recursion(row_via_recursion, enumerated_row):
    """Runner for a board's recursion: its row of numbers against the
    enumerated row at each k, both built once per trial."""

    def run(ctx: _Context):
        board = ctx.require_board()

        def pairs(fam):
            row = row_via_recursion(board, fam)
            enumerated = enumerated_row(board, fam)
            for k in range(board.n + 1):
                yield row.get(k, 0), enumerated.get(k, 0)

        return _grid(ctx, pairs)

    return run


def _run_recursion_binomial(ctx: _Context):
    n_max = ctx.params.get("n", 5)

    def pairs(fam):
        for n in range(n_max + 1):
            for k in range(n + 2):
                lhs = fam.binomial(n + 1, k)
                rhs = fam.binomial(n, k)
                if k >= 1:
                    w = fam.scaled(k - 1, 2 * k - 2).big_weight(n + 1 - k)
                    rhs = rhs + fam.binomial(n, k - 1) * w
                yield lhs, rhs

    return _grid(ctx, pairs)


def _recursion(name: str):
    """Runner for the recursion of special.RECURSIONS[name], one step at a
    time: each enumerated S(n+1, k) against the recursion's right-hand side
    over the enumerated S(n, .), from the seed row to n = `n`.  Each row
    S(n, .) is enumerated once per trial."""
    spec = special.RECURSIONS[name]

    def run(ctx: _Context):
        n_max = ctx.params.get("n", 5)
        params = {key: ctx.param(key, default) for key, default in spec.params.items()}
        first_k = spec.first_k(**params)

        def pairs(fam):
            row = cache(partial(spec.row, fam, **params))
            for n in range(spec.seed(**params), n_max):
                for k in range(first_k, n + 2):
                    lhs = row(n + 1).get(k, 0)
                    rhs = spec.same(fam, n, k, **params) * row(n).get(k, 0)
                    if k >= 1:
                        rhs = rhs + spec.below(fam, n, k, **params) * row(n).get(k - 1, 0)
                    yield lhs, rhs

        return _grid(ctx, pairs)

    return run


# --- closed forms -------------------------------------------------------------


def _run_closed_form_rect_aq(ctx: _Context):
    board = ctx.require_board()
    heights = set(board.heights)
    if len(heights) != 1:
        raise BadBoardSpec("closed-form-rect-aq needs a rectangular board")
    m = heights.pop()
    ell = board.n

    def pairs(fam):
        row = rook.rook_row(board, fam)
        for k in range(min(ell, m) + 1):
            yield row.get(k, 0), rook.rect_rook_number_aq(ell, m, k, fam.a, fam.q)

    return _grid(ctx, pairs, "aq")


def _closed_form(row, closed, tag: str | None = None, **defaults):
    """Runner comparing row(n, fam, **params).get(k) with closed(n, k, fam,
    **params) for n = max(r, 1), ..., `n` and k = r, ..., n, at a family of
    variant tag.  defaults gives `n` and every parameter of row and closed
    with its default; r is 1 if it is not one of them."""

    def run(ctx: _Context):
        params = {key: ctx.param(key, default) for key, default in defaults.items()}
        n_max = params.pop("n")
        r = params.get("r", 1)

        def pairs(fam):
            for n in range(max(r, 1), n_max + 1):
                values = row(n, fam, **params)
                for k in range(r, n + 1):
                    yield values.get(k, 0), closed(n, k, fam, **params)

        return _grid(ctx, pairs, tag)

    return run


# the Lah closed forms at a family's a and q
def _lah_aq(n, k, fam):
    return special.lah_aq_closed(n, k, fam.a, fam.q)


def _lah_r_aq(n, k, fam, r):
    return special.lah_r_aq_closed(n, k, r, fam.a, fam.q)


def _lah_r_q(n, k, fam, r):
    return special.lah_r_q_closed(n, k, r, fam.q)


def _run_closed_form_stirling2_small_k(ctx: _Context):
    n_max = ctx.param("n", 5)

    def pairs(fam):
        for n in range(1, n_max + 1):
            row = special.stirling2_row(n, fam)
            for k in range(min(n, 3) + 1):
                yield row.get(k, 0), special.stirling2_small_k(n, k, fam)

    return _grid(ctx, pairs)


# --- degenerations ------------------------------------------------------------


def _run_degeneration_chain(ctx: _Context):
    def pairs(flat):
        a, b, q = flat.a, flat.b, flat.q
        k = ctx.rng.randrange(-4, 5)
        full = FullElliptic(a, b, q, 0)
        yield full.small_weight(k), flat.small_weight(k)
        yield full.big_weight(k), flat.big_weight(k)
        yield full.number(k + 2), flat.number(k + 2)
        yield full.binomial(4, 2), flat.binomial(4, 2)
        # hand-derived b -> 0 and a -> 0 limits of the a,b;q weights
        q2k = q ** (2 * k)
        yield Aq(a, q).small_weight(k), (1 - a * q2k * q) / ((1 - a * q2k / q) * q)
        qk = q**k
        yield ZeroBq(b, q).small_weight(k), q * (1 - b * qk) / (1 - b * qk * q * q)
        plain = PlainQ(q)
        yield plain.small_weight(k), q
        yield plain.big_weight(k), q**k

    return _grid(ctx, pairs, "abq")


def _run_degeneration_q(ctx: _Context) -> float:
    board = ctx.require_board()
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
    for q in values:
        fam = PlainQ(q)
        row = rook.rook_row(board, fam)
        for z in range(n + 3):
            lhs = 1
            for i, b in enumerate(board.heights, 1):
                lhs *= q_number(q, z + b - i + 1)
            rhs = 0
            for k in range(n + 1):
                rhs += row.get(n - k, 0) * q_falling(q, z, k)
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

    def pairs(fam):
        if not isinstance(fam, FrakPQ):
            fam = FrakPQ(fam.a, fam.b, 1.1 + 0.2j, fam.q)
        delegate = ABq(fam.a, fam.b, fam.q / fam.fp)
        k = ctx.rng.randrange(-3, 4)
        z = ctx.draw_z()
        yield fam.small_weight(k), delegate.small_weight(k)
        yield fam.number(z), delegate.number(z)
        yield fam.big_weight(k), delegate.big_weight(k)

    return _grid(ctx, pairs)


def _run_ellipticity(ctx: _Context):
    def pairs(fam):
        if not isinstance(fam, FullElliptic):
            raise BadBoardSpec("ellipticity is a full-elliptic statement")
        k = ctx.rng.randrange(-4, 5)
        base = fam.small_weight(k)
        shifted_a = FullElliptic(fam.a * fam.p, fam.b, fam.q, fam.p)
        shifted_b = FullElliptic(fam.a, fam.b * fam.p, fam.q, fam.p)
        yield base, shifted_a.small_weight(k)
        yield base, shifted_b.small_weight(k)

    return _grid(ctx, pairs)


# --- theta substrate ----------------------------------------------------------


# one side is the product (a Nome nome): the series satisfies these two term by term
def _run_theta_inversion(ctx: _Context):
    def trial():
        x = _polar(ctx.rng, 0.5, 2.0)
        p = _polar(ctx.rng, *ctx.config.p_modulus)
        return relative_error(theta(x, p), -x * theta(1 / x, Nome(p)))

    return trial


def _run_theta_quasiperiod(ctx: _Context):
    def trial():
        x = _polar(ctx.rng, 0.5, 2.0)
        p = _polar(ctx.rng, *ctx.config.p_modulus)
        return relative_error(theta(p * x, Nome(p)), -theta(x, p) / x)

    return trial


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


def _run_bijection_partition(ctx: _Context) -> float:
    n = ctx.param("n", 5)
    board = special.staircase(n)
    mismatches = 0
    images = set()
    total = 0
    for k in range(n + 1):
        for cells in rook_placements(board.heights, n - k):
            part = biject.rooks_to_partition(cells, n)
            if len(part) != k or biject.partition_to_rooks(part) != tuple(sorted(cells)):
                mismatches += 1
            images.add(part)
            total += 1
    codomain = set(biject.set_partitions(n))
    if images != codomain or total != len(images):
        mismatches += 1
    return float(mismatches)


def _run_bijection_cycles(ctx: _Context) -> float:
    n = ctx.param("n", 5)
    r = ctx.params.get("r", 1)
    board = special.staircase(n, r)
    mismatches = 0
    images = set()
    total = 0
    for k in range(n + 1):
        for cells in file_placements(board.heights, n - k):
            perm = biject.file_to_cycles(cells, n)
            if len(perm.cycles) != k or biject.cycles_to_file(perm) != tuple(sorted(cells)):
                mismatches += 1
            images.add(perm)
            total += 1
    codomain = biject.restricted_cycle_structures(n, r)
    if images != codomain or total != len(images):
        mismatches += 1
    return float(mismatches)


def _run_bijection_tubes(ctx: _Context) -> float:
    n = ctx.param("n", 4)
    r = ctx.params.get("r", 2)
    board = special.lah_board(n, r)
    mismatches = 0
    images = set()
    by_k: dict[int, int] = {}
    for k in range(r, n + 1):
        for cells in rook_placements(board.heights, n - k):
            tubes = biject.rooks_to_tubes(cells, n, r)
            if len(tubes.tubes) != k or biject.tubes_to_rooks(tubes, n, r) != tuple(
                sorted(cells)
            ):
                mismatches += 1
            images.add(tubes)
            by_k[k] = by_k.get(k, 0) + 1
    for k, count in by_k.items():
        if count != special.classical_lah_r(n, k, r):
            mismatches += 1
    codomain = set()
    for k in range(r, n + 1):
        codomain |= biject.tube_placements(n, k, r)
    if images != codomain:
        mismatches += 1
    return float(mismatches)


def _run_bijection_abel(ctx: _Context) -> float:
    n = ctx.param("n", 5)
    m = ctx.params.get("m")
    r = ctx.params.get("r", 1)
    board = special.abel_board(n, r, m)
    mismatches = 0
    images = set()
    by_k: dict[int, int] = {}
    for k in range(r, n + 1):
        for cells in file_placements(board.heights, n - k):
            forest = biject.file_to_forest(cells, n, m, r)
            if len(forest.roots) != k or biject.forest_to_file(forest, n, m, r) != tuple(
                sorted(cells)
            ):
                mismatches += 1
            images.add(forest)
            by_k[k] = by_k.get(k, 0) + 1
    for k, count in by_k.items():
        expected = biject.abel_count_general(m if m is not None else n, n, k, r)
        if count != expected:
            mismatches += 1
    codomain = biject.rooted_forests(n, m, r)
    if images != codomain:
        mismatches += 1
    return float(mismatches)


def _run_bijection_rg(ctx: _Context) -> float:
    n = ctx.param("n", 4)
    offset = ctx.param("I", 1)
    jump = ctx.param("J", 2)
    board = jattack.b_board(offset, jump, n)
    mismatches = 0
    for k in range(n + 1):
        words = jattack.enumerate_rg_words(offset, jump, n, k)
        placements = set(j_rook_placements(board.heights, jump, n - k))
        images = set()
        for gamma in words:
            cells = jattack.phi(gamma)
            images.add(cells)
            if jattack.phi_inverse(offset, jump, n, cells) != gamma:
                mismatches += 1
        if images != placements or len(images) != len(words):
            mismatches += 1
    return float(mismatches)


def _run_bijection_rg_weight(ctx: _Context):
    n = ctx.param("n", 4)
    offset = ctx.param("I", 1)
    jump = ctx.param("J", 2)

    def pairs(fam):
        for k in range(n + 1):
            for gamma in jattack.enumerate_rg_words(offset, jump, n, k):
                yield jattack.rg_word_weight_identity(gamma, fam)

    return _grid(ctx, pairs)


def _run_matrix_inverse(ctx: _Context):
    n_max = ctx.params.get("n", 6)

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

# name -> (runner, default trials, default tolerance)
_IDENTITIES = {
    "product-rook": (_product(rook.product_formula_check), 25, 1e-8),
    "product-file": (_product(files.file_product_check), 25, 1e-8),
    "product-file-above": (_product(files.file_above_product_check), 25, 1e-8),
    "product-jump": (_run_product_jump, 25, 1e-8),
    "max-identity": (_run_max_identity, 10, 1e-9),
    "recursion-rook": (_board_recursion(rook.rook_row_via_recursion, rook.rook_row), 5, 1e-9),
    "recursion-file": (_board_recursion(files.file_row_via_recursion, files.file_row), 5, 1e-9),
    "recursion-binomial": (_run_recursion_binomial, 5, 1e-9),
    **{f"recursion-{name}": (_recursion(name), 5, 1e-9) for name in special.RECURSIONS},
    "closed-form-rect-aq": (_run_closed_form_rect_aq, 10, 1e-9),
    "closed-form-lah-aq": (_closed_form(special.lah_row, _lah_aq, "aq", n=5), 10, 1e-9),
    "closed-form-lah-r-aq": (_closed_form(special.lah_row, _lah_r_aq, "aq", n=5, r=2), 10, 1e-9),
    "closed-form-lah-r-q": (_closed_form(special.lah_row, _lah_r_q, "q", n=5, r=2), 10, 1e-9),
    "closed-form-abel": (_closed_form(special.abel_row, special.abel_closed, n=5), 10, 1e-9),
    "closed-form-abel-r": (
        _closed_form(special.abel_row, special.abel_closed, n=5, r=2), 10, 1e-9
    ),
    "closed-form-abel-general": (
        _closed_form(special.abel_row, special.abel_closed, n=4, m=8, r=1), 10, 1e-9
    ),
    "closed-form-stirling2-small-k": (_run_closed_form_stirling2_small_k, 10, 1e-9),
    "degeneration-chain": (_run_degeneration_chain, 50, 1e-12),
    "degeneration-q": (_run_degeneration_q, 10, 0.5),
    "degeneration-pq": (_run_degeneration_pq, 50, 1e-10),
    "ellipticity": (_run_ellipticity, 200, 1e-9),
    "theta-inversion": (_run_theta_inversion, 200, 1e-10),
    "theta-quasiperiodicity": (_run_theta_quasiperiod, 200, 1e-10),
    "addition-formula": (_run_addition_formula, 200, 1e-10),
    "bijection-partition": (_run_bijection_partition, 1, 0.5),
    "bijection-cycles": (_run_bijection_cycles, 1, 0.5),
    "bijection-tubes": (_run_bijection_tubes, 1, 0.5),
    "bijection-abel": (_run_bijection_abel, 1, 0.5),
    "bijection-rg": (_run_bijection_rg, 1, 0.5),
    "bijection-rg-weight": (_run_bijection_rg_weight, 3, 1e-10),
    "matrix-inverse": (_run_matrix_inverse, 3, 1e-9),
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
    offset: int | None = None,
    restriction: int | None = None,
    general_m: int | None = None,
    config: SamplerConfig = SamplerConfig(),
) -> CheckReport:
    """Run one identity check and return its report."""
    if identity not in _IDENTITIES:
        raise UnknownIdentity(f"unknown identity {identity!r}")
    runner, default_trials, default_tol = _IDENTITIES[identity]
    trials = default_trials if trials is None else trials
    tol = default_tol if tol is None else tol
    parsed = parse_board_spec(board)
    sized = isinstance(parsed, dict)
    params = dict(parsed) if sized else {}
    named = {"z": z, "J": jump, "I": offset, "r": restriction, "m": general_m}
    params.update((key, value) for key, value in named.items() if value is not None)
    ctx = _Context(
        rng=random.Random(seed),
        family_tag=family,
        board=None if sized else parsed,
        params=params,
        trials=trials,
        config=config,
    )
    outcome = runner(ctx)
    max_rel_err = _worst_trial(ctx, outcome) if callable(outcome) else outcome
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
