"""The four workloads: fixed operation lists built from a seed.

A workload is a list of operations run in the same order on every pass,
plus the checks that judge each operation's output.  Operations call only
ellrook's public API.  Every input is drawn from the seed given to `build`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from typing import Callable

import oracles

NAMES = ("factorization-sweep", "cold-enumeration", "identity-suite", "jump-crosscheck")

# the board of the README's `ellrook check` examples
README_BOARD = "0,2,3,5,5"

# harness groups, following the sections of the identity registry
GROUP_PREFIXES = (
    ("product-", "product"),
    ("max-identity", "product"),
    ("recursion-", "recursion"),
    ("closed-form-", "closed-form"),
    ("degeneration-", "degeneration"),
    ("ellipticity", "degeneration"),
    ("theta-", "theta"),
    ("addition-formula", "theta"),
    ("bijection-", "bijection"),
    ("matrix-", "matrix"),
)
GROUPS = ("product", "recursion", "closed-form", "degeneration", "theta", "bijection", "matrix")

# The recursion-* and closed-form-* runners judge double-precision
# enumeration sums with no conditioning guard: where a sum cancels, the
# verdict is FAIL although the identity holds, so their verdict depends on
# the seed.  They run at fixed seeds, not drawn from the workload seed, so
# that the failed share is the same in every run: at the default seed 0,
# or, for the identities below, at a seed where the fault shows.
UNGUARDED_PREFIXES = ("recursion-", "closed-form-")
FAULT_SEEDS = {
    "closed-form-abel": 100,
    "closed-form-abel-general": 0,
    "closed-form-abel-r": 100,
    "recursion-lah": 0,
    "recursion-rook": 0,
    "recursion-file": 14,
}


def group_of(identity: str) -> str:
    for prefix, group in GROUP_PREFIXES:
        if identity.startswith(prefix):
            return group
    raise ValueError(f"identity {identity!r} has no harness group")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    group: str | None = None  # harness group of a run_check operation
    identity: str | None = None
    request: dict = field(default_factory=dict)  # run_check keyword arguments
    pinned_fault: bool = False
    key: tuple = ()  # what a cold-enumeration operation enumerates


@dataclass
class Workload:
    ops: list[Op]
    # check(op, output) -> (failed, problem); a problem makes the run incorrect
    check: Callable[[Op, object], tuple[bool, str | None]]
    before_pass: Callable[[], None] = lambda: None
    final_check: Callable[[], list[str]] = lambda: []
    reports: list = field(default_factory=list)


def build(name: str, er, seed: int, quick: bool) -> Workload:
    """Build the named workload's inputs from `seed` and finish its warm-up."""
    rng = random.Random(seed)
    builders = {
        "factorization-sweep": _factorization_sweep,
        "cold-enumeration": _cold_enumeration,
        "identity-suite": _identity_suite,
        "jump-crosscheck": _jump_crosscheck,
    }
    return builders[name](er, rng, quick)


def _stratified(population, strata: int, rng: random.Random, key) -> list:
    """One random member from each of `strata` equal slices of the sorted
    population, so every seed gets the same spread of sizes."""
    ordered = sorted(population, key=key)
    edges = [len(ordered) * i // strata for i in range(strata + 1)]
    return [rng.choice(ordered[lo:hi]) for lo, hi in zip(edges, edges[1:])]


def _board_text(heights) -> str:
    return ",".join(map(str, heights))


def _sampler_bands(er, p_count: int, q_count: int) -> list:
    """Sampler configurations for every pair of a band of |p| and a band of
    |q|, splitting their default ranges into equal bands.  The theta product
    runs for about log(tolerance / max(|x|, |p|/|x|)) / log|p| factors, so a
    point's cost depends mostly on |p| and on the powers of q in x; giving
    each operation a pair of bands makes a pass cost the same for every
    seed."""

    def bands(lo, hi, count):
        edges = [lo + (hi - lo) * i / count for i in range(count + 1)]
        return list(zip(edges, edges[1:]))

    return [
        er.SamplerConfig(p_modulus=p_band, q_modulus=q_band)
        for q_band in bands(*er.weights.Q_MODULUS, q_count)
        for p_band in bands(*er.weights.P_MODULUS, p_count)
    ]


def _bands_text(config) -> str:
    return "|p| in [{:.3f}, {:.3f}], |q| in [{:.3f}, {:.3f}]".format(
        *config.p_modulus, *config.q_modulus
    )


# --- run_check operations ---------------------------------------------------


def _check_op(er, label: str, identity: str, *, pinned: bool = False, **request) -> Op:
    def run():
        return er.run_check(identity, **request)

    return Op(label, run, group_of(identity), identity, request, pinned)


def _check_report(op: Op, report) -> tuple[bool, str | None]:
    """A report must echo its request and be finite; bijection counts must
    have no mismatch.  A FAIL verdict counts as failed, and is a problem
    unless the operation is one of the pinned faults."""
    req = op.request
    echo = (report.identity_name, report.board, report.family, report.seed)
    want = (op.identity, req.get("board") or "", req.get("family", "elliptic"), req["seed"])
    if echo != want or report.trials != req.get("trials", report.trials) or report.trials < 1:
        return False, f"{op.label}: report {report.to_dict()} does not echo its request"
    if not math.isfinite(report.max_rel_err):
        return False, f"{op.label}: max_rel_err is {report.max_rel_err}"
    counting = op.identity.startswith("bijection-") and op.identity != "bijection-rg-weight"
    if counting and report.max_rel_err != 0:
        return False, f"{op.label}: {report.max_rel_err:.0f} bijection mismatches"
    if report.passed:
        return False, None
    if op.pinned_fault:
        return True, None
    return True, f"{op.label}: FAIL with max_rel_err={report.max_rel_err:.3e}"


def _report_workload(ops: list[Op], **hooks) -> Workload:
    reports: list = []

    def check(op, report):
        reports.append(report)
        return _check_report(op, report)

    return Workload(ops, check, reports=reports, **hooks)


def _factorization_sweep(er, rng, quick) -> Workload:
    identities = ("product-rook", "product-file", "product-file-above")
    population = [
        heights
        for n in range(1, 6)
        for heights in combinations_with_replacement(range(6), n)
    ]
    boards = _stratified(population, 2 if quick else 60, rng, key=lambda h: (len(h), sum(h)))
    # three seeds shared by all boards; each draws its trial points in its
    # own pair of bands, the diagonal of the 3 x 3 grid
    points = [(rng.randrange(2**31), config) for config in _sampler_bands(er, 3, 3)[::4]]
    # Few trials per check, so that a resample, which shifts the rest of a
    # seed's draws, seldom parts one board's points from the others'.
    trials = {"trials": 2 if quick else 5}
    ops = []
    for b, heights in enumerate(boards):
        for i, identity in enumerate(identities):
            seed, config = points[(b + i) % len(points)]
            text = _board_text(heights)
            label = f"{identity} --board {text} --seed {seed} {_bands_text(config)}"
            ops.append(
                _check_op(er, label, identity, board=text, seed=seed, config=config, **trials)
            )
    # warm-up: the signature caches of every board in the list
    for heights in boards:
        for k in range(len(heights) + 1):
            er.rook.rook_signature(heights, k)
            er.files.file_signature(heights, k, er.files.ROW_ONLY)

    def final_check():
        """Theta at the first parameter point each shared seed draws,
        against mpmath's q-Pochhammer product."""
        problems = []
        for seed, config in points:
            fam = er.weights.random_family(
                random.Random(seed),
                "elliptic",
                q_modulus=config.q_modulus,
                p_modulus=config.p_modulus,
            )
            a, b, q, p = fam.a, fam.b, fam.q, fam.p
            for x in (a, b, q, a * q, b * q * q, a / b, a * q / b, q**5):
                got, want = er.theta(x, p), oracles.theta_reference(x, p)
                if not abs(got - want) <= 1e-12 * abs(want):
                    problems.append(f"theta({x}, {p}) = {got}, mpmath gives {want}")
        return problems

    return _report_workload(ops, final_check=final_check)


def _identity_suite(er, rng, quick) -> Workload:
    boards = {
        "product-rook": README_BOARD,
        "product-file": README_BOARD,
        "product-file-above": README_BOARD,
        "product-jump": "2,5,8",
        "max-identity": README_BOARD,
        "recursion-rook": README_BOARD,
        "recursion-file": README_BOARD,
        "closed-form-rect-aq": "3,3,3",
        "degeneration-q": README_BOARD,
        "bijection-abel": "n=5",
    }
    ops = []
    for identity in er.harness.identity_names():
        pinned = identity in FAULT_SEEDS
        if identity.startswith(UNGUARDED_PREFIXES):
            seed = FAULT_SEEDS.get(identity, 0)
        else:
            seed = rng.randrange(2**31)
        request = {"board": boards.get(identity), "seed": seed}
        if identity == "product-jump":
            request["jump"] = 3
        if identity.startswith("bijection-") and identity != "bijection-rg-weight":
            request["family"] = "trivial"
        if quick:
            request["trials"] = 1
        label = f"{identity} --board {request['board'] or '-'} --seed {seed}"
        ops.append(_check_op(er, label, identity, pinned=pinned, **request))
    # warm-up: one trial of every operation fills the signature caches
    for op in ops:
        er.run_check(op.identity, **{**op.request, "trials": 1})
    return _report_workload(ops)


def _jump_crosscheck(er, rng, quick) -> Workload:
    shapes = [(0, 1, 1), (2, 2, 2)] if quick else [
        (offset, jump, n) for offset in (0, 1, 2) for jump in (1, 2, 3) for n in (1, 2)
    ]
    bands = _sampler_bands(er, 6, 6)
    ops = []
    for offset, jump, n in shapes:
        text = _board_text(offset + i * jump for i in range(n))
        for z in (jump * n, jump * n + 1):
            seed, config = rng.randrange(2**31), bands[len(ops) % len(bands)]
            label = f"product-jump --board {text} --J {jump} --z {z} --seed {seed}"
            label += f" {_bands_text(config)}"
            request = {"board": text, "jump": jump, "z": z, "trials": 1, "seed": seed}
            ops.append(_check_op(er, label, "product-jump", config=config, **request))
    # warm-up: the extended-precision path imports mpmath on first use
    er.run_check("product-jump", board="1", jump=1, z=1, trials=1, seed=0)
    return _report_workload(ops)


# --- cold enumeration ---------------------------------------------------------

# largest product of (height + 1) over the columns of a seeded board: the
# number of file placements, which bounds the cost of one operation
COLD_PLACEMENT_CAP = 20000


def _cold_enumeration(er, rng, quick) -> Workload:
    one, q = er.PlainQ(1), Fraction(*rng.sample(range(5, 10), 2))
    fam_q = er.PlainQ(q)
    board_cls, rook, files, jattack = er.SkylineBoard, er.rook, er.files, er.jattack

    def file_count(heights):
        return math.prod(h + 1 for h in heights)

    if quick:
        ferrers = [(1, 2, 2, 3)]
        jumps = [(1, 2, 3)]
    else:
        ferrers = []
        for columns, max_height in ((6, 5), (7, 4)):
            population = [
                heights
                for heights in combinations_with_replacement(range(max_height + 1), columns)
                if file_count(heights) <= COLD_PLACEMENT_CAP
            ]
            ferrers += _stratified(population, 8, rng, key=file_count)
        ferrers += [tuple(range(n)) for n in (5, 6, 7, 8)]  # staircases
        ferrers += [(n,) * n for n in (3, 4, 5)]  # squares
        jumps = [
            (offset, jump, n)
            for offset in (0, 1, 2)
            for jump in (1, 2, 3)
            for n in (4, 5, 6)
            if n < 6 or jump < 3
        ]

    def rook_op(board):
        return tuple(
            [rook.rook_number(board, k, fam) for k in range(board.n + 1)] for fam in (one, fam_q)
        )

    def file_op(board):
        return tuple(
            [files.file_number(board, k, fam, weighting) for k in range(board.n + 1)]
            for weighting in (files.ROW_ONLY, files.ABOVE_ROOK)
            for fam in (one, fam_q)
        )

    def jump_op(board, jump):
        return tuple(
            [jattack.rook_number_j(board, k, jump, fam) for k in range(board.n + 1)]
            for fam in (one, fam_q)
        )

    ops = []
    for heights in ferrers:
        board = board_cls(heights)
        text = _board_text(heights)
        ops.append(Op(f"rook signatures of {text}", partial(rook_op, board), key=("rook", heights)))
        ops.append(Op(f"file signatures of {text}", partial(file_op, board), key=("file", heights)))
    for offset, jump, n in jumps:
        board = jattack.b_board(offset, jump, n)
        label = f"jump signatures of B({offset},{jump},{n})"
        ops.append(Op(label, partial(jump_op, board, jump), key=("jump", board.heights, jump)))
    rng.shuffle(ops)

    verified: dict = {}

    def expected_problem(key, output) -> str | None:
        kind, heights = key[0], key[1]
        if kind == "jump":
            for weight, values in zip((1, q), output):
                if not oracles.jump_factorization_holds(heights, key[2], values, weight):
                    return f"jump product formula fails at q={weight}"
            return None
        counts = oracles.placement_counts(heights, kind)
        if kind == "rook":
            ones, qs = output
            if ones != counts:
                return f"rook counts {ones}, brute force gives {counts}"
            if not oracles.rook_factorization_holds(heights, qs, q):
                return f"Garsia-Remmel rook factorization fails at q={q}"
            return None
        row_ones, row_qs, above_ones, above_qs = output
        if row_ones != counts or above_ones != counts:
            return f"file counts {row_ones} / {above_ones}, brute force gives {counts}"
        for weighting, values in (("row", row_qs), ("above", above_qs)):
            if not oracles.file_factorization_holds(heights, values, q, weighting):
                return f"{weighting} file factorization fails at q={q}"
        return None

    def check(op, output):
        if verified.get(op.key) != output:
            problem = expected_problem(op.key, output)
            if problem:
                return False, f"{op.label}: {problem}"
            verified[op.key] = output
        return False, None

    caches = (rook.rook_signature, files._file_signatures, jattack.j_rook_signature)

    def before_pass():
        # every pass starts from empty signature caches: each board is new
        for cache in caches:
            cache.cache_clear()

    return Workload(ops, check, before_pass=before_pass)
