"""The traced run: per-layer counts and times from wrappers installed
around ellrook's public functions, from the benchmark's own files.

Each wrapper replaces a function where its caller looks it up (a module
attribute or a class attribute) and is removed again by `Tracer.restore`.
Spans nest: a layer's self time is its span time minus the time of the
traced spans it called.  The lru-cached signature builders are not
replaced: their module attribute is shadowed by a pass-through that reads
the cache's `cache_info()` around each call to tell a hit from a miss, and
times and sizes what a miss builds.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict
from functools import partial

MODULES = ("theta", "weights", "boards", "rook", "files", "jattack", "special", "biject")
MODULES += ("harness", "errors")
BOARD_CALLERS = ("rook", "files", "jattack", "harness", "biject", "special")
ENUMERATORS = ("rook_placements", "file_placements", "j_rook_placements")
CANCELLATION = ("rook_uncancelled", "file_uncancelled", "file_above_cells", "j_uncancelled")
FAMILIES = ("FullElliptic", "ABq", "Aq", "ZeroBq", "PlainQ", "FrakPQ")
FAMILY_METHODS = ("small_weight", "big_weight", "number", "binomial")
# (layer, its lru-cached signature builder, the evaluators it calls by name)
SIGNATURE_LAYERS = (
    ("rook", "rook_signature", ("evaluate_signature", "evaluate_signature_with_magnitude")),
    ("files", "_file_signatures", ("_evaluate", "_evaluate_with_magnitude")),
    ("jattack", "j_rook_signature", ("_evaluate", "_evaluate_with_magnitude")),
)


class Stat:
    __slots__ = ("calls", "outer_calls", "inclusive_s", "self_s", "items")

    def __init__(self):
        self.calls = self.outer_calls = self.items = 0
        self.inclusive_s = self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: Counter = Counter()
        self.theta_args: set = set()
        self._open: list[list[float]] = []  # child time of each open span
        self._depth: Counter = Counter()
        self._patches: list = []

    # --- wrappers -------------------------------------------------------------

    def span(self, name: str, fn):
        """fn timed as a span of `name`; inclusive time counts outermost calls."""
        stat, open_spans, depth = self.stats[name], self._open, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            open_spans.append(frame)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                depth[name] -= 1
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if not depth[name]:
                    stat.outer_calls += 1
                    stat.inclusive_s += elapsed
                if open_spans:
                    open_spans[-1][0] += elapsed

        return traced

    def generator_span(self, name: str, fn):
        """A generator function whose steps are spans; items are counted."""
        stat = self.stats[name]

        def traced(*args, **kwargs):
            step = self.span(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                stat.items += 1
                yield item

        return traced

    def _patch(self, owner, attr: str, wrap) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- installation -----------------------------------------------------------

    def install(self) -> None:
        mod = {name: importlib.import_module(f"ellrook.{name}") for name in MODULES}
        # theta: the package attribute ellrook.theta is the function; the
        # module is looked up at call time by theta_multi and
        # qp_shifted_factorial, and harness holds its own reference.
        theta_span = self.span("theta", mod["theta"].theta)
        args = self.theta_args

        def theta(x, p, *rest):
            args.add((x, p))
            return theta_span(x, p, *rest)

        for owner in (mod["theta"], mod["harness"]):
            self._patch(owner, "theta", lambda _: theta)

        weights = mod["weights"]
        for family in FAMILIES:
            for method in FAMILY_METHODS:
                self._patch(getattr(weights, family), method, partial(self.span, "weights"))
        self._patch(weights.WeightTable, "__getitem__", self._counting_lookup)

        # rook, files, jattack, harness and biject import these by name
        for caller in BOARD_CALLERS:
            for name in ENUMERATORS:
                if name in vars(mod[caller]):
                    self._patch(mod[caller], name, partial(self.generator_span, "boards.enumerate"))
            for name in CANCELLATION:
                if name in vars(mod[caller]):
                    self._patch(mod[caller], name, partial(self.span, "boards.uncancelled"))

        ill_conditioned = mod["errors"].IllConditioned
        for layer, builder, evaluators in SIGNATURE_LAYERS:
            self._patch(mod[layer], builder, partial(self._signature_pass_through, layer))
            for name in evaluators:
                self._patch(mod[layer], name, partial(self._evaluator, layer))
            self._patch(
                mod[layer], "guard_condition", lambda fn: self._counting_guard(fn, ill_conditioned)
            )
        enumeration_total = partial(self.span, "jattack.enumeration_total")
        self._patch(mod["jattack"], "jump_enumeration_total", enumeration_total)

        for layer in ("special", "biject"):
            for name, fn in list(vars(mod[layer]).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod[layer].__name__:
                    continue  # imported from another layer
                wrap = self.generator_span if inspect.isgeneratorfunction(fn) else self.span
                self._patch(mod[layer], name, partial(wrap, layer))

    def _counting_lookup(self, lookup):
        counts = self.counts

        def traced(table, ell):
            size = len(table._cache)
            value = lookup(table, ell)
            counts["table_lookups"] += 1
            if len(table._cache) != size:
                counts["table_misses"] += 1
            return value

        return traced

    def _counting_guard(self, guard, ill_conditioned):
        counts = self.counts

        def traced(*args):
            try:
                return guard(*args)
            except ill_conditioned:
                counts["ill_conditioned"] += 1
                raise

        return traced

    def _signature_pass_through(self, layer: str, cached):
        """Counts hits and misses from the cache's own cache_info(), and
        times and sizes the signatures built on a miss."""
        timed = self.span(f"{layer}.signature", cached)
        counts = self.counts

        def traced(*args, **kwargs):
            misses = cached.cache_info().misses
            start = time.perf_counter()
            sig = timed(*args, **kwargs)
            if cached.cache_info().misses == misses:
                counts[f"{layer}.hits"] += 1
                return sig
            counts[f"{layer}.misses"] += 1
            counts[f"{layer}.build_ns"] += int((time.perf_counter() - start) * 1e9)
            parts = sig if layer == "files" else (sig,)
            counts[f"{layer}.terms"] += sum(len(part) for part in parts)
            return sig

        return traced

    def _evaluator(self, layer: str, evaluate):
        timed = self.span(f"{layer}.eval", evaluate)
        counts, factors = self.counts, {}

        def traced(sig, table):
            known = factors.get(id(sig))
            if known is None or known[0] is not sig:
                known = factors[id(sig)] = (sig, sum(len(exps) for exps, _ in sig))
            counts[f"{layer}.factors"] += known[1]
            return timed(sig, table)

        return traced

    # --- metrics ----------------------------------------------------------------

    def metrics(self, wall_s: float, reports) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit), of one traced pass that took
        wall_s seconds and produced the given check reports."""
        st, counts = self.stats, self.counts

        def per(numerator, denominator, scale=1.0):
            return numerator / denominator * scale if denominator else 0.0

        theta, weights = st["theta"], st["weights"]
        enum, uncancelled = st["boards.enumerate"], st["boards.uncancelled"]
        lookups = counts["table_lookups"]
        out = {
            "theta.calls": (theta.calls, "count"),
            "theta.calls_per_distinct_arg": (per(theta.calls, len(self.theta_args)), "ratio"),
            "theta.us_per_call": (per(theta.inclusive_s, theta.calls, 1e6), "us"),
            "theta.s": (theta.inclusive_s, "s"),
            "theta.time_share": (per(theta.inclusive_s, wall_s), "ratio"),
            "weights.calls": (weights.outer_calls, "count"),
            "weights.us_per_call": (per(weights.inclusive_s, weights.outer_calls, 1e6), "us"),
            "weights.table_lookups": (lookups, "count"),
            "weights.table_hit_ratio": (per(lookups - counts["table_misses"], lookups), "ratio"),
            "boards.placements": (enum.items, "count"),
            "boards.placements_per_s": (per(enum.items, enum.self_s), "1/s"),
            "boards.uncancelled.us_per_call": (
                per(uncancelled.inclusive_s, uncancelled.calls, 1e6),
                "us",
            ),
        }
        for layer, _, _ in SIGNATURE_LAYERS:
            out[f"{layer}.signature.misses"] = (counts[f"{layer}.misses"], "count")
            out[f"{layer}.signature.hits"] = (counts[f"{layer}.hits"], "count")
            out[f"{layer}.signature.terms"] = (counts[f"{layer}.terms"], "count")
            out[f"{layer}.signature.build_s"] = (counts[f"{layer}.build_ns"] / 1e9, "s")
        for layer, _, _ in SIGNATURE_LAYERS:
            factors = counts[f"{layer}.factors"]
            out[f"{layer}.eval.factors"] = (factors, "count")
            self_s = st[f"{layer}.eval"].self_s
            out[f"{layer}.eval.ns_per_factor"] = (per(self_s, factors, 1e9), "ns")
        out["jattack.enumeration_total.s"] = (st["jattack.enumeration_total"].inclusive_s, "s")
        trials = sum(report.trials for report in reports)
        resamples = sum(report.resamples for report in reports)
        out["harness.trials"] = (trials, "count")
        out["harness.resamples.pole"] = (resamples - counts["ill_conditioned"], "count")
        out["harness.resamples.ill_conditioned"] = (counts["ill_conditioned"], "count")
        out["harness.useful_ratio"] = (per(trials, trials + resamples), "ratio")
        out["special.s"] = (st["special"].self_s, "s")
        out["biject.s"] = (st["biject"].self_s, "s")
        return out
