"""Benchmark for ellrook: four fixed workloads driven through the public API
in one process and one thread.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                         [--quick]

Run it from the root of a checkout; ellrook is imported from `src/`.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced pass.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  --quick runs
the workload at tiny sizes and checks it, in a few seconds.  See
bench/README.md for the workloads and the metrics.
"""

import sys

# no run may leave bytecode behind for a later run's set-up to profit from
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_OPS = 100  # so that op_ms.p90 has at least ten samples beyond it
SETUP_PROBES = 6  # fresh processes that repeat the set-up, besides this one
PROBE_TIMEOUT_S = 120


class _SourceLoader(importlib.machinery.SourceFileLoader):
    """Compiles every module from source, ignoring any bytecode cache."""

    def get_code(self, fullname):
        path = self.get_filename(fullname)
        return self.source_to_code(self.get_data(path), path)


def _source_hook(path):
    src = str(SRC)
    if path == src or path.startswith(src + os.sep):
        return importlib.machinery.FileFinder(
            path, (_SourceLoader, importlib.machinery.SOURCE_SUFFIXES)
        )
    raise ImportError(path)


def import_ellrook() -> SimpleNamespace:
    """Import ellrook from this checkout's src/, compiled from source."""
    if not (SRC / "ellrook" / "__init__.py").is_file():
        raise SystemExit(f"no ellrook sources under {SRC}")
    sys.path_hooks.insert(0, _source_hook)
    sys.path.insert(0, str(SRC))
    sys.path_importer_cache.clear()
    import ellrook

    if Path(ellrook.__file__).resolve().parent != SRC / "ellrook":
        raise SystemExit(f"imported ellrook from {ellrook.__file__}, not from {SRC}")
    mods = {
        name: importlib.import_module(f"ellrook.{name}")
        for name in ("harness", "rook", "files", "jattack", "weights")
    }
    return SimpleNamespace(
        run_check=ellrook.run_check,
        theta=ellrook.theta,
        PlainQ=ellrook.PlainQ,
        SamplerConfig=ellrook.SamplerConfig,
        SkylineBoard=ellrook.SkylineBoard,
        **mods,
    )


def set_up(args):
    """Import ellrook, build the workload's inputs and finish its warm-up."""
    start = time.perf_counter()
    er = import_ellrook()
    workload = workloads.build(args.workload, er, args.seed, args.quick)
    return time.perf_counter() - start, workload


def probe_set_up(args) -> float:
    """Set-up time of a fresh process running this same script."""
    command = [sys.executable, "-B", __file__, "--probe", "--workload", args.workload]
    command += ["--seed", str(args.seed)] + (["--quick"] if args.quick else [])
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return float(done.stdout.split()[-1])


class Tally:
    """Operations attempted and failed, and problems found by the checks."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []


def run_pass(workload, tally: Tally):
    """One pass over the operation list; returns (wall s, op times, reports).
    Outputs are checked after the pass, outside the timed region."""
    workload.before_pass()
    clock, durations, outputs = time.perf_counter, [], []
    start = clock()
    for op in workload.ops:
        t0 = clock()
        outputs.append(op.run())
        durations.append(clock() - t0)
    wall = clock() - start
    first_report = len(workload.reports)
    for op, output in zip(workload.ops, outputs):
        failed, problem = workload.check(op, output)
        tally.attempted += 1
        tally.failed += failed
        if problem:
            tally.problems.append(problem)
    return wall, durations, workload.reports[first_report:]


def run_passes(workload, tally: Tally, seconds: float, min_ops: int, between=lambda _: None):
    """Whole passes until `seconds` of timed work and `min_ops` operations;
    `between(timed_s)` runs after each pass, outside the timed region.
    Returns the wall time of each pass and the time of each operation."""
    walls, durations = [], []
    while sum(walls) < seconds or len(durations) < min_ops:
        wall, pass_durations, _ = run_pass(workload, tally)
        walls.append(wall)
        durations += pass_durations
        between(sum(walls))
    return walls, durations


def end_to_end(args, workload, own_setup_s: float, tally: Tally) -> dict:
    # set-up samples are spread evenly over the run, between passes, so
    # that their median does not rest on the machine's speed at one moment
    probes = 1 if args.quick else SETUP_PROBES
    setups = [own_setup_s]

    def probe(timed_s):
        if len(setups) <= probes and timed_s >= args.seconds * (len(setups) - 1) / probes:
            setups.append(probe_set_up(args))

    min_ops = 1 if args.quick else MIN_OPS
    walls, durations = run_passes(workload, tally, args.seconds, min_ops, between=probe)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) <= probes:
        setups.append(probe_set_up(args))
    op_ms = [d * 1e3 for d in durations]
    print(
        f"{len(durations)} operations in {len(walls)} passes, {sum(walls):.3f} s timed; "
        f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(workload.ops) / statistics.median(walls), "1/s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.p90": (statistics.quantiles(op_ms, n=10)[-1] if len(op_ms) > 1 else op_ms[0], "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def per_layer(args, workload, tally: Tally) -> dict:
    """Untraced passes for half the run, then one traced pass."""
    walls, durations = run_passes(workload, tally, args.seconds / 2, 1)
    by_group: dict[str, list[float]] = {group: [] for group in workloads.GROUPS}
    for op, duration in zip(workload.ops * len(walls), durations):
        if op.group:
            by_group[op.group].append(duration * 1e3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall, _, reports = run_pass(workload, tally)
    finally:
        tracer.restore()
    metrics = tracer.metrics(traced_wall, reports)
    for group, times in by_group.items():
        metrics[f"harness.check_ms.{group}"] = (statistics.fmean(times) if times else 0.0, "ms")
    metrics["trace.ops_per_s"] = (len(workload.ops) / traced_wall, "1/s")
    metrics["trace.overhead"] = (traced_wall / statistics.median(walls), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for a smoke test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    setup_s, workload = set_up(args)
    if args.probe:
        print(repr(setup_s))
        return 0
    tally = Tally()
    if args.trace:
        metrics = per_layer(args, workload, tally)
    else:
        metrics = end_to_end(args, workload, setup_s, tally)
    tally.problems += workload.final_check()
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
