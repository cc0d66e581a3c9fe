"""The devissage benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One workload runs in this one process, single-threaded, as a
closed loop with a single caller: each operation is one
``devissage.cli.run(RunConfig(...))`` call followed by ``render_json``,
and every operation's outcome is checked (see ``checks.py``).

Workloads:
  fixture-all    all suites on fixtures/g1_swap.json (the README quickstart)
  graph-scale    graph,splitting,devissage,bhn on generated dual graphs
  algebra-seeds  boxcalc,torsionlevels on g1_swap.json for 200 seeds

A run measures whole passes over the workload's operations until
``--seconds`` have gone by, and at least the workload's minimum number of
passes: two for fixture-all, whose single 25-30 s call would otherwise be
one sample of a shared host's drifting speed, one for the others.  graph-scale and
algebra-seeds first run their first operation once, untimed: it calls
every suite of the workload, so lazy set-up such as sympy's first use is
done before timing.  fixture-all has no warm-up: its one operation
models one `devissage run` call, which pays that set-up.

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``tracer.py``.  Every other line
is a readable summary.  The exit code is 0 when the run completed,
whatever the operations' outcomes; the result line reports those.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, NamedTuple

import checks
import graphs
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"
FIXTURE = "fixtures/g1_swap.json"
GRAPH_SUITES = ("graph", "splitting", "devissage", "bhn")
ALGEBRA_SUITES = ("boxcalc", "torsionlevels")
ALGEBRA_SEEDS = 200
SETUP_STARTS = 5
TAIL_PERCENTILES = (99.9, 99, 95, 90)
MIN_BEYOND = 10
MAX_NOTES = 20
SUITE_NAMES = ("boxcalc", "torsionlevels", "vanishing", "graph",
               "splitting", "devissage", "bhn")


class Op(NamedTuple):
    """One operation: a run configuration and how to check its outcome."""

    family: str       # key of the expected outcome in expected.json
    config: object    # devissage.cli.RunConfig
    digest_key: str   # key of the seed-0 report digest


def fixture_all(cli, seed):
    return [Op("fixture-all", cli.RunConfig(input_path=FIXTURE, seed=seed),
               "fixture-all")]


def graph_scale(cli, seed):
    files = graphs.write_instances(
        os.path.join(WORK, "graph-scale", f"seed-{seed}"), seed)
    ops = []
    for name, path, cap in files:
        extra = {} if cap is None else {"tree_cap": cap}
        config = cli.RunConfig(input_path=path, suites=GRAPH_SUITES, **extra)
        ops.append(Op(name, config, f"graph-scale/{name}"))
    return ops


def algebra_seeds(cli, seed):
    return [Op("algebra-seeds",
               cli.RunConfig(input_path=FIXTURE, suites=ALGEBRA_SUITES,
                             seed=seed + i),
               f"algebra-seeds/{i}")
            for i in range(ALGEBRA_SEEDS)]


class Workload(NamedTuple):
    ops: Callable            # (cli module, seed) -> [Op]
    warm_up: bool            # run the first operation once before timing
    min_passes: int


WORKLOADS = {
    "fixture-all": Workload(fixture_all, False, 2),
    "graph-scale": Workload(graph_scale, True, 1),
    "algebra-seeds": Workload(algebra_seeds, True, 1),
}


# ---------------------------------------------------------------------------
# measurement


def setup_seconds():
    """Median time from a fresh interpreter to devissage.cli imported."""
    code = ("import sys, time; sys.path.insert(0, 'src'); "
            "import devissage.cli; print(time.monotonic())")
    times = []
    for _ in range(SETUP_STARTS):
        started = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(done.stdout.split()[-1]) - started)
    return statistics.median(times)


class Tally:
    """Outcomes of every checked operation in this run."""

    def __init__(self, expected, seed):
        self.expected = expected
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.notes = []

    def record(self, op, outcome):
        self.attempted += 1
        if isinstance(outcome, Exception):
            self.failed += 1
            self._note(op, f"raised {type(outcome).__name__}: {outcome}")
            return False
        code, report, text = outcome
        key = op.digest_key if self.seed == 0 else None
        found = checks.problems(self.expected, op.family, code, report, text, key)
        if found:
            self.failed += 1
            self.incorrect += 1
            self._note(op, "; ".join(found))
            return False
        return True

    def _note(self, op, text):
        line = f"{op.digest_key}: {text}"
        if line not in self.notes:
            self.notes.append(line)


def run_pass(cli, ops, tally):
    """One pass; returns (wall seconds, per-op latencies, suite seconds).

    A failed operation's latency is infinite: it misses any limit.
    """
    latencies = []
    suites = dict.fromkeys(SUITE_NAMES, 0.0)
    started = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            code, report = cli.run(op.config)
            text = cli.render_json(report)
        except Exception as exc:  # counted as a failed operation
            elapsed = time.perf_counter() - t0
            outcome = exc
        else:
            elapsed = time.perf_counter() - t0
            outcome = (code, report, text)
            for name, seconds in report.get("timings", {}).items():
                suites[name] += seconds
        ok = tally.record(op, outcome)
        latencies.append(elapsed if ok else float("inf"))
    return time.perf_counter() - started, latencies, suites


def tail(latencies):
    """(percentile, value) of the highest listed percentile with at least
    MIN_BEYOND samples beyond it, or None when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = -(-n * pct // 100)   # nearest rank, ceil(n * pct / 100)
        if n - rank >= MIN_BEYOND:
            return pct, ordered[int(rank) - 1]
    return None


def measure(cli, ops, seconds, min_passes, tally):
    """Passes until `seconds` have elapsed and at least `min_passes` ran."""
    passes = []
    started = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - started < seconds):
        passes.append(run_pass(cli, ops, tally))
    return passes


def median_suites(passes):
    return {name: statistics.median(p[2][name] for p in passes)
            for name in SUITE_NAMES}


def end_to_end(cli, ops, workload, seconds, tally):
    setup = setup_seconds()
    if workload.warm_up:
        run_pass(cli, ops[:1], tally)
    passes = measure(cli, ops, seconds, workload.min_passes, tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"{len(passes)} measured pass(es) of {len(ops)} operations"
          f"{' after 1 warm-up operation' if workload.warm_up else ''}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:12.6f} {unit}")
    # Printed, not gated: a 30 ms operation sees this host's two CPU speed
    # states (about 1.6x apart), so its median jumps between them.
    latencies = [x for p in passes for x in p[1]]
    print(f"  {'op_p50_s':<14} {statistics.median(latencies):12.6f} s   "
          f"({len(latencies)} samples)")
    found = tail(latencies)
    if found:
        pct, value = found
        print(f"  {'op_tail_s':<14} {value:12.6f} s   (p{pct:g} of "
              f"{len(latencies)} samples)")
    else:
        print(f"  {'op_tail_s':<14} {'-':>12}     (only {len(latencies)} "
              f"samples: no percentile has {MIN_BEYOND} beyond it)")
    print(f"  {'failed_ratio':<14} {tally.failed / tally.attempted:12.6f}"
          f"     ({tally.failed} of {tally.attempted} operations)")
    for name, value in median_suites(passes).items():
        print(f"  cli.suite.{name}_s {value:.3f} s")
    return metrics


def traced(cli, ops, name, workload, tally):
    if workload.warm_up:
        run_pass(cli, ops[:1], tally)
    untraced_wall = run_pass(cli, ops, tally)[0]
    runs = []
    for _ in range(2):
        with tracer.Tracer() as t:
            wall, _, suites = run_pass(cli, ops, tally)
        runs.append((wall, suites, t.metrics()))
    (_, _, first), (wall, suites, layer) = runs
    if tracer.exact_counts(first) != tracer.exact_counts(layer):
        diff = sorted(k for k, v in tracer.exact_counts(first).items()
                      if layer[k] != v)
        sys.exit(f"trace self-check: counts differ between two traced "
                 f"passes: {diff}")
    idle = tracer.self_check(name, layer)
    if idle:
        sys.exit(f"trace self-check: no calls on {name}: {idle}")
    metrics = {}
    for name, value in layer.items():
        metrics[name] = (value, tracer.unit(name))
    for name in SUITE_NAMES:
        metrics[f"cli.suite.{name}_s"] = (suites[name], "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced_wall, "s")
    busiest = sorted((k for k in layer if k.endswith(".self_s")),
                     key=lambda k: -layer[k])[:12]
    print(f"traced pass {wall:.3f} s against {untraced_wall:.3f} s untraced")
    for name in busiest:
        stem = name[:-len(".self_s")]
        print(f"  {stem:<40} {layer[stem + '.calls']:>9} calls "
              f"{layer[name]:9.3f} s self {layer[stem + '.total_s']:9.3f} "
              f"s total")
    return metrics


def declared(trace):
    """Metric names BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "devissage", "cli.py")):
        sys.exit(f"no devissage sources under {SRC}: run from a checkout")
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    from devissage import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported devissage from {cli.__file__}, not {SRC}")

    workload = WORKLOADS[args.workload]
    tally = Tally(checks.load_expected(), args.seed)
    ops = workload.ops(cli, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    if args.trace:
        metrics = traced(cli, ops, args.workload, workload, tally)
    else:
        metrics = end_to_end(cli, ops, workload, args.seconds, tally)
    for line in tally.notes[:MAX_NOTES]:
        print(f"  failed: {line}")
    if len(tally.notes) > MAX_NOTES:
        print(f"  failed: ... and {len(tally.notes) - MAX_NOTES} more")
    names = declared(args.trace)
    if sorted(names) != sorted(metrics):
        sys.exit(f"metrics differ from BENCHMARK.json: "
                 f"{sorted(set(names) ^ set(metrics))}")
    result = {
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
