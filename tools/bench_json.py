"""Record alternating parent/change benchmark runs as BENCH_<tag>.json.

Two steps, standard library only:

    python3 tools/bench_json.py run --parent DIR --change DIR \\
        --workload W --seed S --pairs 10 --log runs.jsonl
    python3 tools/bench_json.py write --log runs.jsonl --tag TAG \\
        --parent-commit REV --what "one line on the change"

`run` first compiles the `src/` of both checkouts to bytecode
(`compileall`), so that neither side's first import pays the compiler's
peak memory inside `peak_rss_mb` (under PYTHONDONTWRITEBYTECODE a
checkout never writes its own bytecode).  It then executes
`python3 perfbench/run.py` in the parent and change checkouts, pair by
pair, for the `run_seconds` of BENCHMARK.json, and
appends each run's result line (the last line the benchmark prints) to
the log as one JSON object with its pair, side, workload, seed and trace
flag.  Pair i runs the parent first when i is odd and the change first
when i is even, so a drift of the host's speed does not favour one side.
Pairs are numbered from --first-pair (1 by default); a later call on the
same workload and seed continues the numbering with an odd --first-pair,
so pairs stay distinct and keep the order rule.

`write` turns the log into BENCH_<tag>.json at the repository root: every
run, plus a summary per untraced workload, seed and end-to-end metric of
BENCHMARK.json with the parent and change medians, the parent's
interquartile range, the number of pairs the change wins (ties count for
neither side), both ranges, both failed-operation shares, and whether
every run was correct.
"""

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ("python3 perfbench/run.py --workload W --seed S --seconds N "
           "--trace T (last line of each run)")
ORDER = "pair i runs parent first when i is odd, change first when i is even"


def _benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_pairs(args):
    sides = {"parent": args.parent, "change": args.change}
    seconds = _benchmark()["run_seconds"]
    for path in sides.values():
        if not compileall.compile_dir(Path(path) / "src", quiet=1):
            sys.exit(f"cannot compile {path}/src")
    with open(args.log, "a", encoding="utf-8") as log:
        for pair in range(args.first_pair, args.first_pair + args.pairs):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py",
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(seconds),
                     "--trace", str(args.trace)],
                    cwd=sides[side], capture_output=True, text=True,
                    check=False)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit(f"{side} run of pair {pair} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
                record = {"pair": pair, "side": side,
                          "workload": args.workload, "seed": args.seed,
                          "trace": args.trace,
                          "result": json.loads(lines[-1])}
                log.write(json.dumps(record) + "\n")
                log.flush()
                print(json.dumps(record), flush=True)


def _iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs, metrics):
    """One entry per (workload, seed, metric) over the untraced runs."""
    groups = {}
    for r in runs:
        if r["trace"] == 0:
            groups.setdefault((r["workload"], r["seed"]), []).append(r)
    out = []
    for (workload, seed), group in sorted(groups.items()):
        by_pair = {}
        for r in group:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [p for _, p in sorted(by_pair.items())
                 if "parent" in p and "change" in p]
        for m in metrics:
            sign = 1 if m["better"] == "lower" else -1
            par = [p["parent"]["metrics"][m["name"]]["value"] for p in pairs]
            chg = [p["change"]["metrics"][m["name"]]["value"] for p in pairs]
            entry = {
                "workload": workload, "seed": seed, "metric": m["name"],
                "pairs": len(pairs),
                "parent_median": round(statistics.median(par), 4),
                "change_median": round(statistics.median(chg), 4),
                "parent_iqr": round(_iqr(par), 4) if len(par) > 1 else 0.0,
                "change_wins": sum(sign * (c - p) < 0
                                   for p, c in zip(par, chg)),
                "parent_range": [round(min(par), 4), round(max(par), 4)],
                "change_range": [round(min(chg), 4), round(max(chg), 4)],
            }
            for side in ("parent", "change"):
                tried = sum(p[side]["attempted"] for p in pairs)
                failed = sum(p[side]["failed"] for p in pairs)
                entry[f"{side}_failed_ratio"] = round(failed / tried, 6)
            entry["all_correct"] = all(p[s]["correct"] for p in pairs
                                       for s in ("parent", "change"))
            out.append(entry)
    return out


def write(args):
    with open(args.log, encoding="utf-8") as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    metrics = _benchmark()["end_to_end"]
    doc = {
        "what": args.what,
        "command": COMMAND,
        "hardware": args.hardware,
        "parent": args.parent_commit,
        "order": ORDER,
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="step", required=True)
    p = sub.add_parser("run", help="run alternating pairs, append to a log")
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-pair", type=int, default=1)
    p.add_argument("--log", required=True, help="JSON-lines run log")
    w = sub.add_parser("write", help="turn a run log into BENCH_<tag>.json")
    w.add_argument("--log", required=True)
    w.add_argument("--tag", required=True)
    w.add_argument("--parent-commit", required=True)
    w.add_argument("--what", required=True)
    w.add_argument("--hardware", default="")
    args = parser.parse_args(argv)
    if args.step == "run":
        run_pairs(args)
    else:
        write(args)


if __name__ == "__main__":
    main()
