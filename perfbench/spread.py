#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, by the rule the bounds in
BENCHMARK.json are set against: over runs with different seeds, the
distance between the first and the third quartile (statistics.quantiles,
n=4) as a share of the median.

    python3 perfbench/spread.py --seeds 11-20 [--workloads a,b] [--out FILE]
                                [--compare FILE]

Run it from the repository root. Each run is
`python3 perfbench/run.py --workload W --seed N --seconds <run_seconds>
--trace 0`. Prints, per workload and metric, the median and the spread
against the metric's bound. --out appends every run's result to FILE as
JSON lines; --compare reads such a file from an earlier set and also
prints how far each median moved, as a share of the earlier median, in
the metric's "worse" direction.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402
from run import parse_seeds  # noqa: E402


def spread(values):
    q1, q2, q3 = stats.quartiles(values)
    return (q3 - q1) / q2


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                 + proc.stderr[-2000:])
    return json.loads(lines[-1])


def medians(rows):
    by = {}
    for row in rows:
        for name, m in row["result"]["metrics"].items():
            by.setdefault((row["workload"], name), []).append(m["value"])
    return {key: stats.median(values) for key, values in by.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", required=True, help="like 11-20 or 1,4,9")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--out", help="append each run's result here (JSON lines)")
    ap.add_argument("--compare", help="JSON lines of an earlier set")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)

    rows = []
    for workload in workloads:
        for seed in seeds:
            result = one_run(workload, seed, bench["run_seconds"])
            row = {"workload": workload, "seed": seed, "result": result}
            rows.append(row)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(row) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")

    before = {}
    if args.compare:
        with open(args.compare) as f:
            before = medians(json.loads(line) for line in f if line.strip())
    now = medians(rows)
    for workload in workloads:
        print(f"== {workload} ({len(seeds)} seeds)")
        for name, m in metrics.items():
            values = [r["result"]["metrics"][name]["value"] for r in rows
                      if r["workload"] == workload]
            s = spread(values) if len(values) > 1 else 0.0
            line = (f"  {name:16s} median {now[(workload, name)]:10.4g} "
                    f"spread {s:.3f} of bound {m['bound']}")
            if (workload, name) in before:
                old = before[(workload, name)]
                worse = (now[(workload, name)] - old) / old
                if m["better"] == "higher":
                    worse = -worse
                line += f"; worse than before by {worse:+.3f}"
            print(line)


if __name__ == "__main__":
    main()
