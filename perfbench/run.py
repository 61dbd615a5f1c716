#!/usr/bin/env python3
"""Repository benchmark: builds the ppd libraries and the perfbench harness
from source, runs one workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1
its per-layer metrics (from a run whose every other pass is traced). The
lines before it are a human-readable summary. S sets how many passes of
the workload's fixed work are timed (see NOMINAL_PASS_S), so a run takes
about S seconds on the reference host.

    python3 perfbench/spread.py --seeds 11-20

runs every workload once per seed and prints each end-to-end metric's
spread against its bound.

Workloads, metrics and which layer metric should move which end-to-end
metric are described in BENCHMARK.json and perfbench/interactions.json;
expected output digests per seed are in perfbench/digests.json.

    python3 perfbench/run.py --record-digests 1-20,7919

re-records the digests after a deliberate change of the simulated outputs.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("paper_coverage", "deep_path", "c432_circuit", "served_mix")
# Seconds one pass of each workload took on the reference host (4-vCPU x86
# VM). A run times floor(--seconds / this) passes, at least MIN_PASSES:
# the count follows --seconds only, never the program's speed, so every
# quantile is taken over the same number of samples in every run.
NOMINAL_PASS_S = {"paper_coverage": 2.7, "deep_path": 5.6,
                  "c432_circuit": 2.6, "served_mix": 1.3}
MIN_PASSES = 3  # every median has three values; traced runs have both kinds
SETUP_SPAWNS = 30  # extra set-up-only processes per run (median of 31)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
DIGESTS = os.path.join(HERE, "digests.json")

# Per-layer times: span name -> metric. Each metric is the self time per
# pass of the public calls into that layer.
SPAN_METRICS = {
    "core.calibrate_delay_test": "core.calibrate_s",
    "core.calibrate_pulse_test": "core.calibrate_s",
    "core.run_delay_coverage": "core.coverage_s",
    "core.run_pulse_coverage": "core.coverage_s",
    "core.find_r_min": "core.rmin_s",
    "core.select_path_candidates": "core.select_s",
    "logic.run_sta": "logic.sta_s",
    "logic.slack_sites": "logic.sta_s",
    "logic.generate_pulse_tests": "logic.atpg_s",
    "logic.compact_tests": "logic.compact_s",
    "logic.run_delay_testing": "logic.delay_test_s",
}
# Per-pass counter deltas reported as they are (median over passes).
COUNT_METRICS = (
    "spice.transients", "spice.steps", "spice.rejected_steps",
    "spice.newton_solves", "spice.newton_iters", "spice.op_fallbacks",
    "spice.bypass_hits", "cache.hits", "cache.misses", "cache.evictions",
    "cache.warm_starts", "exec.tasks", "exec.steals", "logic.tests",
    "resil.quarantined",
)
QUERY_KINDS = ("calibrate", "coverage", "rmin", "transfer", "sta", "lint")
OPERATION_PREFIXES = ("core.", "net.query.")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root):
    """Configure (once) and build the harness; returns the binary path."""
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (exit {code}); log in {log_path}")
    return os.path.join(build_dir, "perfbench"), build_root


def run_binary(binary, argv):
    """Run the harness; returns (spawn time, parsed last line)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([binary] + argv, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out: {' '.join(argv)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"harness exited {proc.returncode}: {' '.join(argv)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    return start, json.loads(lines[-1])


def pass_values(raw, fn, traced=None):
    return [fn(p) for p in raw["passes"] if traced is None or p["traced"] == traced]


def timed_passes(workload, seconds):
    return max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[workload]))


def operations(raw):
    """The operations latency is taken over: served queries, and on the
    batch workloads the calls into core (each a calibration or an MC
    sweep). Logic-level calls take milliseconds and are timed as layers
    only."""
    return [op for op in raw["ops"] if op[0].startswith(OPERATION_PREFIXES)]


def end_to_end(raw, setup_samples):
    walls = pass_values(raw, lambda p: p["counters"]["wall_s"])
    ops = operations(raw)
    ms = [op[1] for op in ops]
    ok = sum(1 for op in ops if op[2])
    return {
        "setup_s": (stats.median(setup_samples), "s"),
        "run_s": (stats.median(walls), "s"),
        "latency_p50_ms": (stats.median(ms), "ms"),
        "latency_tail_ms": (stats.tail(ms)[0], "ms"),
        "queries_per_s": (ok / raw["timed_wall_s"], "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
    }


def per_layer(raw, spans):
    out = {}
    threads = raw["threads"]

    def counter_median(name):
        return stats.median(pass_values(raw, lambda p: p["counters"].get(name, 0.0)))

    for name in COUNT_METRICS:
        out[name] = (counter_median(name), "count")

    def ratio(num, den):
        return num / den if den else 0.0

    out["spice.cpu_us_per_step"] = (stats.median(pass_values(
        raw, lambda p: 1e6 * ratio(p["counters"]["cpu_s"], p["counters"]["spice.steps"]))), "us")
    out["cache.hit_ratio"] = (stats.median(pass_values(raw, lambda p: ratio(
        p["counters"]["cache.hits"],
        p["counters"]["cache.hits"] + p["counters"]["cache.misses"]))), "ratio")
    out["exec.cpu_util"] = (stats.median(pass_values(raw, lambda p: ratio(
        p["counters"]["cpu_s"], p["counters"]["wall_s"] * threads))), "ratio")

    # Layer self times from the spans of the traced passes.
    self_time = stats.self_times(spans)
    by_pass = {s["id"]: {} for s in spans if s["parent"] == 0}
    for s in spans:
        metric = SPAN_METRICS.get(s["name"])
        if metric and s["parent"] in by_pass:
            sums = by_pass[s["parent"]]
            sums[metric] = sums.get(metric, 0.0) + self_time[s["id"]]
    for metric in sorted(set(SPAN_METRICS.values())):
        per_pass = [sums.get(metric, 0.0) for sums in by_pass.values()]
        out[metric] = (stats.median(per_pass) if per_pass else 0.0, "s")
    passes = [s for s in spans if s["parent"] == 0]
    out["obs.unattributed_s"] = (
        stats.median([self_time[s["id"]] for s in passes]) if passes else 0.0, "s")
    traced = pass_values(raw, lambda p: p["counters"]["wall_s"], traced=True)
    untraced = pass_values(raw, lambda p: p["counters"]["wall_s"], traced=False)
    out["obs.trace_overhead_pct"] = (
        100.0 * (stats.median(traced) / stats.median(untraced) - 1.0)
        if traced and untraced else 0.0, "%")

    # Served queries: result-event timing fields, p50 over queries.
    queries = raw["queries"]

    def p50(values):
        return stats.median(values) if values else 0.0

    out["net.queue_ms"] = (p50([q["queue_ms"] for q in queries]), "ms")
    out["net.execute_ms"] = (p50([q["execute_ms"] for q in queries]), "ms")
    out["net.serialize_ms"] = (p50([q["serialize_ms"] for q in queries]), "ms")
    out["net.wire_ms"] = (p50([q["rtt_ms"] - q["queue_ms"] - q["execute_ms"]
                               - q["serialize_ms"] for q in queries]), "ms")
    # Per kind over the fresh queries only: half of some kinds are cache
    # hits, and a median across the two clusters would mean neither.
    for kind in QUERY_KINDS:
        out["net.execute_ms." + kind] = (p50([
            q["execute_ms"] for q in queries if q["kind"] == kind and not q["repeat"]]), "ms")
    out["net.busy"] = (raw["accounting"]["busy"], "count")

    out["linalg.unknowns"] = (raw["info"]["unknowns"], "count")
    out["linalg.sparse"] = (1 if raw["info"]["sparse"] else 0, "bool")
    attempted, failed, frac = stats.fail_frac(raw["accounting"])
    out["fail_frac"] = (frac, "ratio")
    _, pct, n = stats.tail([op[1] for op in operations(raw)])
    out["latency.tail_pct"] = (pct, "%")
    out["latency.samples"] = (n, "count")
    return out


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def check_digest(raw, workload, seed):
    """Compare the run's digest with the recorded one for this seed.
    Returns (checked, ok, message)."""
    got = raw["passes"][0]["digest"]
    want = load_digests().get(workload, {}).get(str(seed))
    if want is None:
        return False, True, f"no recorded digest for seed {seed}"
    if got != want:
        return True, False, f"digest {got} != recorded {want} for seed {seed}"
    return True, True, ""


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_digests(binary, seeds):
    digests = load_digests()
    for workload in WORKLOADS:
        for seed in seeds:
            _, raw = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                         "--passes", "1"])
            if raw["accounting"]["checks_failed"] or raw["accounting"]["calls_failed"]:
                fail(f"{workload} seed {seed} fails its checks: "
                     f"{raw['accounting']['problems']}")
            digests.setdefault(workload, {})[str(seed)] = raw["passes"][0]["digest"]
            print(f"{workload} seed {seed}: {raw['passes'][0]['digest']}", flush=True)
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", metavar="SEEDS",
                    help="re-record digests.json for seeds like 1-20,7919")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the repository root: the library sources (src/) are missing")
    binary, build_root = build(root)
    if args.record_digests:
        record_digests(binary, parse_seeds(args.record_digests))
        return
    if not args.workload:
        fail("--workload is required")

    common = ["--workload", args.workload, "--seed", str(args.seed)]

    # Set-up time: spawn to first timed call, over several processes.
    setup = []
    for _ in range(SETUP_SPAWNS):
        start, raw = run_binary(binary, common + ["--setup-only"])
        setup.append(raw["ready_mono"] - start)

    spans_path = os.path.join(build_root, "spans",
                              f"{args.workload}-{args.seed}-{os.getpid()}.json")
    argv = common + ["--passes", str(timed_passes(args.workload, args.seconds)),
                     "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        argv += ["--spans", spans_path]
    start, raw = run_binary(binary, argv)
    setup.append(raw["ready_mono"] - start)

    acc = raw["accounting"]
    checked, digest_ok, digest_msg = check_digest(raw, args.workload, args.seed)
    if checked:
        acc["checks"] += 1
        acc["checks_failed"] += 0 if digest_ok else 1
    if not digest_ok:
        acc["problems"].append(digest_msg)
    attempted, failed, frac = stats.fail_frac(acc)
    correct = acc["checks_failed"] == 0 and acc["calls_failed"] == 0

    if args.trace:
        with open(spans_path) as f:
            spans = json.load(f)
        metrics = per_layer(raw, spans)
    else:
        metrics = end_to_end(raw, setup)

    # Cache hits beside every timing, so a replay never passes as a solve.
    def per_pass(name):
        return stats.median(pass_values(raw, lambda p: p["counters"][name]))

    _, pct, n = stats.tail([op[1] for op in operations(raw)])
    print(f"# {args.workload} seed={args.seed} passes={len(raw['passes'])} "
          f"digest={raw['passes'][0]['digest']}{' (recorded)' if checked else ''} "
          f"unknowns={raw['info']['unknowns']} "
          f"backend={'sparse' if raw['info']['sparse'] else 'dense'}")
    print(f"# per pass: cache.hits={per_pass('cache.hits'):g} "
          f"cache.misses={per_pass('cache.misses'):g} "
          f"spice.steps={per_pass('spice.steps'):g}")
    print(f"# latency tail = p{pct:.2f} of {n} operations"
          + (" (the maximum: too few for the rank rule)" if pct == 100.0 else ""))
    print(f"# fail_frac={frac:.6g} ({failed} of {attempted})")
    for problem in acc["problems"]:
        print(f"# problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
