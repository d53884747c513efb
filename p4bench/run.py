#!/usr/bin/env python3
"""Repository benchmark: simulator speed and simulated commit metrics.

Run from the repository root:

    python3 p4bench/run.py --workload p4ce_small --seed 1 --seconds 10 --trace 0

Builds p4bench/ (which compiles ../src) into $CARGO_TARGET_DIR/p4bench, or
.bench_build/p4bench when that variable is unset, then runs the workload in
a fresh driver process. With --trace 0 it prints every end-to-end metric of
BENCHMARK.json; with --trace 1 it runs an untraced and a traced process and
prints every per-layer metric. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any failed build, output
check or missing metric exits 1 without printing that line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "p4bench")


def build():
    """Configure and build the driver; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "p4bench_driver")


def run_driver(binary, workload, seed, seconds, traced):
    """Runs one driver process; returns its parsed result or None."""
    # No P4CE_* variable may change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("P4CE_")}
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=seconds + 90)
    except subprocess.TimeoutExpired:
        log(f"p4bench: {workload} driver timed out")
        return None
    if proc.returncode != 0:
        log(f"p4bench: {workload} driver exited with {proc.returncode}")
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def med(result, key):
    return statistics.median(result["host"][key])


def end_to_end(plain):
    return {
        "host_commits_per_s": med(plain, "host_commits_per_s"),
        "setup_s": med(plain, "setup_s"),
        "peak_rss_mb": med(plain, "peak_rss_mb"),
        "sim_commit_rate_mps": plain["sim"]["sim_commit_rate_mps"],
        "sim_latency_p50_us": plain["sim"]["sim_latency_p50_us"],
        "sim_latency_p999_us": plain["sim"]["sim_latency_p999_us"],
        "committed_frac": plain["sim"]["committed_frac"],
    }


def per_layer(plain, traced):
    values = dict(traced["sim"])
    values.update({
        "sim.host_ns_per_event": med(plain, "host_ns_per_event"),
        "sim.event_ns": med(traced, "sim.event_ns"),
        "p4ce.ingress_ns": med(traced, "p4ce.ingress_ns"),
        "p4ce.egress_ns": med(traced, "p4ce.egress_ns"),
        "consensus.propose_ns": med(traced, "propose_ns"),
        "workload.raw_host_commits_per_s": med(plain, "raw_host_commits_per_s"),
        "workload.calib_ops_per_s": med(plain, "calib_ops_per_s"),
        "core.create_s": med(plain, "create_s"),
        "core.start_s": med(plain, "start_s"),
        "workload.touch_64mib_s": med(plain, "touch_s"),
        "obs.trace_overhead": med(plain, "host_commits_per_s") / med(traced, "host_commits_per_s"),
        "workload.driver_ns_per_commit": med(traced, "driver_ns_per_commit"),
    })
    return values


def same_simulation(plain, traced):
    """Tracing must not change a single simulated result."""
    return all(traced["sim"].get(k) == v for k, v in plain["sim"].items())


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    t0 = time.monotonic()
    binary = build()
    if binary is None:
        log("p4bench: build failed")
        return 1
    log(f"p4bench: build ready in {time.monotonic() - t0:.1f} s")

    if args.trace:
        half = max(1, args.seconds // 2)
        plain = run_driver(binary, args.workload, args.seed, half, traced=False)
        traced = plain and run_driver(binary, args.workload, args.seed, half, traced=True)
        if not plain or not traced:
            return 1
        if not same_simulation(plain, traced):
            log("p4bench: the traced run simulated something different from the untraced run")
            return 1
        values = per_layer(plain, traced)
        runs = (plain, traced)
    else:
        plain = run_driver(binary, args.workload, args.seed, args.seconds, traced=False)
        if not plain:
            return 1
        values = end_to_end(plain)
        runs = (plain,)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            log(f"p4bench: metric {m['name']} was not measured")
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload:>15} {m['name']:<45} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"{args.workload:>15} latency samples per rep: {int(plain['sim']['workload.latency_samples'])}, "
          f"reps: {sum(r['reps'] for r in runs)}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
