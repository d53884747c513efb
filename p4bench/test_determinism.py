#!/usr/bin/env python3
"""Self-test of the benchmark: the seed alone fixes what is simulated.

    python3 p4bench/test_determinism.py [workload ...]

For each workload (all by default) it runs the driver twice with one seed
and once with another, each in a fresh process, plus once traced. It checks
that the two same-seed runs report identical simulated metrics and per-layer
counts, that the traced run simulates the same thing as the untraced one,
and that another seed changes the proposed values. Exits 1 on any failure.
"""

import sys

import run

SEED, OTHER_SEED, SECONDS = 7, 8, 1


def check(workload, binary):
    first = run.run_driver(binary, workload, SEED, SECONDS, traced=False)
    second = run.run_driver(binary, workload, SEED, SECONDS, traced=False)
    other = run.run_driver(binary, workload, OTHER_SEED, SECONDS, traced=False)
    traced = run.run_driver(binary, workload, SEED, SECONDS, traced=True)
    if not (first and second and other and traced):
        return "a driver run failed"
    if first["sim"] != second["sim"]:
        diff = sorted(k for k in first["sim"] if first["sim"][k] != second["sim"].get(k))
        return f"same seed, different simulated results: {diff}"
    if not run.same_simulation(first, traced):
        return "tracing changed the simulated results"
    if first["sim"]["delivered_hash_low32"] == other["sim"]["delivered_hash_low32"]:
        return "another seed proposed the same values"
    return None


def main():
    workloads = sys.argv[1:] or [w["name"] for w in run.load_spec()["workloads"]]
    binary = run.build()
    if binary is None:
        print("FAIL build")
        return 1
    failures = 0
    for workload in workloads:
        error = check(workload, binary)
        print(f"{'FAIL' if error else 'PASS'} {workload}{': ' + error if error else ''}")
        failures += error is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
