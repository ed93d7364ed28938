#!/usr/bin/env python3
"""Benchmark entry point: build the driver, run one workload, check, report.

Run from the root of the repository:

    python3 perfbench/run.py --workload sim_cnn --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (Release) into .bench_build/;
later calls rebuild incrementally.  The driver's JSON line is checked against
BENCHMARK.json (metric names and units) and against the outcomes earlier runs
of the same driver binary recorded for the same workload instances: committed
uploads, uplink bytes, final accuracy and the digest of the final parameters
must be identical every time, traced or not.  Records are keyed by a hash of
the binary, so a rebuilt program is compared only with itself.  The last line
printed is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Any bad option, a failed build or a driver crash exits non-zero without
printing a result.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
DRIVER = BUILD_DIR / "perfbench_driver"
OUTCOMES = BUILD_DIR / "outcomes.json"
MAX_SECONDS = 120  # the driver's own limit on --seconds


def driver_timeout_s(seconds):
    """The driver stops at a cycle boundary after the budget; allow that."""
    return 2 * seconds + 90


def parse_args(spec):
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= args.seconds <= MAX_SECONDS:
        p.error("--seconds must be in [1, %d]" % MAX_SECONDS)
    return args


def build():
    """Configures (once) and builds the driver; raises on failure."""
    log = sys.stderr
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=log, stderr=log)


def check_schema(result, spec, trace):
    """Errors for metrics that differ from BENCHMARK.json in name or unit."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    errors = []
    if set(want) != set(got):
        errors.append("metric names differ from BENCHMARK.json: missing %s, "
                      "extra %s" % (sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want))))
    for name in set(want) & set(got):
        if want[name] != got[name]:
            errors.append("%s: unit %s, BENCHMARK.json says %s"
                          % (name, got[name], want[name]))
    return errors


def driver_digest():
    """Identity of the built program: a hash of the driver binary."""
    return hashlib.sha256(DRIVER.read_bytes()).hexdigest()[:16]


def check_outcomes(result, build_id):
    """Compares each instance's outcome with the one recorded earlier by
    the same driver binary on the same kernel tier."""
    recorded = json.loads(OUTCOMES.read_text()) if OUTCOMES.exists() else {}
    prov = result["provenance"]
    errors = []
    for seed, outcome in result["outcomes"].items():
        key = "%s|%s|%s|%s" % (result["workload"], seed, prov["simd_level"],
                               build_id)
        if key in recorded and recorded[key] != outcome:
            errors.append("seed %s: outcome %s differs from the recorded %s"
                          % (seed, outcome, recorded[key]))
        recorded.setdefault(key, outcome)
    tmp = OUTCOMES.with_suffix(".tmp")
    tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    tmp.replace(OUTCOMES)
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec)
    try:
        build()
        build_id = driver_digest()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(BUILD_DIR / "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=driver_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("perfbench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    errors = list(result["errors"])
    errors += check_schema(result, spec, args.trace)
    errors += check_outcomes(result, build_id)
    correct = result["correct"] and not errors

    prov = result["provenance"]
    print("workload %s seed %d trace %d: %d untraced + %d traced trials in "
          "%.1f s, %d round periods" % (
              args.workload, args.seed, args.trace,
              result["trials"]["untraced"], result["trials"]["traced"],
              result["measured_s"], result["round_periods"]))
    print("build %s ndebug %s simd %s nproc %d cpu %s driver %s" % (
        prov["build_type"], prov["ndebug"], prov["simd_level"],
        prov["nproc"], prov["cpu_model"], build_id))
    for seed, o in sorted(result["outcomes"].items()):
        print("instance %s: digest %s uploads %d uploaded_bytes %d "
              "final_accuracy %.4f" % (seed, o["digest"], o["uploads"],
                                       o["uploaded_bytes"],
                                       o["final_accuracy"]))
    for name, m in result["metrics"].items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    for e in errors:
        print("error: %s" % e)
    print(json.dumps({"correct": bool(correct),
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
