#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark (see README.md).

Usage: python3 t1bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness and the library are built from the sources of this checkout into
$CARGO_TARGET_DIR (default: .bench_build at the checkout root). The workload
runs in its own process with a fresh, private T1SFQ_CACHE_DIR, so set-up
always builds the rewrite database. The harness output is relayed; its last
line is the JSON result, whose metric names are checked against
BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rand-default", "table1-paper", "service-eco")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then builds the harness target; returns its path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        sys.exit("run.py: the library sources (src/, CMakeLists.txt) are missing")
    out = build_dir / "t1bench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "t1bench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return out / "t1bench"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    doc = json.loads(spec.read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    exe = build(build_dir)

    cache = build_dir / "cache" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    env = dict(os.environ, T1SFQ_CACHE_DIR=str(cache))
    env.pop("T1SFQ_TRACE", None)  # recording only where the harness asks for it
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed % 2**64),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        # On timeout, run() kills the harness and waits for it.
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    want = expected_metrics(args.trace)
    if want is not None and list(result.get("metrics", {})) != want:
        print("run.py: the harness metrics do not match BENCHMARK.json", file=sys.stderr)
        print("error: metric set mismatch")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
