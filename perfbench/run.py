#!/usr/bin/env python3
"""End-to-end benchmark of the ebrc library.

Builds perfbench/ (the library sources plus perfbench.cpp, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and runs one
workload, or all of them:

    python3 perfbench/run.py --workload lab_sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. perfbench/NOTES.md defines them. Build output goes to
stderr. With the default build directory, every path used is inside the
checkout that holds this file.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lab_sweep", "churn_200k", "zoo_cells")
RUN_TIMEOUT_S = 170  # one run must end within 180 s; the build is timed separately


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build() -> Path:
    out = build_dir()
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def run_one(binary: Path, workload: str, args) -> tuple[str, dict]:
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(build_dir() / "work")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                          check=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"{workload}: malformed result line: {lines[-1]}")
    return "\n".join(lines), result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in (0, 600]")

    try:
        binary = build()
        if args.workload != "all":
            log, _ = run_one(binary, args.workload, args)
            print(log)
            return 0
        # Every workload in its own process, so peak RSS is per workload.
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS:
            log, result = run_one(binary, w, args)
            print(log.rsplit("\n", 1)[0])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                merged["metrics"][f"{w}.{name}"] = m
        print(json.dumps(merged))
        return 0
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
