#!/usr/bin/env python3
"""Fail CI when a benchmark throughput or footprint regresses versus a baseline.

Compares per-workload throughput (events_per_sec for the kernel bench, pps
for the packet-path bench) of a freshly produced BENCH_*.json against a
baseline JSON committed under bench/baselines/. A workload fails when

    current < (1 - tolerance) * baseline

Throughput baselines are set deliberately LOW (roughly a third of a quiet
dev box) so the gate trips on structural regressions — an accidental O(n)
in the hot path, a lost inline fast path — rather than on shared-runner
noise; the default tolerance adds a further 25% slack on top.

Lower-is-better footprint keys (LOWER_IS_BETTER_KEYS: bytes_per_slot of the
churn bench) are gated only where the baseline entry carries them, as a
ceiling:

    current > (1 + tolerance) * baseline

Bytes per slot does not depend on the runner's speed, so these baselines
are the measured value itself, not a third of it.

Usage:
    check_bench_regression.py --current BENCH_net.json \
        --baseline bench/baselines/BENCH_net.baseline.json [--tolerance 0.25]
"""

import argparse
import json
import sys

THROUGHPUT_KEYS = ("events_per_sec", "pps")
LOWER_IS_BETTER_KEYS = ("bytes_per_slot",)


def throughput(workload: dict) -> tuple[str, float]:
    for key in THROUGHPUT_KEYS:
        if key in workload:
            return key, float(workload[key])
    raise KeyError(f"workload {workload.get('name')!r} has no throughput key "
                   f"(expected one of {THROUGHPUT_KEYS})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", required=True, help="freshly measured BENCH_*.json")
    ap.add_argument("--baseline", required=True, help="committed baseline JSON")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional regression versus baseline (default 0.25)")
    args = ap.parse_args()

    with open(args.current) as f:
        current = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    current_by_name = {w["name"]: w for w in current.get("workloads", []) if "name" in w}
    failures = []
    print(f"[bench-gate] {args.current} vs {args.baseline} "
          f"(tolerance {args.tolerance:.0%})")
    for base_wl in baseline.get("workloads", []):
        name = base_wl.get("name")
        if name is None:
            failures.append(f"baseline entry without a 'name' key: {base_wl!r}")
            continue
        cur_wl = current_by_name.get(name)
        if cur_wl is None:
            failures.append(f"{name}: missing from {args.current}")
            continue
        # A malformed or renamed-key workload entry is a clear per-workload
        # failure, not a traceback: report it and keep checking the rest so
        # one bad entry cannot mask other regressions.
        try:
            key, base_val = throughput(base_wl)
        except KeyError as e:
            failures.append(f"{name}: baseline entry unusable — {e.args[0]}")
            continue
        try:
            _, cur_val = throughput(cur_wl)
        except KeyError as e:
            failures.append(f"{name}: current entry unusable — {e.args[0]}")
            continue
        floor = (1.0 - args.tolerance) * base_val
        status = "ok" if cur_val >= floor else "REGRESSED"
        print(f"  {name:>16}  {key}: {cur_val:>12.0f}  "
              f"(baseline {base_val:.0f}, floor {floor:.0f})  {status}")
        if cur_val < floor:
            failures.append(f"{name}: {key} {cur_val:.0f} < floor {floor:.0f}")
        for key in LOWER_IS_BETTER_KEYS:
            if key not in base_wl:
                continue
            if key not in cur_wl:
                failures.append(f"{name}: current entry has no {key!r}")
                continue
            base_val = float(base_wl[key])
            cur_val = float(cur_wl[key])
            ceiling = (1.0 + args.tolerance) * base_val
            status = "ok" if cur_val <= ceiling else "REGRESSED"
            print(f"  {name:>16}  {key}: {cur_val:>12.0f}  "
                  f"(baseline {base_val:.0f}, ceiling {ceiling:.0f})  {status}")
            if cur_val > ceiling:
                failures.append(f"{name}: {key} {cur_val:.0f} > ceiling {ceiling:.0f}")

    if failures:
        print("[bench-gate] FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("[bench-gate] all workloads within their regression floors and ceilings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
