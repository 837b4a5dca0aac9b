#!/usr/bin/env python3
"""Compare a bench_perf smoke run against the committed BENCH_PERF.json.

Part of the OPD project: a reproduction of "Online Phase Detection
Algorithms" (CGO 2006).

The comparison is on fast-over-reference throughput ratios, not absolute
throughput: both paths run in the same process seconds apart, so their
ratio is stable across machines and CPU frequency states, while absolute
M/s on a throttling host can swing far more than any real regression.
A case fails when its ratio drops more than the tolerance (default 25%)
below the committed baseline.

A case named <c> compares BM_FastDetector/<c> against BM_Detector/<c>.
Every baseline case is required: a case whose benchmarks are missing
from the smoke run fails the check.

When a serving smoke file (opd_loadgen --json output) is given and the
baseline carries a "serving" entry, serving_vs_offline_ratio — served
elements/sec over the single-thread offline fast detector, another
machine-relative ratio — is checked the same way, with a wider default
tolerance (50%) because it folds in scheduler and loopback variance.

The sweep wall-clock entries are guarded the same way. Whenever the
baseline carries both pruned_paper_sweep_seconds (per-config engine)
and sweep_shared_seconds (shared-scan engine), their ratio must stay at
or above SWEEP_RATIO_FLOOR — the committed baseline itself proves the
shared-scan win. --sweep-shared / --sweep-per-config feed freshly
measured timings in (seconds); each is held to the same >25% regression
rule as the per-case entries (against its baseline entry, and on the
machine-relative measured ratio when both are given). Pass "-" as the
smoke file to run only the sweep checks.

Usage: check_perf.py [--sweep-shared S] [--sweep-per-config S]
                     <smoke.json|-> <baseline.json> [tolerance] [serving.json]
"""

import json
import sys

SERVING_TOLERANCE = 0.5
# The shared-scan engine's reason to exist: the committed baseline must
# show at least this per-config/shared sweep wall-clock ratio.
SWEEP_RATIO_FLOOR = 1.8


def check_sweep(baseline, shared_s, per_config_s, tolerance):
    """Returns True when a sweep-timing check failed."""
    base_pc = baseline.get("pruned_paper_sweep_seconds")
    base_sh = baseline.get("sweep_shared_seconds")
    if base_pc is None or base_sh is None:
        if shared_s is not None or per_config_s is not None:
            print("perf: sweep: baseline lacks sweep entries "
                  "(rerun scripts/bench.sh): FAILED")
            return True
        print("perf: sweep: no baseline entries; skipping")
        return False

    failed = False
    base_ratio = base_pc / base_sh
    verdict = "ok" if base_ratio >= SWEEP_RATIO_FLOOR else "REGRESSION"
    print(f"perf: sweep: baseline per-config/shared {base_ratio:.2f}x "
          f"(floor {SWEEP_RATIO_FLOOR:.2f}x) {verdict}")
    failed |= base_ratio < SWEEP_RATIO_FLOOR

    for name, measured, base in (
            ("sweep_shared_seconds", shared_s, base_sh),
            ("pruned_paper_sweep_seconds", per_config_s, base_pc)):
        if measured is None:
            continue
        ceiling = base * (1.0 + tolerance)
        verdict = "ok" if measured <= ceiling else "REGRESSION"
        print(f"perf: sweep: {name} {measured:.1f}s "
              f"(baseline {base:.1f}s, ceiling {ceiling:.1f}s) {verdict}")
        failed |= measured > ceiling

    if shared_s is not None and per_config_s is not None:
        # Machine-relative, like the throughput ratios: both engines just
        # ran on the same host.
        ratio = per_config_s / shared_s
        floor = base_ratio * (1.0 - tolerance)
        verdict = "ok" if ratio >= floor else "REGRESSION"
        print(f"perf: sweep: measured per-config/shared {ratio:.2f}x "
              f"(baseline {base_ratio:.2f}x, floor {floor:.2f}x) {verdict}")
        failed |= ratio < floor
    return failed


def check_serving(serving_path, baseline):
    """Returns True when the serving ratio regressed."""
    expected = baseline.get("serving")
    if expected is None:
        print("perf: serving: no baseline entry; skipping")
        return False
    smoke = json.load(open(serving_path))
    if smoke.get("failed", 0) or smoke.get("mismatches", 0):
        print(f"perf: serving: smoke run had {smoke.get('failed', 0)} failed "
              f"sessions, {smoke.get('mismatches', 0)} mismatches: FAILED")
        return True
    ratio = smoke["serving_vs_offline_ratio"]
    floor = expected["serving_vs_offline_ratio"] * (1.0 - SERVING_TOLERANCE)
    verdict = "ok" if ratio >= floor else "REGRESSION"
    print(f"perf: serving: serving/offline {ratio:.4f} "
          f"(baseline {expected['serving_vs_offline_ratio']:.4f}, "
          f"floor {floor:.4f}) {verdict}")
    return ratio < floor


def main():
    argv = sys.argv[1:]
    sweep_shared = sweep_per_config = None
    positional = []
    i = 0
    while i < len(argv):
        if argv[i] == "--sweep-shared":
            sweep_shared = float(argv[i + 1])
            i += 2
        elif argv[i] == "--sweep-per-config":
            sweep_per_config = float(argv[i + 1])
            i += 2
        else:
            positional.append(argv[i])
            i += 1
    smoke_path, baseline_path = positional[0], positional[1]
    tolerance = float(positional[2]) if len(positional) > 2 else 0.25
    serving_path = positional[3] if len(positional) > 3 else None

    baseline_all = json.load(open(baseline_path))
    baseline = baseline_all["cases"]

    failed = False
    if smoke_path != "-":
        raw = json.load(open(smoke_path))
        rates = {}
        for bench in raw["benchmarks"]:
            if "items_per_second" not in bench:  # skipped (error_occurred)
                continue
            path, case = bench["name"].split("/", 1)
            rates.setdefault(case, {})[path] = bench["items_per_second"]

        for case, expected in sorted(baseline.items()):
            pair = rates.get(case, {})
            if "BM_FastDetector" not in pair or "BM_Detector" not in pair:
                print(f"perf: {case}: MISSING from smoke run")
                failed = True
                continue
            ratio = pair["BM_FastDetector"] / pair["BM_Detector"]
            floor = expected["ratio"] * (1.0 - tolerance)
            verdict = "ok" if ratio >= floor else "REGRESSION"
            print(f"perf: {case}: fast/ref {ratio:.2f}x "
                  f"(baseline {expected['ratio']:.2f}x, floor {floor:.2f}x) "
                  f"{verdict}")
            failed |= ratio < floor

    failed |= check_sweep(baseline_all, sweep_shared, sweep_per_config,
                          tolerance)

    if serving_path is not None:
        failed |= check_serving(serving_path, baseline_all)

    if failed:
        print("perf: regression against BENCH_PERF.json "
              "(rebaseline with scripts/bench.sh if intentional)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
