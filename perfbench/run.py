#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the OPD libraries and the benchmark program from source (CMake,
into .bench_build/perfbench), runs one workload, checks its outputs, and
prints every metric with its unit. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics: with --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list (a layer the workload does not exercise reads 0). --trace 1 also
writes the run's spans to .bench_build/spans/. The exit code is 0 only
when every output check passed.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "opd_perfbench")
# opd_perfbench must end within this many seconds of being started.
RUN_TIMEOUT = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def latency_limit_ms(spec):
    """The serve-open p99 limit, stated in that workload's `why`."""
    for w in spec["workloads"]:
        if w["name"] == "serve-open":
            m = re.search(r"p99 <= (\d+(?:\.\d+)?) ms", w["why"])
            if m:
                return m.group(1)
    fail("BENCHMARK.json states no 'p99 <= N ms' limit for serve-open")


def source_digest():
    """The git commit when there is one, else a digest of the sources the
    benchmark builds (a checkout without history still gets an id)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as f:
                    return f.read().strip()
        elif ref:
            return ref
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree next to perfbench/: nothing to build")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt", choices=("score", "transition"),
                    help="damage one output before the checks (self-test)")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--latency-limit-ms", latency_limit_ms(spec),
           "--commit", source_digest()]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]

    started = time.monotonic()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT} s", 3)
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"opd_perfbench exited {r.returncode} without a result", 3)
    print(f"context wall_s = {time.monotonic() - started:.1f}")

    # Select the metrics of this mode, in BENCHMARK.json's order.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                fail(f"{name}: unit {got[name]['unit']!r}, "
                     f"BENCHMARK.json says {unit!r}", 3)
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"{args.workload} did not report {name}", 3)

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if r.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
