#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py [--seconds 3]

It runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks that each run passes its output checks, reports every end-to-end
(untraced) or per-layer (traced) metric with its unit, and that the traced
run writes well-formed spans. Across the workloads every named layer must
report a nonzero metric. Then it corrupts one sweep score and one streamed
transition and checks that the output checks catch both: the run must
fail, report correct=false, and count the failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
LAYERS = ("lang", "vm", "baseline", "analysis", "core", "metrics", "harness",
          "serve")

problems = []


def problem(message):
    problems.append(message)
    print(f"FAIL {message}", flush=True)


def run(workload, seconds, trace, corrupt=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    try:
        return r.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return r.returncode, None


def check_result(what, code, result, wanted, positive):
    if result is None:
        problem(f"{what}: no result line")
        return
    if code != 0 or not result["correct"] or result["failed"] != 0:
        problem(f"{what}: exit {code}, correct={result['correct']}, "
                f"failed={result['failed']}")
    if result["attempted"] < 1:
        problem(f"{what}: attempted {result['attempted']}")
    got = result["metrics"]
    if list(got) != [m["name"] for m in wanted]:
        problem(f"{what}: metrics {sorted(got)} differ from BENCHMARK.json")
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            continue
        if v["unit"] != m["unit"]:
            problem(f"{what}: {m['name']} unit {v['unit']!r} != {m['unit']!r}")
        if not isinstance(v["value"], (int, float)) or \
                not math.isfinite(v["value"]):
            problem(f"{what}: {m['name']} value {v['value']!r}")
        elif positive and v["value"] <= 0:
            problem(f"{what}: {m['name']} is {v['value']}, must be > 0")


def check_spans(workload):
    path = os.path.join(ROOT, ".bench_build", "spans",
                        f"{workload}-seed7.json")
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        problem(f"{workload}: spans unreadable: {e}")
        return
    ids = {e["args"]["id"] for e in events}
    if not events:
        problem(f"{workload}: no spans")
    for e in events:
        if e["dur"] < 0 or not e["name"]:
            problem(f"{workload}: bad span {e}")
            return
        if e["args"]["parent"] and e["args"]["parent"] not in ids:
            problem(f"{workload}: span {e['name']} has an unknown parent")
            return


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    nonzero_layers = set()
    for w in spec["workloads"]:
        name = w["name"]
        code, result = run(name, args.seconds, 0)
        check_result(f"{name} untraced", code, result, spec["end_to_end"],
                     positive=True)
        code, result = run(name, args.seconds, 1)
        check_result(f"{name} traced", code, result, spec["per_layer"],
                     positive=False)
        check_spans(name)
        if result:
            for k, v in result["metrics"].items():
                if v["value"] != 0:
                    nonzero_layers.add(k.split(".")[0])
        print(f"ok {name}", flush=True)
    for layer in LAYERS:
        if layer not in nonzero_layers:
            problem(f"no workload reports a nonzero {layer}.* metric")

    for workload, corrupt in (("sweep-paper", "score"),
                              ("serve-open", "transition")):
        code, result = run(workload, args.seconds, 0, corrupt)
        if code == 0 or result is None or result["correct"] or \
                result["failed"] < 1:
            problem(f"{workload} with a corrupted {corrupt} was not caught: "
                    f"exit {code}, result {result and result['failed']}")
        else:
            print(f"ok corrupted {corrupt} caught", flush=True)

    print("selftest:", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
