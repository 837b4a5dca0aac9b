#!/usr/bin/env bash
#===- scripts/ci.sh - Full verification pipeline ----------------------------===#
#
# Part of the OPD project: a reproduction of "Online Phase Detection
# Algorithms" (CGO 2006).
#
# Runs the complete CI matrix from a clean tree as named stages:
#
#   plain:        configure + build (warnings-as-errors) + full ctest
#   kernel-check: the shipped sweep specs certify wraparound-free at the
#                 evaluation's 62M-element trace scale, with the full
#                 18-shape lane plan printed into the CI log
#   serve-check:  wire-protocol model checker vs the real ServeSession vs
#                 docs/SERVING.md, plus a fixed-seed model-guided fuzz run
#   tidy:         clang-tidy over src/ when it is on PATH (skips otherwise)
#   clang:        a clang++ configuration so -Wthread-safety verifies the
#                 locking annotations (skips when clang++ is absent)
#   asan-ubsan:   full ctest under Address + UndefinedBehaviorSanitizer,
#                 with -D_GLIBCXX_ASSERTIONS so libstdc++ precondition
#                 checks (std::clamp bounds, vector indexing) abort too
#   ubsan-int:    the kernel/detector/batch arithmetic suites under
#                 clang's -fsanitize=undefined,integer (gcc fallback:
#                 undefined only) — the gain/loss kernel deltas and the
#                 batch min-sum must hold their no-wraparound
#                 certificates at runtime, not just in the KernelBounds
#                 abstract interpretation; the min-sum's scalar loop is
#                 sanitized through BatchKernelTest's >= 2^32 totals
#   serve-smoke:  a real opd_serve daemon under ASan/UBSan (the
#                 asan-ubsan tree, libstdc++ assertions included) takes a few
#                 hundred opd_loadgen --verify sessions, then drains
#                 cleanly on SIGTERM
#   tsan:         ThreadSanitizer over the concurrency-exercising tests,
#                 with OPD_THREADS=4 so single-core runners still run
#                 real threads
#   sweep-shared: a warnings-as-errors Release build of every target,
#                 the shared-scan engine's bit-identity differential
#                 (tests/SharedScanTest.cpp), then a Release pruned
#                 paper sweep timed against the BENCH_PERF.json
#                 sweep_shared_seconds entry, within 25%
#                 (scripts/check_perf.py --sweep-shared)
#   perf:         (same Release tree as sweep-shared)
#                 Release perf smoke vs BENCH_PERF.json — the fast
#                 detector ratios within 25% and the serving ratio
#                 within 50% (scripts/check_perf.py)
#
# All ctest configurations include the jp_lint_* / config_check_* tests,
# which lint the bundled .jp workloads and the shipped sweep specs. The
# opd_serve process handling is shared with serve_differential.sh via
# scripts/serve_common.sh. A per-stage wall-clock summary is printed on
# exit (also when a stage fails).
#
# Usage: scripts/ci.sh [--list-stages] [--stage NAME]... [build-dir-prefix]
#
#   scripts/ci.sh                      # every stage, in order
#   scripts/ci.sh --stage tsan         # just the tsan stage
#   scripts/ci.sh --stage plain --stage tsan my-prefix
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=scripts/serve_common.sh
. scripts/serve_common.sh

ALL_STAGES=(plain kernel-check serve-check tidy clang asan-ubsan
  ubsan-int serve-smoke tsan sweep-shared perf)

SELECTED=()
PREFIX=""
while [ $# -gt 0 ]; do
  case "$1" in
  --list-stages)
    printf '%s\n' "${ALL_STAGES[@]}"
    exit 0
    ;;
  --stage)
    [ $# -ge 2 ] || { echo "ci.sh: --stage needs a name" >&2; exit 2; }
    case " ${ALL_STAGES[*]} " in
    *" $2 "*) SELECTED+=("$2") ;;
    *)
      echo "ci.sh: unknown stage '$2' (see --list-stages)" >&2
      exit 2
      ;;
    esac
    shift 2
    ;;
  -*)
    echo "ci.sh: unknown option '$1'" >&2
    exit 2
    ;;
  *)
    PREFIX="$1"
    shift
    ;;
  esac
done
PREFIX="${PREFIX:-build-ci}"
[ ${#SELECTED[@]} -gt 0 ] || SELECTED=("${ALL_STAGES[@]}")

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Configures and (incrementally) builds one named tree; stages that share
# a tree (plain / kernel-check / serve-check, asan-ubsan / serve-smoke,
# sweep-shared / perf) get a no-op rebuild when run in one invocation.
configure_build() {
  local name="$1"
  shift
  local dir="${PREFIX}-${name}"
  echo "=== [$name] configure ($*) ==="
  cmake -B "$dir" -S . -DOPD_WERROR=ON "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$JOBS"
}

run_ctest() {
  local name="$1"
  shift
  echo "=== [$name] ctest ($*) ==="
  ctest --test-dir "${PREFIX}-${name}" --output-on-failure -j "$JOBS" "$@"
}

stage_plain() {
  configure_build plain
  run_ctest plain
}

stage_kernel_check() {
  configure_build plain
  "${PREFIX}-plain/examples/kernel_check" --preset paper --trace-len 62M \
    --lane-plan
}

stage_serve_check() {
  configure_build plain
  "${PREFIX}-plain/examples/serve_check" --impl --doc docs/SERVING.md \
    --fuzz 500 --seed 7 --stats
}

stage_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "=== clang-tidy not found; skipping (config: .clang-tidy) ==="
    return 0
  fi
  configure_build plain -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  find src -name '*.cpp' -print0 |
    xargs -0 -P "$JOBS" -n 4 clang-tidy -p "${PREFIX}-plain" --quiet
}

stage_clang() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "=== clang++ not found; skipping -Wthread-safety configuration ==="
    return 0
  fi
  configure_build clang -DCMAKE_CXX_COMPILER=clang++
  run_ctest clang
}

# The asan-ubsan tree, shared by the asan-ubsan and serve-smoke stages.
configure_build_asan_ubsan() {
  configure_build asan-ubsan -DOPD_SANITIZE="address;undefined" \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
}

stage_asan_ubsan() {
  configure_build_asan_ubsan
  run_ctest asan-ubsan
}

stage_ubsan_int() {
  # clang's integer sanitizer traps unsigned wraparound too, which the
  # gain/loss delta forms and the batch min-sum accumulators are
  # certified never to need (analysis/KernelBounds.h). gcc has no
  # -fsanitize=integer, so the fallback rides the plain undefined
  # sanitizer there.
  local tests='KernelBounds|CoreKernel|FastDetector|BatchKernel'
  if command -v clang++ >/dev/null 2>&1; then
    configure_build ubsan-int -DCMAKE_CXX_COMPILER=clang++ \
      -DOPD_SANITIZE="undefined;integer"
  else
    echo "=== clang++ not found; running the integer leg under gcc ubsan ==="
    configure_build ubsan-int -DOPD_SANITIZE=undefined
  fi
  run_ctest ubsan-int -R "$tests"
}

stage_serve_smoke() {
  # A real opd_serve daemon under ASan/UBSan takes a few hundred loadgen
  # sessions with --verify (every streamed transition sequence is rebuilt
  # and compared against offline runDetector), then drains cleanly on
  # SIGTERM. Any sanitizer report, session failure, equivalence mismatch,
  # or unclean shutdown fails CI.
  configure_build_asan_ubsan
  local dir="${PREFIX}-asan-ubsan"
  start_opd_serve "$dir/examples/opd_serve" "$dir/serve_smoke.log"
  "$dir/examples/opd_loadgen" --port "$SERVE_PORT" \
    --sessions 64 --total 300 --workload db --scale 0.05 --verify
  stop_opd_serve
}

stage_tsan() {
  configure_build tsan -DOPD_SANITIZE=thread
  OPD_THREADS=4 ctest --test-dir "${PREFIX}-tsan" --output-on-failure \
    -j "$JOBS" -R 'Parallel|Sweep|Observ|Config|Serve'
}

# The Release tree, shared by the sweep-shared and perf stages. Every
# target is built with warnings as errors, so a warning that only an
# NDEBUG build raises (an assert-only variable, say) fails CI.
configure_build_release() {
  configure_build perf -DCMAKE_BUILD_TYPE=Release
}

stage_sweep_shared() {
  # The shared-scan engine ships on a bit-identity contract
  # (core/SharedScan.h): the differential suite must hold, and the
  # pruned paper sweep must not get slower than the committed baseline.
  configure_build_release
  local dir="${PREFIX}-perf"
  echo "=== [sweep-shared] differential ==="
  "$dir/tests/shared_scan_test"
  echo "=== [sweep-shared] pruned paper sweep ==="
  # Best of 2: the timing is checked against a ceiling, and the minimum
  # is robust to a run landing in a host throttle window.
  local best="" s t0 t1
  for _ in 1 2; do
    t0=$(date +%s.%N)
    "$dir/examples/sweep_tool" --preset paper --prune \
      --workloads jess --mpls 10K > /dev/null
    t1=$(date +%s.%N)
    s=$(python3 -c "print($t1 - $t0)")
    best=$(python3 -c "print(min($s, ${best:-$s}))")
  done
  python3 scripts/check_perf.py --sweep-shared "$best" - BENCH_PERF.json
}

stage_perf() {
  configure_build_release
  local dir="${PREFIX}-perf"
  "$dir/bench/bench_perf" \
    --benchmark_filter='BM_Detector/|BM_FastDetector/' \
    --benchmark_min_time=0.5 \
    --benchmark_format=json > "$dir/bench_smoke.json"
  start_opd_serve "$dir/examples/opd_serve" "$dir/serve_smoke.log"
  "$dir/examples/opd_loadgen" --port "$SERVE_PORT" \
    --sessions 128 --total 256 --json > "$dir/serving_smoke.json"
  stop_opd_serve
  python3 scripts/check_perf.py "$dir/bench_smoke.json" BENCH_PERF.json \
    0.25 "$dir/serving_smoke.json"
}

STAGE_TIMES=""
print_summary() {
  local status=$?
  kill_opd_serve
  if [ -n "$STAGE_TIMES" ]; then
    echo "=== stage timing ==="
    printf '%s' "$STAGE_TIMES"
  fi
  if [ "$status" -eq 0 ]; then
    echo "=== CI passed (${SELECTED[*]}) ==="
  else
    echo "=== CI FAILED (exit $status) ==="
  fi
}
trap print_summary EXIT

for stage in "${SELECTED[@]}"; do
  echo "=== stage: $stage ==="
  stage_t0=$SECONDS
  "stage_${stage//-/_}"
  STAGE_TIMES="${STAGE_TIMES}$(printf '%-12s %5ss' "$stage" \
    "$((SECONDS - stage_t0))")"$'\n'
done
