//===- bench/BenchPerf.cpp - Overhead microbenchmarks -------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper defers overhead analysis to future work (Section 7, "we plan
/// to investigate and optimize the overhead of accurate phase
/// detection"). This google-benchmark binary provides that measurement
/// for this implementation: per-element detector cost across model and
/// window policies, kernel and analyzer costs, and the costs of the
/// offline stages (interpretation, oracle construction, scoring).
///
//===----------------------------------------------------------------------===//

#include "baseline/BaselineSolution.h"
#include "core/DetectorConfig.h"
#include "core/DetectorRunner.h"
#include "core/FastDetector.h"
#include "core/RelatedWork.h"
#include "harness/Experiment.h"
#include "metrics/Scoring.h"
#include "obs/RunTrace.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

using namespace opd;

namespace {

/// A mid-size trace shared across benchmarks (jess at reduced scale).
const BenchmarkData &sharedBenchmark() {
  static const std::vector<BenchmarkData> Data =
      prepareBenchmarks({"jess"}, {10000}, /*Scale=*/0.25);
  return Data.front();
}

DetectorConfig configFor(ModelKind Model, TWPolicyKind Policy) {
  DetectorConfig C;
  C.Window.CWSize = 5000;
  C.Window.TWSize = 5000;
  C.Window.TWPolicy = Policy;
  C.Model = Model;
  C.TheAnalyzer = AnalyzerKind::Threshold;
  C.AnalyzerParam = 0.6;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Online detector throughput (the number that matters for VM deployment)
//===----------------------------------------------------------------------===//

static void BM_Detector(benchmark::State &State, ModelKind Model,
                        TWPolicyKind Policy) {
  const BenchmarkData &B = sharedBenchmark();
  std::unique_ptr<PhaseDetector> D =
      makeDetector(configFor(Model, Policy), B.Trace.numSites());
  for (auto _ : State) {
    DetectorRun Run = runDetector(*D, B.Trace);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}

BENCHMARK_CAPTURE(BM_Detector, unweighted_constant,
                  ModelKind::UnweightedSet, TWPolicyKind::Constant);
BENCHMARK_CAPTURE(BM_Detector, unweighted_adaptive,
                  ModelKind::UnweightedSet, TWPolicyKind::Adaptive);
BENCHMARK_CAPTURE(BM_Detector, weighted_constant, ModelKind::WeightedSet,
                  TWPolicyKind::Constant);
BENCHMARK_CAPTURE(BM_Detector, weighted_adaptive, ModelKind::WeightedSet,
                  TWPolicyKind::Adaptive);

// The monomorphic fast path (core/FastDetector.h) over the exact
// configurations of BM_Detector above: kernel and analyzer inlined into
// the consume loop, the DetectorRun reused across iterations the way the
// sweep arenas reuse it. Output is bit-identical to the reference path;
// the ratio of the two is the cost of per-element virtual dispatch.
static void BM_FastDetector(benchmark::State &State, ModelKind Model,
                            TWPolicyKind Policy) {
  const BenchmarkData &B = sharedBenchmark();
  std::unique_ptr<OnlineDetector> D =
      makeFastDetector(configFor(Model, Policy), B.Trace.numSites());
  DetectorRun Run;
  for (auto _ : State) {
    runDetector(*D, B.Trace, Run);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}

BENCHMARK_CAPTURE(BM_FastDetector, unweighted_constant,
                  ModelKind::UnweightedSet, TWPolicyKind::Constant);
BENCHMARK_CAPTURE(BM_FastDetector, unweighted_adaptive,
                  ModelKind::UnweightedSet, TWPolicyKind::Adaptive);
BENCHMARK_CAPTURE(BM_FastDetector, weighted_constant,
                  ModelKind::WeightedSet, TWPolicyKind::Constant);
BENCHMARK_CAPTURE(BM_FastDetector, weighted_adaptive,
                  ModelKind::WeightedSet, TWPolicyKind::Adaptive);

static void BM_DetectorSkipFactor(benchmark::State &State) {
  const BenchmarkData &B = sharedBenchmark();
  DetectorConfig C =
      configFor(ModelKind::UnweightedSet, TWPolicyKind::Constant);
  C.Window.SkipFactor = static_cast<uint32_t>(State.range(0));
  std::unique_ptr<PhaseDetector> D = makeDetector(C, B.Trace.numSites());
  for (auto _ : State) {
    DetectorRun Run = runDetector(*D, B.Trace);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}
BENCHMARK(BM_DetectorSkipFactor)->Arg(1)->Arg(16)->Arg(256)->Arg(5000);

// The observability hooks must be zero-cost when no observer is attached
// (the BM_Detector numbers above) and cheap when one is: this measures a
// full run with a CountingObserver against unweighted_adaptive above.
static void BM_DetectorObserved(benchmark::State &State) {
  const BenchmarkData &B = sharedBenchmark();
  std::unique_ptr<PhaseDetector> D = makeDetector(
      configFor(ModelKind::UnweightedSet, TWPolicyKind::Adaptive),
      B.Trace.numSites());
  for (auto _ : State) {
    CountingObserver Observer;
    DetectorRun Run = runDetector(*D, B.Trace, &Observer);
    benchmark::DoNotOptimize(Observer.counters().Evaluations);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}
BENCHMARK(BM_DetectorObserved);

static void BM_LuDetectorRun(benchmark::State &State) {
  const BenchmarkData &B = sharedBenchmark();
  LuDetector D({});
  for (auto _ : State) {
    DetectorRun Run = runDetector(D, B.Trace);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}
BENCHMARK(BM_LuDetectorRun);

static void BM_DasDetectorRun(benchmark::State &State) {
  const BenchmarkData &B = sharedBenchmark();
  DasDetector D({}, B.Trace.numSites());
  for (auto _ : State) {
    DetectorRun Run = runDetector(D, B.Trace);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}
BENCHMARK(BM_DasDetectorRun);

//===----------------------------------------------------------------------===//
// Kernel microbenchmarks
//===----------------------------------------------------------------------===//

static void BM_KernelSteadyState(benchmark::State &State, ModelKind Kind) {
  const SiteIndex NumSites = 256;
  std::unique_ptr<SimilarityKernel> K = makeKernel(Kind, NumSites);
  Xoshiro256 Rng(1);
  std::vector<SiteIndex> CW, TW;
  for (int I = 0; I < 1000; ++I) {
    SiteIndex S = static_cast<SiteIndex>(Rng.nextBelow(NumSites));
    K->cwAdd(S);
    CW.push_back(S);
    S = static_cast<SiteIndex>(Rng.nextBelow(NumSites));
    K->twAdd(S);
    TW.push_back(S);
  }
  size_t Cursor = 0;
  for (auto _ : State) {
    SiteIndex In = static_cast<SiteIndex>(Rng.nextBelow(NumSites));
    K->cwReplace(In, CW[Cursor]);
    CW[Cursor] = In;
    In = static_cast<SiteIndex>(Rng.nextBelow(NumSites));
    K->twReplace(In, TW[Cursor]);
    TW[Cursor] = In;
    benchmark::DoNotOptimize(K->similarity());
    Cursor = (Cursor + 1) % CW.size();
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK_CAPTURE(BM_KernelSteadyState, unweighted,
                  ModelKind::UnweightedSet);
BENCHMARK_CAPTURE(BM_KernelSteadyState, weighted, ModelKind::WeightedSet);

static void BM_WeightedKernelDirtyRecompute(benchmark::State &State) {
  const SiteIndex NumSites = static_cast<SiteIndex>(State.range(0));
  WeightedSetKernel K(NumSites);
  Xoshiro256 Rng(2);
  for (int I = 0; I < 2000; ++I) {
    K.cwAdd(static_cast<SiteIndex>(Rng.nextBelow(NumSites)));
    K.twAdd(static_cast<SiteIndex>(Rng.nextBelow(NumSites)));
  }
  for (auto _ : State) {
    // Growing the TW dirties the kernel; similarity() then recomputes.
    K.twAdd(static_cast<SiteIndex>(Rng.nextBelow(NumSites)));
    benchmark::DoNotOptimize(K.similarity());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_WeightedKernelDirtyRecompute)->Arg(64)->Arg(256)->Arg(1024);

//===----------------------------------------------------------------------===//
// Offline stages
//===----------------------------------------------------------------------===//

static void BM_InterpretWorkload(benchmark::State &State) {
  const Workload *W = findWorkload("db");
  for (auto _ : State) {
    ExecutionResult R = executeWorkload(*W, 0.1);
    benchmark::DoNotOptimize(R.Branches.size());
    State.SetItemsProcessed(State.items_processed() +
                            static_cast<int64_t>(R.Branches.size()));
  }
}
BENCHMARK(BM_InterpretWorkload);

static void BM_BaselineConstruction(benchmark::State &State) {
  const BenchmarkData &B = sharedBenchmark();
  for (auto _ : State) {
    std::vector<BaselineSolution> Sols =
        computeBaselines(B.CallLoop, B.Trace.size(), {1000, 10000, 100000});
    benchmark::DoNotOptimize(Sols.size());
  }
}
BENCHMARK(BM_BaselineConstruction);

static void BM_Scoring(benchmark::State &State) {
  const BenchmarkData &B = sharedBenchmark();
  std::unique_ptr<PhaseDetector> D = makeDetector(
      configFor(ModelKind::UnweightedSet, TWPolicyKind::Adaptive),
      B.Trace.numSites());
  DetectorRun Run = runDetector(*D, B.Trace);
  for (auto _ : State) {
    AccuracyScore S =
        scoreDetection(Run.States, B.Baselines.front().states());
    benchmark::DoNotOptimize(S.Score);
  }
}
BENCHMARK(BM_Scoring);

BENCHMARK_MAIN();
