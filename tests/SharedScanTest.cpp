//===- tests/SharedScanTest.cpp - Shared-scan differential tests --------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared-scan engine (core/SharedScan.h) is only admissible
/// because it is bit-identical to running each config through its own
/// detector. This suite is the guard: it drives the full configuration
/// shape grid through the engine and requires equal StateSequences,
/// detected phases, and anchored phases against both the per-config
/// fast path and the reference PhaseDetector; it holds the sweep
/// harness's default engine to the reference stats path's scores
/// (pruned and unpruned) and the stats path's counters to direct
/// observed runs; and it pins the paper preset's group structure so
/// plan regressions are loud.
///
//===----------------------------------------------------------------------===//

#include "core/DetectorConfig.h"
#include "core/DetectorRunner.h"
#include "core/FastDetector.h"
#include "core/SharedScan.h"
#include "harness/Experiment.h"
#include "harness/Sweep.h"
#include "obs/RunTrace.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>

using namespace opd;

namespace {

/// One small-scale workload shared by all differential tests.
const BenchmarkData &testBenchmark() {
  static const std::vector<BenchmarkData> Data =
      prepareBenchmarks({"jess"}, {1000, 10000}, /*Scale=*/0.1);
  return Data.front();
}

/// The shape-and-corner-case cross product FastDetectorTest also uses:
/// all three models, both TW policies, all three analyzer kinds, both
/// anchors and resizes, a skip factor above the CW size, and Fixed
/// Interval.
std::vector<DetectorConfig> differentialConfigs() {
  SweepSpec Spec;
  Spec.CWSizes = {50, 400};
  Spec.TWFactors = {1, 2};
  Spec.SkipFactors = {1, 10, 500};
  Spec.IncludeFixedInterval = true;
  Spec.Models = {ModelKind::UnweightedSet, ModelKind::WeightedSet,
                 ModelKind::ManhattanBBV};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.5},
                    {AnalyzerKind::Threshold, 0.8},
                    {AnalyzerKind::Average, 0.01},
                    {AnalyzerKind::Average, 0.3},
                    {AnalyzerKind::Hysteresis, 0.6},
                    {AnalyzerKind::Hysteresis, 0.1}};
  Spec.Anchors = {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy};
  Spec.Resizes = {ResizeKind::Slide, ResizeKind::Move};
  return enumerateCrossProduct(Spec);
}

void expectRunsEqual(const DetectorRun &Expected, const DetectorRun &Actual,
                     const DetectorConfig &Config, const char *Leg) {
  std::string Desc = Config.describe() + " [" + Leg + "]";
  ASSERT_EQ(Expected.States.size(), Actual.States.size()) << Desc;
  const std::vector<StateRun> &ER = Expected.States.runs();
  const std::vector<StateRun> &AR = Actual.States.runs();
  ASSERT_EQ(ER.size(), AR.size()) << Desc;
  for (size_t I = 0; I != ER.size(); ++I) {
    ASSERT_EQ(ER[I].Begin, AR[I].Begin) << Desc << " run " << I;
    ASSERT_EQ(ER[I].Length, AR[I].Length) << Desc << " run " << I;
    ASSERT_EQ(ER[I].State, AR[I].State) << Desc << " run " << I;
  }
  ASSERT_EQ(Expected.DetectedPhases, Actual.DetectedPhases) << Desc;
  ASSERT_EQ(Expected.AnchoredPhases, Actual.AnchoredPhases) << Desc;
}

/// Runs \p Configs through the shared-scan engine the way the sweep
/// harness does — grouped by planSharedScan, one reused engine per
/// model — and returns one DetectorRun per config, in config order.
std::vector<DetectorRun>
runShared(const std::vector<DetectorConfig> &Configs,
          const BranchTrace &Trace) {
  SharedScanPlan Plan = planSharedScan(Configs);
  std::array<std::unique_ptr<SharedScanEngineBase>, 3> Engines;
  std::vector<DetectorRun> Out(Configs.size());
  std::vector<DetectorRun> GroupRuns;
  for (const SharedScanGroup &G : Plan.Groups) {
    std::unique_ptr<SharedScanEngineBase> &Engine =
        Engines[static_cast<size_t>(G.Key.Model)];
    if (!Engine)
      Engine = makeSharedScanEngine(G.Key.Model, Trace.numSites());
    if (GroupRuns.size() < G.Members.size())
      GroupRuns.resize(G.Members.size());
    Engine->run(Configs, G.Members, Trace.elements().data(), Trace.size(),
                GroupRuns);
    for (size_t I = 0; I != G.Members.size(); ++I)
      Out[G.Members[I]] = GroupRuns[I];
  }
  return Out;
}

/// Blocks of disjoint site vocabularies, as in FastDetectorTest: phase
/// starts there see a TW with every element noisy as well as one with
/// none, so both anchor scans return both ends of the TW.
BranchTrace makeDisjointBlockTrace() {
  const unsigned Vocab = 8;
  BranchTrace Trace;
  for (unsigned S = 0; S != 3 * Vocab; ++S)
    Trace.internSite(ProfileElement(0, S, true));
  Xoshiro256 Rng(41);
  for (unsigned Block = 0; Block != 9; ++Block)
    for (unsigned I = 0; I != 600; ++I)
      Trace.appendIndex(static_cast<SiteIndex>((Block % 3) * Vocab +
                                               Rng.nextBelow(Vocab)));
  return Trace;
}

/// Every field of two scores, boundary counts included.
void expectScoresEqual(const AccuracyScore &A, const AccuracyScore &B,
                       const DetectorConfig &Config) {
  SCOPED_TRACE(Config.describe());
  EXPECT_EQ(A.Correlation, B.Correlation);
  EXPECT_EQ(A.Sensitivity, B.Sensitivity);
  EXPECT_EQ(A.FalsePositives, B.FalsePositives);
  EXPECT_EQ(A.Score, B.Score);
  EXPECT_EQ(A.MatchedBoundaries, B.MatchedBoundaries);
  EXPECT_EQ(A.BaselineBoundaries, B.BaselineBoundaries);
  EXPECT_EQ(A.DetectedBoundaries, B.DetectedBoundaries);
}

} // namespace

TEST(SharedScanTest, PlanPartitionsByWindowKernelShape) {
  std::vector<DetectorConfig> Configs = differentialConfigs();
  SharedScanPlan Plan = planSharedScan(Configs);

  // Every config lands in exactly one group, under its own key.
  std::vector<size_t> Seen(Configs.size(), 0);
  for (const SharedScanGroup &G : Plan.Groups) {
    EXPECT_FALSE(G.Members.empty());
    for (size_t Member : G.Members) {
      ASSERT_LT(Member, Configs.size());
      ++Seen[Member];
      EXPECT_TRUE(sharedScanKey(Configs[Member]) == G.Key);
    }
  }
  for (size_t Count : Seen)
    EXPECT_EQ(Count, 1u);

  // Exactly one group per distinct (model, CW, TW) shape.
  std::map<SharedScanKey, size_t> Distinct;
  for (const DetectorConfig &C : Configs)
    ++Distinct[sharedScanKey(C)];
  EXPECT_EQ(Plan.Groups.size(), Distinct.size());
  EXPECT_EQ(Plan.largestGroup(),
            [&] {
              size_t Largest = 0;
              for (const auto &[Key, Count] : Distinct)
                Largest = std::max(Largest, Count);
              return Largest;
            }());

  // The plan is deterministic.
  SharedScanPlan Again = planSharedScan(Configs);
  ASSERT_EQ(Plan.Groups.size(), Again.Groups.size());
  for (size_t I = 0; I != Plan.Groups.size(); ++I) {
    EXPECT_TRUE(Plan.Groups[I].Key == Again.Groups[I].Key);
    EXPECT_EQ(Plan.Groups[I].Members, Again.Groups[I].Members);
  }
}

// The load-bearing test: every configuration in the shape/corner-case
// cross product produces bit-identical output through the shared scan,
// the per-config fast path, and the reference detector.
TEST(SharedScanTest, BitIdenticalToFastAndReferenceAcrossTheConfigSpace) {
  const BenchmarkData &B = testBenchmark();
  std::vector<DetectorConfig> Configs = differentialConfigs();
  ASSERT_GT(Configs.size(), 500u);

  std::vector<DetectorRun> Shared = runShared(Configs, B.Trace);

  for (size_t I = 0; I != Configs.size(); ++I) {
    const DetectorConfig &Config = Configs[I];
    std::unique_ptr<OnlineDetector> Fast =
        makeFastDetector(Config, B.Trace.numSites());
    DetectorRun FastRun = runDetector(*Fast, B.Trace);
    expectRunsEqual(FastRun, Shared[I], Config, "shared vs fast");

    std::unique_ptr<PhaseDetector> Reference =
        makeDetector(Config, B.Trace.numSites());
    DetectorRun ReferenceRun = runDetector(*Reference, B.Trace);
    expectRunsEqual(ReferenceRun, Shared[I], Config, "shared vs reference");
  }
}

// Window/stride corners the grid's fixed sizes miss: a skip that never
// divides the trace, a skip exceeding the trace length (one short batch
// covers everything), and windows larger than the trace (never full —
// a single forced-Transition run).
TEST(SharedScanTest, StrideAndWindowCornerCases) {
  const BenchmarkData &B = testBenchmark();
  uint64_t TraceLen = B.Trace.size();
  ASSERT_GT(TraceLen, 0u);

  std::vector<DetectorConfig> Configs;
  for (ModelKind M : {ModelKind::UnweightedSet, ModelKind::WeightedSet})
    for (TWPolicyKind P : {TWPolicyKind::Constant, TWPolicyKind::Adaptive})
      for (uint32_t Skip :
           {uint32_t{97}, static_cast<uint32_t>(TraceLen + 13)}) {
        DetectorConfig C;
        C.Window.CWSize = 100;
        C.Window.TWSize = 100;
        C.Window.SkipFactor = Skip;
        C.Window.TWPolicy = P;
        C.Model = M;
        C.TheAnalyzer = AnalyzerKind::Threshold;
        C.AnalyzerParam = 0.6;
        Configs.push_back(C);
      }
  // Windows that never fill: every evaluation is a forced Transition.
  DetectorConfig Huge;
  Huge.Window.CWSize = static_cast<uint32_t>(TraceLen);
  Huge.Window.TWSize = static_cast<uint32_t>(TraceLen);
  Huge.Window.SkipFactor = 50;
  Huge.Model = ModelKind::UnweightedSet;
  Huge.TheAnalyzer = AnalyzerKind::Threshold;
  Huge.AnalyzerParam = 0.5;
  Configs.push_back(Huge);
  ASSERT_NE(TraceLen % 97, 0u);

  std::vector<DetectorRun> Shared = runShared(Configs, B.Trace);
  for (size_t I = 0; I != Configs.size(); ++I) {
    std::unique_ptr<OnlineDetector> Fast =
        makeFastDetector(Configs[I], B.Trace.numSites());
    DetectorRun FastRun = runDetector(*Fast, B.Trace);
    expectRunsEqual(FastRun, Shared[I], Configs[I], "corner");
  }
}

// The sweep's two paths — the default shared-scan engine and the
// reference detector with a CountingObserver (CollectStats) — must
// score identically, plain and anchored, pruned or not.
TEST(SharedScanTest, SweepDefaultEngineMatchesReferenceStatsPath) {
  const BenchmarkData &B = testBenchmark();
  SweepSpec Spec;
  Spec.CWSizes = {250};
  Spec.SkipFactors = {1, 10};
  Spec.Models = {ModelKind::UnweightedSet, ModelKind::WeightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6},
                    {AnalyzerKind::Average, 0.05},
                    {AnalyzerKind::Hysteresis, 0.4}};
  Spec.Anchors = {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy};
  Spec.Resizes = {ResizeKind::Slide, ResizeKind::Move};
  std::vector<DetectorConfig> Configs = enumerateConfigs(Spec);

  for (bool Prune : {false, true}) {
    SweepOptions DefaultOptions;
    DefaultOptions.ScoreAnchored = true;
    DefaultOptions.Prune = Prune;
    SweepOptions StatsOptions = DefaultOptions;
    StatsOptions.CollectStats = true;

    SweepStats DefaultStats;
    std::vector<RunScores> Default = runSweep(
        B.Trace, B.Baselines, Configs, DefaultOptions, &DefaultStats);
    std::vector<RunScores> Reference =
        runSweep(B.Trace, B.Baselines, Configs, StatsOptions);

    EXPECT_EQ(DefaultStats.NumConfigs, Configs.size());
    EXPECT_EQ(DefaultStats.RunsExecuted + DefaultStats.RunsPruned,
              Configs.size());

    ASSERT_EQ(Default.size(), Reference.size());
    for (size_t I = 0; I != Default.size(); ++I) {
      ASSERT_EQ(Default[I].PerMPL.size(), Reference[I].PerMPL.size());
      for (size_t M = 0; M != Default[I].PerMPL.size(); ++M)
        expectScoresEqual(Default[I].PerMPL[M], Reference[I].PerMPL[M],
                          Configs[I]);
      ASSERT_EQ(Default[I].AnchoredPerMPL.size(),
                Reference[I].AnchoredPerMPL.size());
      for (size_t M = 0; M != Default[I].AnchoredPerMPL.size(); ++M)
        expectScoresEqual(Default[I].AnchoredPerMPL[M],
                          Reference[I].AnchoredPerMPL[M], Configs[I]);
    }
  }
}

// The CollectStats path runs every configuration on the reference
// detector with a CountingObserver: each run's counters must equal a
// direct observed run of that configuration and its stage times must be
// recorded, while the default path leaves counters and times empty.
TEST(SharedScanTest, SweepStatsPathCountersMatchDirectObservedRuns) {
  const BenchmarkData &B = testBenchmark();
  SweepSpec Spec;
  Spec.CWSizes = {250};
  Spec.SkipFactors = {1, 10};
  Spec.Models = {ModelKind::UnweightedSet, ModelKind::ManhattanBBV};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6},
                    {AnalyzerKind::Hysteresis, 0.4}};
  std::vector<DetectorConfig> Configs = enumerateConfigs(Spec);

  SweepOptions StatsOptions;
  StatsOptions.CollectStats = true;
  SweepStats Stats;
  std::vector<RunScores> Observed =
      runSweep(B.Trace, B.Baselines, Configs, StatsOptions, &Stats);
  std::vector<RunScores> Default = runSweep(B.Trace, B.Baselines, Configs);

  EXPECT_EQ(Stats.RunsExecuted, Configs.size());
  EXPECT_GT(Stats.DetectSeconds, 0.0);
  EXPECT_GT(Stats.ScoreSeconds, 0.0);

  ASSERT_EQ(Observed.size(), Configs.size());
  ASSERT_EQ(Default.size(), Configs.size());
  for (size_t I = 0; I != Configs.size(); ++I) {
    SCOPED_TRACE(Configs[I].describe());
    CountingObserver Direct;
    std::unique_ptr<PhaseDetector> Detector =
        makeDetector(Configs[I], B.Trace.numSites());
    runDetector(*Detector, B.Trace, &Direct);
    EXPECT_TRUE(Observed[I].Counters == Direct.counters());
    EXPECT_EQ(Observed[I].Counters.Elements, B.Trace.size());
    EXPECT_GT(Observed[I].DetectSeconds, 0.0);

    EXPECT_TRUE(Default[I].Counters == RunCounters{});
    EXPECT_EQ(Default[I].DetectSeconds, 0.0);
    EXPECT_EQ(Default[I].ScoreSeconds, 0.0);
  }
}

// An engine is an arena: running a group must not be affected by the
// groups the engine ran before (cursor arrays, shard pools, and kernel
// state are all reused). Run the groups twice through one engine set,
// in opposite orders, and require identical output.
TEST(SharedScanTest, EngineReuseAcrossGroupsMatchesFreshEngines) {
  const BenchmarkData &B = testBenchmark();
  std::vector<DetectorConfig> Configs = differentialConfigs();
  SharedScanPlan Plan = planSharedScan(Configs);
  ASSERT_GT(Plan.Groups.size(), 1u);

  std::array<std::unique_ptr<SharedScanEngineBase>, 3> Engines;
  for (size_t I = 0; I != 3; ++I)
    Engines[I] = makeSharedScanEngine(static_cast<ModelKind>(I),
                                      B.Trace.numSites());

  std::vector<DetectorRun> Forward(Configs.size());
  std::vector<DetectorRun> GroupRuns;
  for (const SharedScanGroup &G : Plan.Groups) {
    GroupRuns.resize(std::max(GroupRuns.size(), G.Members.size()));
    Engines[static_cast<size_t>(G.Key.Model)]->run(
        Configs, G.Members, B.Trace.elements().data(), B.Trace.size(),
        GroupRuns);
    for (size_t I = 0; I != G.Members.size(); ++I)
      Forward[G.Members[I]] = GroupRuns[I];
  }
  // Reverse pass through the same (now warm) engines.
  for (auto It = Plan.Groups.rbegin(); It != Plan.Groups.rend(); ++It) {
    const SharedScanGroup &G = *It;
    Engines[static_cast<size_t>(G.Key.Model)]->run(
        Configs, G.Members, B.Trace.elements().data(), B.Trace.size(),
        GroupRuns);
    for (size_t I = 0; I != G.Members.size(); ++I)
      expectRunsEqual(Forward[G.Members[I]], GroupRuns[I],
                      Configs[G.Members[I]], "warm reuse");
  }
}

// The shared engine's anchor scan over the trace slice must return the
// same TW index as the per-config windows at both ends of the TW: with
// every TW element noisy and with none.
TEST(SharedScanTest, AnchorScansAtBothTWEndsMatchFastAndReference) {
  BranchTrace Trace = makeDisjointBlockTrace();
  SweepSpec Spec;
  Spec.CWSizes = {40, 150};
  Spec.TWFactors = {1, 2};
  Spec.SkipFactors = {1, 9};
  Spec.Models = {ModelKind::UnweightedSet, ModelKind::WeightedSet,
                 ModelKind::ManhattanBBV};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.5},
                    {AnalyzerKind::Average, 0.01},
                    {AnalyzerKind::Average, 0.3},
                    {AnalyzerKind::Hysteresis, 0.6}};
  Spec.Anchors = {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy};
  Spec.Resizes = {ResizeKind::Slide, ResizeKind::Move};
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);

  std::vector<DetectorRun> Shared = runShared(Configs, Trace);
  for (size_t I = 0; I != Configs.size(); ++I) {
    std::unique_ptr<OnlineDetector> Fast =
        makeFastDetector(Configs[I], Trace.numSites());
    expectRunsEqual(runDetector(*Fast, Trace), Shared[I], Configs[I],
                    "blocks vs fast");
    std::unique_ptr<PhaseDetector> Reference =
        makeDetector(Configs[I], Trace.numSites());
    expectRunsEqual(runDetector(*Reference, Trace), Shared[I], Configs[I],
                    "blocks vs reference");
  }
}

// setBatchKernels stays on the engine base only as a no-op for an older
// caller: a group run after either setting is the same run.
TEST(SharedScanTest, SetBatchKernelsChangesNothing) {
  const BenchmarkData &B = testBenchmark();
  std::vector<DetectorConfig> Configs = differentialConfigs();
  std::vector<DetectorRun> Expected = runShared(Configs, B.Trace);
  SharedScanPlan Plan = planSharedScan(Configs);
  std::vector<DetectorRun> GroupRuns;
  for (bool Enabled : {false, true})
    for (const SharedScanGroup &G : Plan.Groups) {
      std::unique_ptr<SharedScanEngineBase> Engine =
          makeSharedScanEngine(G.Key.Model, B.Trace.numSites());
      Engine->setBatchKernels(Enabled);
      GroupRuns.resize(std::max(GroupRuns.size(), G.Members.size()));
      Engine->run(Configs, G.Members, B.Trace.elements().data(),
                  B.Trace.size(), GroupRuns);
      for (size_t I = 0; I != G.Members.size(); ++I)
        expectRunsEqual(Expected[G.Members[I]], GroupRuns[I],
                        Configs[G.Members[I]],
                        Enabled ? "batch kernels on" : "batch kernels off");
    }
}
