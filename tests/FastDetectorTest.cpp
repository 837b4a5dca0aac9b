//===- tests/FastDetectorTest.cpp - Fast-path differential tests --------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The monomorphic fast-path detectors (core/FastDetector.h) are only
/// admissible because they are bit-identical to the reference
/// PhaseDetector. This suite is the guard: it streams a real workload
/// trace through both paths across the whole configuration shape space —
/// every model, TW policy, analyzer kind, anchor, resize, and the skip-
/// factor/window-size corner cases — and requires equal StateSequences,
/// detected phases, and anchored phases, run by run. It also holds an
/// instance reused across traces to fresh-detector output, and the
/// anchor scans to the reference at both ends of the TW.
///
//===----------------------------------------------------------------------===//

#include "core/DetectorObserver.h"
#include "core/DetectorRunner.h"
#include "core/FastDetector.h"
#include "core/SweepSpec.h"
#include "harness/Experiment.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <array>
#include <set>

using namespace opd;

namespace {

/// One small-scale workload shared by all differential tests.
const BenchmarkData &testBenchmark() {
  static const std::vector<BenchmarkData> Data =
      prepareBenchmarks({"jess"}, {1000, 10000}, /*Scale=*/0.1);
  return Data.front();
}

/// The shape-and-corner-case cross product: all three models, both TW
/// policies, all three analyzer kinds (two parameters each), both
/// anchors and resizes, a skip factor above the CW size (exercising the
/// flush seed clamp), and Fixed Interval.
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

void expectRunsEqual(const DetectorRun &Reference, const DetectorRun &Fast,
                     const DetectorConfig &Config) {
  std::string Desc = Config.describe();
  ASSERT_EQ(Reference.States.size(), Fast.States.size()) << Desc;
  const std::vector<StateRun> &RR = Reference.States.runs();
  const std::vector<StateRun> &FR = Fast.States.runs();
  ASSERT_EQ(RR.size(), FR.size()) << Desc;
  for (size_t I = 0; I != RR.size(); ++I) {
    ASSERT_EQ(RR[I].Begin, FR[I].Begin) << Desc << " run " << I;
    ASSERT_EQ(RR[I].Length, FR[I].Length) << Desc << " run " << I;
    ASSERT_EQ(RR[I].State, FR[I].State) << Desc << " run " << I;
  }
  ASSERT_EQ(Reference.DetectedPhases, Fast.DetectedPhases) << Desc;
  ASSERT_EQ(Reference.AnchoredPhases, Fast.AnchoredPhases) << Desc;
}

/// Blocks of disjoint site vocabularies (three vocabularies, cycled).
/// Right after a block boundary the TW still holds the old vocabulary
/// while the CW has moved on, and the Average analyzer re-enters a phase
/// optimistically once its statistics reset, so phase starts see a TW
/// with every element noisy as well as one with none.
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

/// Every shape with both anchors and resizes, at window sizes that fit
/// well inside one block.
std::vector<DetectorConfig> anchorConfigs() {
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
  return enumerateCrossProduct(Spec);
}

/// Records, for a Constant-policy run (whose windows are exactly CW and
/// TW long at every T->P flip), whether an anchor scan returned the
/// TW's first index or one past its last.
class AnchorEndObserver final : public DetectorObserver {
  uint64_t CW, TW;

public:
  bool SawFront = false;
  bool SawBack = false;

  explicit AnchorEndObserver(const WindowConfig &W)
      : CW(W.CWSize), TW(W.TWSize) {}

  void onAnchor(uint64_t Offset, AnchorKind, uint64_t AnchorOffset) override {
    SawFront |= AnchorOffset + CW + TW == Offset;
    SawBack |= AnchorOffset + CW == Offset;
  }
};

} // namespace

TEST(FastDetectorTest, ShapeIndexIsABijectionOverTheShapeSpace) {
  std::set<size_t> Seen;
  DetectorConfig C;
  for (ModelKind M : {ModelKind::UnweightedSet, ModelKind::WeightedSet,
                      ModelKind::ManhattanBBV})
    for (TWPolicyKind P : {TWPolicyKind::Constant, TWPolicyKind::Adaptive})
      for (AnalyzerKind A : {AnalyzerKind::Threshold, AnalyzerKind::Average,
                             AnalyzerKind::Hysteresis}) {
        C.Model = M;
        C.Window.TWPolicy = P;
        C.TheAnalyzer = A;
        size_t Index = fastShapeIndex(C);
        EXPECT_LT(Index, NumFastShapes);
        EXPECT_TRUE(Seen.insert(Index).second)
            << "duplicate shape index " << Index;
      }
  EXPECT_EQ(Seen.size(), NumFastShapes);
}

TEST(FastDetectorTest, DescribeMatchesReferenceWithFastSuffix) {
  const BenchmarkData &B = testBenchmark();
  for (const DetectorConfig &Config : differentialConfigs()) {
    std::unique_ptr<PhaseDetector> Reference =
        makeDetector(Config, B.Trace.numSites());
    std::unique_ptr<OnlineDetector> Fast =
        makeFastDetector(Config, B.Trace.numSites());
    EXPECT_EQ(Fast->describe(), Reference->describe() + " [fast]");
    EXPECT_EQ(Fast->batchSize(), Reference->batchSize());
  }
}

// The load-bearing test: every configuration in the shape/corner-case
// cross product produces bit-identical output through both paths.
TEST(FastDetectorTest, BitIdenticalToReferenceAcrossTheConfigSpace) {
  const BenchmarkData &B = testBenchmark();
  std::vector<DetectorConfig> Configs = differentialConfigs();
  ASSERT_GT(Configs.size(), 500u);
  for (const DetectorConfig &Config : Configs) {
    std::unique_ptr<PhaseDetector> Reference =
        makeDetector(Config, B.Trace.numSites());
    std::unique_ptr<OnlineDetector> Fast =
        makeFastDetector(Config, B.Trace.numSites());
    DetectorRun ReferenceRun = runDetector(*Reference, B.Trace);
    DetectorRun FastRun = runDetector(*Fast, B.Trace);
    expectRunsEqual(ReferenceRun, FastRun, Config);
  }
}

// Reuse rule: runDetector() resets the detector, so an instance that
// already streamed one trace must produce exactly a fresh instance's
// output on the next, with the state of a long previous run left behind.
TEST(FastDetectorTest, ResetReuseMatchesFreshDetectors) {
  const BenchmarkData &B = testBenchmark();
  BranchTrace Second = makeDisjointBlockTrace();
  ASSERT_LE(Second.numSites(), B.Trace.numSites());
  DetectorRun ReusedRun;
  for (const DetectorConfig &Config : differentialConfigs()) {
    std::unique_ptr<OnlineDetector> Reused =
        makeFastDetector(Config, B.Trace.numSites());
    runDetector(*Reused, B.Trace, ReusedRun);
    runDetector(*Reused, Second, ReusedRun);

    std::unique_ptr<OnlineDetector> Fresh =
        makeFastDetector(Config, B.Trace.numSites());
    expectRunsEqual(runDetector(*Fresh, Second), ReusedRun, Config);
  }
}

// consumeTrace()'s default batch loop and the fast override must agree
// on partial trailing batches (trace size not a multiple of skip).
TEST(FastDetectorTest, PartialTrailingBatchMatchesReference) {
  const BenchmarkData &B = testBenchmark();
  DetectorConfig Config;
  Config.Window.CWSize = 100;
  Config.Window.TWSize = 100;
  Config.Window.SkipFactor = 97; // Never divides the trace evenly.
  Config.Model = ModelKind::WeightedSet;
  Config.TheAnalyzer = AnalyzerKind::Threshold;
  Config.AnalyzerParam = 0.6;
  std::unique_ptr<PhaseDetector> Reference =
      makeDetector(Config, B.Trace.numSites());
  std::unique_ptr<OnlineDetector> Fast =
      makeFastDetector(Config, B.Trace.numSites());
  DetectorRun ReferenceRun = runDetector(*Reference, B.Trace);
  DetectorRun FastRun = runDetector(*Fast, B.Trace);
  ASSERT_NE(B.Trace.size() % Config.Window.SkipFactor, 0u);
  expectRunsEqual(ReferenceRun, FastRun, Config);
}

// The anchor scans' loop bounds: on a trace whose phase starts see both
// a wholly noisy and a wholly stable TW, each scan returns both ends of
// the TW, and the fast path's anchored phases match the reference's.
TEST(FastDetectorTest, AnchorScansReachBothTWEndsBitIdentical) {
  BranchTrace Trace = makeDisjointBlockTrace();
  std::array<bool, 2> Front{}, Back{};
  for (const DetectorConfig &Config : anchorConfigs()) {
    std::unique_ptr<PhaseDetector> Reference =
        makeDetector(Config, Trace.numSites());
    AnchorEndObserver Ends(Config.Window);
    DetectorRun ReferenceRun = runDetector(*Reference, Trace, &Ends);
    std::unique_ptr<OnlineDetector> Fast =
        makeFastDetector(Config, Trace.numSites());
    expectRunsEqual(ReferenceRun, runDetector(*Fast, Trace), Config);
    if (Config.Window.TWPolicy == TWPolicyKind::Constant) {
      size_t Kind = static_cast<size_t>(Config.Window.Anchor);
      Front[Kind] |= Ends.SawFront;
      Back[Kind] |= Ends.SawBack;
    }
  }
  for (AnchorKind Kind :
       {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy}) {
    EXPECT_TRUE(Front[static_cast<size_t>(Kind)]) << anchorKindName(Kind);
    EXPECT_TRUE(Back[static_cast<size_t>(Kind)]) << anchorKindName(Kind);
  }
}
