//===- tests/BatchKernelTest.cpp - SoA batch kernel tests ---------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch min-sum (core/BatchKernel.h) needs no admission because it
/// is exact for every input: the AVX2 sweep where the CPU has it, the
/// scalar loop otherwise and for totals of 2^32 or more. This suite pins
/// that claim against a naive oracle over every block-remainder tail,
/// products straddling 2^63 and totals beyond the lane guard; whole
/// detector runs against the reference detector; and the 18-shape
/// lane-plan verdict kernel_check prints against the certifier.
///
//===----------------------------------------------------------------------===//

#include "analysis/KernelBounds.h"
#include "core/BatchKernel.h"
#include "core/DetectorRunner.h"
#include "core/FastDetector.h"
#include "harness/Experiment.h"
#include "harness/Sweep.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <utility>

using namespace opd;

namespace {

/// Naive mod-2^64 oracle for batchMinSum over interleaved (cw, tw)
/// pairs.
uint64_t naiveMinSum(const std::vector<uint32_t> &Pairs, uint64_t NCW,
                     uint64_t NTW) {
  uint64_t Sum = 0;
  for (size_t I = 0; I * 2 + 1 < Pairs.size(); ++I)
    Sum += std::min(Pairs[2 * I] * NTW, Pairs[2 * I + 1] * NCW);
  return Sum;
}

/// One small-scale workload shared by the differential tests.
const BenchmarkData &testBenchmark() {
  static const std::vector<BenchmarkData> Data =
      prepareBenchmarks({"jess"}, {1000, 10000}, /*Scale=*/0.1);
  return Data.front();
}

/// Weighted and unweighted configurations exercising the batch min-sum:
/// adaptive growth (the per-element recompute), both anchors and
/// resizes, and window sizes that are not multiples of the 8-wide
/// blocks so flushes land mid-block and the sweep always has a
/// remainder tail.
std::vector<DetectorConfig> batchConfigs() {
  SweepSpec Spec;
  Spec.CWSizes = {37, 64, 400};
  Spec.TWFactors = {1, 2};
  Spec.SkipFactors = {1, 10};
  Spec.Models = {ModelKind::WeightedSet, ModelKind::UnweightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.5},
                    {AnalyzerKind::Threshold, 0.8},
                    {AnalyzerKind::Average, 0.01},
                    {AnalyzerKind::Hysteresis, 0.6}};
  Spec.Anchors = {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy};
  Spec.Resizes = {ResizeKind::Slide, ResizeKind::Move};
  return enumerateCrossProduct(Spec);
}

void expectRunsEqual(const DetectorRun &Reference, const DetectorRun &Fast,
                     const DetectorConfig &Config, const char *Tag) {
  std::string Desc = Config.describe() + " [" + Tag + "]";
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

/// The shape with index \p S (the inverse of fastShapeIndex), with
/// window parameters that certify cleanly under a bounded trace.
DetectorConfig shapeConfig(size_t S) {
  DetectorConfig C;
  C.TheAnalyzer = static_cast<AnalyzerKind>(S % 3);
  C.Window.TWPolicy = static_cast<TWPolicyKind>((S / 3) % 2);
  C.Model = static_cast<ModelKind>(S / 6);
  C.Window.CWSize = 100;
  C.Window.TWSize = 100;
  C.Window.SkipFactor = 1;
  C.AnalyzerParam = 0.5;
  return C;
}

} // namespace

TEST(BatchKernelMinSumTest, MatchesNaiveAtEveryTailLength) {
  std::mt19937 Rng(7);
  std::uniform_int_distribution<uint32_t> Count(0, 5000);
  // Every length up to several 8-wide blocks, so the unrolled loop
  // leaves every remainder for the scalar tail.
  for (size_t N = 0; N != 67; ++N) {
    std::vector<uint32_t> Pairs(2 * N);
    for (uint32_t &P : Pairs)
      P = Count(Rng);
    for (uint64_t NCW : {0ull, 1ull, 4999ull, 1000000ull})
      for (uint64_t NTW : {0ull, 3ull, 5001ull})
        ASSERT_EQ(batchMinSum(Pairs.data(), N, NCW, NTW),
                  naiveMinSum(Pairs, NCW, NTW))
            << "N=" << N << " NCW=" << NCW << " NTW=" << NTW;
  }
}

TEST(BatchKernelMinSumTest, ProductsStraddling2To63StayExact) {
  // Totals just under the 2^32 guard put NCW*NTW above 2^63, which
  // selects the AVX2 sign-flip loop. One big site per roster carries
  // counts near 2^31, so its products land on both sides of 2^63 (a
  // signed lane compare would pick the wrong minimum); the other sites
  // stay small. The counts fit inside the totals, so the sum stays below
  // NCW*NTW < 2^64 and nothing wraps.
  const uint64_t NCW = (1ull << 32) - 1;
  const uint64_t NTW = (1ull << 32) - 3;
  const uint32_t BigCounts[][2] = {{(1u << 31) + 5, (1u << 31) - 7},
                                   {(1u << 31) - 9, (1u << 31) + 2},
                                   {(1u << 31) + 3, (1u << 31) + 11}};
  std::mt19937 Rng(13);
  std::uniform_int_distribution<uint32_t> Small(0, 1000);
  for (size_t N = 1; N != 21; ++N)
    for (size_t Big = 0; Big != N; ++Big)
      for (const uint32_t *BigPair : BigCounts) {
        std::vector<uint32_t> Pairs(2 * N);
        for (uint32_t &P : Pairs)
          P = Small(Rng);
        Pairs[2 * Big] = BigPair[0];
        Pairs[2 * Big + 1] = BigPair[1];
        ASSERT_EQ(batchMinSum(Pairs.data(), N, NCW, NTW),
                  naiveMinSum(Pairs, NCW, NTW))
            << "N=" << N << " big site " << Big;
      }
}

TEST(BatchKernelMinSumTest, TotalsBeyondTheLaneGuardTakeTheScalarLoop) {
  // Totals at or above 2^32 cannot use the 32x32->64 lane multiply, so
  // every host runs the scalar loop here; it must still match the oracle
  // bit for bit. The products stay below 2^64, so the integer sanitizer
  // checks this loop without tripping on intended wraparound.
  const uint64_t Wide = (1ull << 32) + 12345;
  std::mt19937 Rng(17);
  std::uniform_int_distribution<uint32_t> Count(0, 100000);
  for (size_t N = 0; N != 21; ++N) {
    std::vector<uint32_t> Pairs(2 * N);
    for (uint32_t &P : Pairs)
      P = Count(Rng);
    for (uint64_t Narrow : {0ull, 999ull, (1ull << 32) - 1})
      for (auto [NCW, NTW] : {std::pair{Wide, Narrow}, std::pair{Narrow, Wide},
                              std::pair{Wide, Wide}})
        ASSERT_EQ(batchMinSum(Pairs.data(), N, NCW, NTW),
                  naiveMinSum(Pairs, NCW, NTW))
            << "N=" << N << " NCW=" << NCW << " NTW=" << NTW;
  }
}

// The load-bearing differential: whole weighted/unweighted detector runs
// — including mid-block window flushes, resizes, and anchor scans — are
// bit-identical to the reference detector.
TEST(BatchKernelDifferentialTest, DetectorRunsBitIdenticalPerBackend) {
  const BenchmarkData &Bench = testBenchmark();
  for (const DetectorConfig &Config : batchConfigs()) {
    std::unique_ptr<PhaseDetector> Reference =
        makeDetector(Config, Bench.Trace.numSites());
    DetectorRun ReferenceRun = runDetector(*Reference, Bench.Trace);
    std::unique_ptr<OnlineDetector> Fast =
        makeFastDetector(Config, Bench.Trace.numSites());
    DetectorRun FastRun = runDetector(*Fast, Bench.Trace);
    expectRunsEqual(ReferenceRun, FastRun, Config, "fast");
  }
}

// All 18 monomorphic shapes against the verdict kernel_check's
// --lane-plan table prints: a bounded trace certifies every shape into
// 32-bit count and 64-bit product lanes; an unbounded trace leaves
// every adaptive shape's TW-dependent quantities uncertified, which must
// refuse.
TEST(BatchKernelLanePlanTest, EighteenShapesMatchTheCertifierVerdict) {
  TraceBounds Bounded;
  Bounded.TraceLen = 2000000;
  for (size_t S = 0; S != NumFastShapes; ++S) {
    DetectorConfig C = shapeConfig(S);
    ASSERT_EQ(fastShapeIndex(C), S);

    KernelCertificate Cert = certifyKernel(C, Bounded);
    EXPECT_TRUE(Cert.NoWraparound) << C.describe();
    EXPECT_TRUE(admitsBatchLanes(Cert)) << C.describe();
    EXPECT_NE(Cert.CountLaneBits, 0u) << C.describe();
    EXPECT_LE(Cert.CountLaneBits, 32u) << C.describe();
    EXPECT_NE(Cert.ProductLaneBits, 0u) << C.describe();
    EXPECT_LE(Cert.ProductLaneBits, 64u) << C.describe();

    KernelCertificate Unbounded = certifyKernel(C, TraceBounds());
    bool Adaptive = C.Window.TWPolicy == TWPolicyKind::Adaptive;
    EXPECT_EQ(admitsBatchLanes(Unbounded), !Adaptive)
        << C.describe() << ": adaptive TW growth without a trace bound "
        << "cannot certify the count lanes";
  }
}

namespace {

/// \p Configs certified under \p Stats and merged per shape, as
/// kernel_check does before printing its lane plan.
std::vector<KernelCertificate>
mergedPerShape(const std::vector<DetectorConfig> &Configs,
               const TraceBounds &Stats) {
  std::vector<std::optional<KernelCertificate>> Merged(NumFastShapes);
  for (const DetectorConfig &C : Configs) {
    KernelCertificate Cert = certifyKernel(C, Stats);
    if (Merged[Cert.Shape])
      mergeCertificate(*Merged[Cert.Shape], Cert);
    else
      Merged[Cert.Shape] = Cert;
  }
  std::vector<KernelCertificate> Out;
  for (const std::optional<KernelCertificate> &M : Merged)
    if (M)
      Out.push_back(*M);
  return Out;
}

/// admitsBatchLanes must equal the certificate's no-wraparound claim.
void expectAdmissionIsNoWraparound(const KernelCertificate &C,
                                   const std::string &Where) {
  EXPECT_EQ(admitsBatchLanes(C), C.NoWraparound)
      << Where << ": " << C.Config.describe();
}

} // namespace

// The lane-plan verdict is exactly the no-wraparound claim: ruling out
// wraparound bounds every count by UINT32_MAX and every wide quantity by
// UINT64_MAX, which is the lane plan of every model. Checked on the 18
// shapes, on every preset and on the adversarial config.
TEST(BatchKernelLanePlanTest, AdmissionIsExactlyNoWraparoundOnTheShapes) {
  TraceBounds Bounded;
  Bounded.TraceLen = 2000000;
  for (size_t S = 0; S != NumFastShapes; ++S) {
    expectAdmissionIsNoWraparound(certifyKernel(shapeConfig(S), Bounded),
                                  "bounded shape");
    expectAdmissionIsNoWraparound(
        certifyKernel(shapeConfig(S), TraceBounds()), "default shape");
  }
}

TEST(BatchKernelLanePlanTest, AdmissionIsExactlyNoWraparoundOnThePresets) {
  // Every preset at the evaluation's trace scale, as the kernel_check_*
  // ctests certify them.
  TraceBounds Paper;
  Paper.TraceLen = 62000000;
  for (const KernelCertificate &C :
       mergedPerShape(enumerateCrossProduct(paperCrossSpec()), Paper))
    expectAdmissionIsNoWraparound(C, "paper");
  for (const std::string &Name : benchSweepNames())
    for (const KernelCertificate &C : mergedPerShape(
             enumerateConfigs(benchSweepSpec(Name, paperAnalyzers())), Paper))
      expectAdmissionIsNoWraparound(C, Name);
}

TEST(BatchKernelLanePlanTest,
     AdmissionIsExactlyNoWraparoundOnTheAdversarialConfig) {
  // The kernel_check_adversarial config: --cw 4000000000 --models
  // weighted --policies adaptive --trace-len 8000M.
  SweepSpec Adversarial;
  Adversarial.CWSizes = {4000000000u};
  Adversarial.TWPolicies = {TWPolicyKind::Adaptive};
  Adversarial.Models = {ModelKind::WeightedSet};
  Adversarial.Analyzers = {{AnalyzerKind::Threshold, 0.6},
                           {AnalyzerKind::Average, 0.05}};
  TraceBounds Long;
  Long.TraceLen = 8000000000ull;
  std::vector<KernelCertificate> Certs =
      mergedPerShape(enumerateConfigs(Adversarial), Long);
  ASSERT_FALSE(Certs.empty());
  for (const KernelCertificate &C : Certs) {
    EXPECT_FALSE(C.NoWraparound) << C.Config.describe();
    expectAdmissionIsNoWraparound(C, "adversarial");
  }
}
