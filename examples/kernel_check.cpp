//===- examples/kernel_check.cpp - Kernel value-range certifier CLI -----------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Certifies the kernel arithmetic of every configuration a sweep
/// specification enumerates (analysis/KernelBounds.h): no unsigned
/// wraparound in any count, product, or accumulator; minimal bit-widths
/// per quantity (the lane plan, --lane-plan); and where the
/// division-free threshold decision is exact versus needing its
/// fallback. Optional trace statistics (--trace-len,
/// --max-multiplicity, --num-sites) tighten the intervals; without a
/// trace length an adaptive TW is unbounded and certification is
/// refused with kernel-unbounded-tw.
///
///   kernel_check --preset paper --trace-len 62M
///   kernel_check --preset table2 --trace-len 62M --lane-plan
///   kernel_check --cw 4000000000 --models weighted --policies adaptive
///       --trace-len 8000M --json
///
/// The --lane-plan report always covers all NumFastShapes monomorphic
/// fast-path instantiations: shapes the spec does not enumerate are
/// synthesized from the spec's dimension maxima (flagged with 0
/// enumerated configs). Its "batch" column is admitsBatchLanes(), i.e.
/// the no-wraparound claim.
///
/// Exit codes follow jp_lint: 0 clean (or notes only), 1 warnings,
/// 2 errors.
///
//===----------------------------------------------------------------------===//

#include "ToolCommon.h"
#include "analysis/KernelBounds.h"
#include "analysis/Lint.h"
#include "support/ArgParser.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

using namespace opd;

namespace {

/// Decomposes a fastShapeIndex back into its (model, policy, analyzer)
/// coordinates — the inverse of fastShapeIndex()'s mixed-radix encoding.
void shapeCoords(size_t Shape, ModelKind &Model, TWPolicyKind &Policy,
                 AnalyzerKind &Analyzer) {
  Analyzer = static_cast<AnalyzerKind>(Shape % 3);
  Policy = static_cast<TWPolicyKind>((Shape / 3) % 2);
  Model = static_cast<ModelKind>(Shape / 6);
}

/// Builds a worst-case config for a shape the spec never enumerates:
/// the spec's largest CW and TW factor with the shape's own model,
/// policy, and analyzer (first matching analyzer parameter, or the
/// repo default for the kind). Bounds depend only on these dimensions,
/// so the synthesized certificate is the sound worst case of running
/// this shape at the spec's scale.
DetectorConfig synthesizeShapeConfig(size_t Shape, const SweepSpec &Spec) {
  ModelKind Model;
  TWPolicyKind Policy;
  AnalyzerKind Analyzer;
  shapeCoords(Shape, Model, Policy, Analyzer);

  DetectorConfig C;
  C.Model = Model;
  C.Window.TWPolicy = Policy;
  uint32_t CW = 1000;
  if (!Spec.CWSizes.empty())
    CW = *std::max_element(Spec.CWSizes.begin(), Spec.CWSizes.end());
  uint32_t Factor = 1;
  if (!Spec.TWFactors.empty())
    Factor =
        *std::max_element(Spec.TWFactors.begin(), Spec.TWFactors.end());
  uint64_t TW = static_cast<uint64_t>(CW) * Factor;
  C.Window.CWSize = CW;
  C.Window.TWSize = static_cast<uint32_t>(
      std::min<uint64_t>(TW, std::numeric_limits<uint32_t>::max()));
  C.TheAnalyzer = Analyzer;
  C.AnalyzerParam = Analyzer == AnalyzerKind::Threshold  ? 0.5
                    : Analyzer == AnalyzerKind::Average ? 0.05
                                                        : 0.6;
  for (const AnalyzerSpec &A : Spec.Analyzers)
    if (A.Kind == Analyzer) {
      C.AnalyzerParam = A.Param;
      break;
    }
  return C;
}

/// "weighted/adaptive/threshold"-style shape label.
std::string shapeName(size_t Shape) {
  ModelKind Model;
  TWPolicyKind Policy;
  AnalyzerKind Analyzer;
  shapeCoords(Shape, Model, Policy, Analyzer);
  return std::string(modelKindName(Model)) + "/" + twPolicyName(Policy) +
         "/" + analyzerKindName(Analyzer);
}

/// Largest certified bit-width over \p Cert's applicable quantities,
/// split by storage class; 0 stands for "unbounded".
unsigned maxBits(const KernelCertificate &Cert, bool Counts) {
  unsigned Bits = 0;
  bool AllBounded = true;
  for (const QuantityBound &B : Cert.Bounds) {
    if (!B.Applicable)
      continue;
    bool IsCount = B.Quantity == KernelQuantity::CWCount ||
                   B.Quantity == KernelQuantity::TWCount;
    if (IsCount != Counts)
      continue;
    if (!B.Bounded)
      AllBounded = false;
    Bits = std::max(Bits, B.Bits);
  }
  return AllBounded ? Bits : 0;
}

std::string laneCell(unsigned Bits, unsigned Lane) {
  if (Lane == 0)
    return "-";
  return std::to_string(Bits) + "b -> u" + std::to_string(Lane);
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("kernel_check",
                 "Certify kernel value ranges for a detector sweep.");
  addSweepSpecOptions(Args);
  Args.addOption("trace-len", "trace length bounding adaptive-TW growth "
                              "and site multiplicity (0 = unknown; K/M "
                              "suffix ok)",
                 "0");
  Args.addOption("max-multiplicity",
                 "maximum occurrences of any one site (0 = unknown)", "0");
  Args.addOption("num-sites", "number of distinct sites (0 = unknown)",
                 "0");
  Args.addFlag("json", "emit structured JSON diagnostics and certificates");
  Args.addFlag("lane-plan",
               "print the per-shape lane-width table");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 2;

  SweepSpec Spec;
  bool RawCrossProduct = false;
  if (!buildSweepSpec(Args, Spec, RawCrossProduct))
    return 2;

  std::string Preset = Args.getOption("preset");
  std::string SpecName = Preset.empty() ? "custom" : Preset;

  TraceBounds Stats;
  Stats.TraceLen = parseSize(Args.getOption("trace-len"));
  Stats.MaxMultiplicity = parseSize(Args.getOption("max-multiplicity"));
  Stats.NumSites =
      static_cast<SiteIndex>(parseSize(Args.getOption("num-sites")));

  std::vector<DetectorConfig> Configs = RawCrossProduct
                                            ? enumerateCrossProduct(Spec)
                                            : enumerateConfigs(Spec);

  // One certificate per monomorphic fast-path shape, widened over every
  // enumerated config of that shape; diagnostics come from the merged
  // certificates, so each shape reports its worst case once instead of
  // once per sweep point.
  std::vector<std::optional<KernelCertificate>> Merged(NumFastShapes);
  std::vector<size_t> Enumerated(NumFastShapes, 0);
  for (const DetectorConfig &C : Configs) {
    KernelCertificate Cert = certifyKernel(C, Stats);
    ++Enumerated[Cert.Shape];
    if (!Merged[Cert.Shape]) {
      Merged[Cert.Shape] = Cert;
      continue;
    }
    mergeCertificate(*Merged[Cert.Shape], Cert);
    // Keep the offender visible: diagnostics cite the merged
    // certificate's Config, so hold on to the widest config seen.
    if (!Cert.NoWraparound ||
        Cert.ProductLaneBits > Merged[Cert.Shape]->ProductLaneBits)
      Merged[Cert.Shape]->Config = C;
  }
  for (size_t S = 0; S != NumFastShapes; ++S)
    if (!Merged[S])
      Merged[S] = certifyKernel(synthesizeShapeConfig(S, Spec), Stats);

  DiagnosticEngine Diags;
  for (size_t S = 0; S != NumFastShapes; ++S)
    if (Enumerated[S] != 0)
      lintCertificate(*Merged[S], Diags);

  bool Json = Args.getFlag("json");
  if (Json) {
    std::fputs(renderDiagnosticsJSON(Diags, SpecName).c_str(), stdout);
  } else {
    for (const Diagnostic &D : Diags.diagnostics())
      std::printf("%s:%s\n", SpecName.c_str(), D.render().c_str());
    if (Diags.empty())
      std::printf("%s: clean (%zu configs, %zu shapes certified)\n",
                  SpecName.c_str(), Configs.size(),
                  static_cast<size_t>(NumFastShapes));
  }

  if (Args.getFlag("lane-plan")) {
    if (Json) {
      std::string Out = "{\n  \"spec\": \"" + SpecName + "\",\n";
      Out += "  \"shapes\": [\n  ";
      for (size_t S = 0; S != NumFastShapes; ++S) {
        if (S)
          Out += ",\n  ";
        Out += renderCertificateJSON(*Merged[S]);
      }
      Out += "\n  ]\n}\n";
      std::fputs(Out.c_str(), stdout);
    } else {
      Table T("Kernel lane plan: " + SpecName);
      T.setHeader({"shape", "configs", "counts", "wide", "wraparound",
                   "batch", "threshold"});
      for (size_t S = 0; S != NumFastShapes; ++S) {
        const KernelCertificate &Cert = *Merged[S];
        T.addRow(
            {shapeName(S),
             Enumerated[S] ? std::to_string(Enumerated[S]) : "0 (synth)",
             laneCell(maxBits(Cert, true), Cert.CountLaneBits),
             laneCell(maxBits(Cert, false), Cert.ProductLaneBits),
             Cert.NoWraparound ? "none" : "POSSIBLE",
             admitsBatchLanes(Cert) ? "admit" : "refuse",
             thresholdExactnessName(Cert.Exactness)});
      }
      std::fputs(T.render().c_str(), stdout);
    }
  }

  return exitCodeForSeverity(Diags.maxSeverity(), !Diags.empty());
}
