//===- examples/adaptive_jit.cpp - Phase-guided optimization client -----------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's motivating client: a dynamic optimization system that
/// "performs specializing optimizations when the behavior is stable and
/// reconsiders optimization decisions when the behavior changes". This
/// example simulates such a VM:
///
///  * Executing a branch in generic (baseline-compiled) code costs 1.0.
///  * A specialized version costs 0.7 per branch while the behavior that
///    it was specialized for persists, but 1.25 once the phase changes
///    (mis-specialized code is slower than generic code).
///  * Specializing costs a one-time 2,000 units (recompilation), so the
///    break-even phase length is ~6.7K branches — which is why a client
///    needs phases of a minimum length (the MPL; we use 10K).
///
/// The simulation drives the specialization decision from an online
/// phase detector and compares several detectors (plus oracle and
/// never-specialize policies) on a real workload. A more accurate
/// detector converts directly into a lower total cost.
///
//===----------------------------------------------------------------------===//

#include "baseline/BaselineSolution.h"
#include "core/DetectorConfig.h"
#include "core/DetectorRunner.h"
#include "core/RecurringPhases.h"
#include "support/Format.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <memory>

using namespace opd;

namespace {

struct CostModel {
  double GenericCost = 1.0;
  double SpecializedCost = 0.7;
  double MisSpecializedCost = 1.25;
  double RecompileCost = 2000.0;
};

/// Replays the trace, driving specialization from a state stream: the VM
/// specializes when the stream enters P and deoptimizes (back to generic)
/// when it enters T. While specialized, cost depends on whether the
/// *oracle* still considers execution inside the same phase the
/// specialization was built for.
double simulate(const StateSequence &Decisions,
                const BaselineSolution &Oracle, const CostModel &Model) {
  double Cost = 0.0;
  bool Specialized = false;
  // The oracle phase the current specialization targets, as an index into
  // Oracle.phases(); -1 when specialized during oracle-transition code.
  ptrdiff_t SpecializedPhase = -2;

  const std::vector<PhaseInterval> &Phases = Oracle.phases();
  size_t PhaseCursor = 0;
  uint64_t Total = Oracle.totalElements();
  assert(Decisions.size() == Total && "decision stream must cover trace");

  for (uint64_t I = 0; I != Total; ++I) {
    // Advance the oracle cursor: which phase (if any) covers element I?
    while (PhaseCursor < Phases.size() && Phases[PhaseCursor].End <= I)
      ++PhaseCursor;
    bool InOraclePhase =
        PhaseCursor < Phases.size() && Phases[PhaseCursor].Begin <= I;
    ptrdiff_t CurrentPhase =
        InOraclePhase ? static_cast<ptrdiff_t>(PhaseCursor) : -1;

    PhaseState Decision = Decisions.at(I);
    if (Decision == PhaseState::InPhase && !Specialized) {
      Specialized = true;
      SpecializedPhase = CurrentPhase;
      Cost += Model.RecompileCost;
    } else if (Decision == PhaseState::Transition && Specialized) {
      Specialized = false;
    }

    if (!Specialized)
      Cost += Model.GenericCost;
    else if (CurrentPhase == SpecializedPhase && CurrentPhase >= 0)
      Cost += Model.SpecializedCost;
    else
      Cost += Model.MisSpecializedCost;
  }
  return Cost;
}

/// Like simulate(), but with a specialization cache built on the
/// recurring-phase machinery (the paper's future-work direction): on
/// entering a phase the VM probes its first ProbeLength elements, builds
/// a prefix signature, and reuses a cached specialization when the phase
/// recurs — paying the recompile cost only for phases it has never seen.
double simulateWithReuse(const DetectorConfig &Config,
                         const BranchTrace &Trace,
                         const BaselineSolution &Oracle,
                         const CostModel &Model) {
  constexpr uint64_t ProbeLength = 1000;
  std::unique_ptr<PhaseDetector> D = makeDetector(Config, Trace.numSites());
  PhaseLibrary Cache(/*MatchThreshold=*/0.7);
  PhaseSignature Probe(Trace.numSites());

  const std::vector<PhaseInterval> &Phases = Oracle.phases();
  size_t PhaseCursor = 0;
  double Cost = 0.0;
  bool Specialized = false, Probing = false;
  ptrdiff_t SpecializedPhase = -2;
  PhaseEdges Edges;

  const std::vector<SiteIndex> &Elements = Trace.elements();
  for (uint64_t I = 0; I != Elements.size(); ++I) {
    PhaseState S = D->processBatch(&Elements[I], 1);
    while (PhaseCursor < Phases.size() && Phases[PhaseCursor].End <= I)
      ++PhaseCursor;
    bool InOraclePhase =
        PhaseCursor < Phases.size() && Phases[PhaseCursor].Begin <= I;
    ptrdiff_t CurrentPhase =
        InOraclePhase ? static_cast<ptrdiff_t>(PhaseCursor) : -1;

    switch (Edges.step(S, 1)) {
    case PhaseEdges::Edge::Begin: // phase entry: start probing
      Probing = true;
      Probe.clear();
      break;
    case PhaseEdges::Edge::End: // phase exit: deoptimize
      Probing = false;
      Specialized = false;
      break;
    case PhaseEdges::Edge::None:
      break;
    }
    if (Probing) {
      Probe.addElement(Elements[I]);
      if (Probe.total() >= ProbeLength) {
        Probing = false;
        PhaseLibrary::Classification C = Cache.classify(Probe);
        if (!C.Recurrence)
          Cost += Model.RecompileCost; // new phase: compile and cache
        Specialized = true;
        SpecializedPhase = CurrentPhase;
      }
    }

    if (!Specialized)
      Cost += Model.GenericCost;
    else if (CurrentPhase == SpecializedPhase && CurrentPhase >= 0)
      Cost += Model.SpecializedCost;
    else
      Cost += Model.MisSpecializedCost;
  }
  return Cost;
}

StateSequence runDetectorStates(const DetectorConfig &Config,
                                const BranchTrace &Trace) {
  std::unique_ptr<PhaseDetector> D = makeDetector(Config, Trace.numSites());
  StateSequence States;
  const std::vector<SiteIndex> &Elements = Trace.elements();
  size_t Batch = D->batchSize();
  for (uint64_t Offset = 0; Offset < Elements.size(); Offset += Batch) {
    size_t N = std::min<size_t>(Batch, Elements.size() - Offset);
    States.append(D->processBatch(&Elements[Offset], N), N);
  }
  return States;
}

} // namespace

int main() {
  const Workload *W = findWorkload("jess");
  if (!W)
    return 1;
  std::printf("executing workload '%s'...\n", W->Name.c_str());
  ExecutionResult Exec = executeWorkload(*W, 0.5);

  // The client needs phases long enough to amortize recompilation:
  // 2,000 / (1.0 - 0.7) ~ 6.7K break-even, so the client asks the oracle
  // for MPL = 10K phases and uses them as ground truth for
  // specialization validity.
  std::vector<BaselineSolution> Baselines =
      computeBaselines(Exec.CallLoop, Exec.Branches.size(), {10000});
  const BaselineSolution &Oracle = Baselines.front();
  std::printf("trace: %s branches; oracle: %zu phases, %s%% in phase\n\n",
              formatCount(Exec.Branches.size()).c_str(),
              Oracle.numPhases(),
              formatPercent(Oracle.fractionInPhase()).c_str());

  CostModel Model;
  Table T("Phase-guided specialization: total execution cost by policy");
  T.setHeader({"Policy", "Total cost", "vs generic"});
  double GenericCost =
      Model.GenericCost * static_cast<double>(Exec.Branches.size());

  auto addRow = [&](const std::string &Name, double Cost) {
    T.addRow({Name, formatCount(static_cast<uint64_t>(Cost)),
              formatPercent(Cost / GenericCost - 1.0) + "%"});
  };

  addRow("never specialize (generic)", GenericCost);

  // Oracle-driven: the unattainable ideal.
  addRow("oracle detector", simulate(Oracle.states(), Oracle, Model));

  // A good framework detector: unweighted, adaptive TW, skip 1.
  DetectorConfig Good;
  Good.Window.CWSize = 5000;
  Good.Window.TWSize = 5000;
  Good.Window.TWPolicy = TWPolicyKind::Adaptive;
  Good.Model = ModelKind::UnweightedSet;
  Good.TheAnalyzer = AnalyzerKind::Threshold;
  Good.AnalyzerParam = 0.6;
  addRow("adaptive TW, skip=1",
         simulate(runDetectorStates(Good, Exec.Branches), Oracle, Model));

  // The same detector plus a specialization cache keyed on recurring
  // phases (the paper's future-work extension).
  addRow("adaptive TW + phase reuse cache",
         simulateWithReuse(Good, Exec.Branches, Oracle, Model));

  // The extant approach: fixed intervals (skip = CW size).
  DetectorConfig Fixed = Good;
  Fixed.Window.TWPolicy = TWPolicyKind::Constant;
  Fixed.Window.SkipFactor = Fixed.Window.CWSize;
  addRow("fixed intervals (skip=CW)",
         simulate(runDetectorStates(Fixed, Exec.Branches), Oracle, Model));

  // A naive client that specializes immediately and never backs off.
  StateSequence AlwaysP = StateSequence::fromPhases(
      {{0, Exec.Branches.size()}}, Exec.Branches.size());
  addRow("always specialized", simulate(AlwaysP, Oracle, Model));

  std::fputs(T.render().c_str(), stdout);
  std::printf("\nA more accurate online detector translates directly into "
              "lower execution cost.\n");
  return 0;
}
