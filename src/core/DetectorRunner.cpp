//===- core/DetectorRunner.cpp - Stream a trace through a detector -----------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/DetectorRunner.h"

#include <algorithm>

using namespace opd;

DetectorRun opd::runDetector(OnlineDetector &Detector,
                             const BranchTrace &Trace) {
  DetectorRun Run;
  runDetector(Detector, Trace, Run);
  return Run;
}

void opd::runDetector(OnlineDetector &Detector, const BranchTrace &Trace,
                      DetectorRun &Run) {
  Detector.reset();
  Run.clear();
  const std::vector<SiteIndex> &Elements = Trace.elements();
  size_t Batch = Detector.batchSize();
  assert(Batch > 0 && "batch size must be positive");

  // Size the output for the worst case (a state flip at every batch),
  // capped so degenerate skip=1 runs on huge traces don't commit tens of
  // megabytes up front — append() grows past the cap normally.
  size_t NumBatches = Elements.empty() ? 0 : (Elements.size() - 1) / Batch + 1;
  Run.States.reserveRuns(std::min<size_t>(NumBatches, 1 << 16));

  std::vector<uint64_t> AnchoredStarts;
  AnchoredStarts.reserve(std::min<size_t>(NumBatches / 2 + 1, 1 << 12));
  Detector.consumeTrace(Elements.data(), Elements.size(), Run.States,
                        AnchoredStarts);

  finalizeAnchoredPhases(Run, AnchoredStarts);
}

void opd::finalizeAnchoredPhases(DetectorRun &Run,
                                 const std::vector<uint64_t> &AnchoredStarts) {
  Run.States.phasesInto(Run.DetectedPhases);
  assert(AnchoredStarts.size() == Run.DetectedPhases.size() &&
         "one anchored start per detected phase");

  // Build the anchor-corrected phases: each start is pulled back to the
  // anchor estimate, clamped so the list stays sorted and disjoint.
  Run.AnchoredPhases.clear();
  Run.AnchoredPhases.reserve(Run.DetectedPhases.size());
  uint64_t PrevEnd = 0;
  for (size_t I = 0; I != Run.DetectedPhases.size(); ++I) {
    PhaseInterval P = Run.DetectedPhases[I];
    uint64_t Anchor = I < AnchoredStarts.size() ? AnchoredStarts[I] : P.Begin;
    P.Begin = std::clamp(Anchor, PrevEnd, P.Begin);
    Run.AnchoredPhases.push_back(P);
    PrevEnd = P.End;
  }
}

DetectorRun opd::runDetector(OnlineDetector &Detector,
                             const BranchTrace &Trace,
                             DetectorObserver *Observer) {
  if (!Observer)
    return runDetector(Detector, Trace);
  Detector.reset();
  DetectorRun Run;
  const std::vector<SiteIndex> &Elements = Trace.elements();
  size_t Batch = Detector.batchSize();
  assert(Batch > 0 && "batch size must be positive");
  Observer->onRunBegin(Elements.size(), Batch);

  PhaseEdges Edges;
  std::vector<uint64_t> AnchoredStarts;
  for (uint64_t Offset = 0; Offset < Elements.size(); Offset += Batch) {
    size_t N = std::min<size_t>(Batch, Elements.size() - Offset);
    PhaseState S =
        Detector.processBatchObserved(&Elements[Offset], N, *Observer);
    // One state per input element (the batch shares its state).
    Run.States.append(S, N);
    PhaseEdges::Edge E = Edges.step(S, N);
    if (E == PhaseEdges::Edge::Begin) {
      AnchoredStarts.push_back(Detector.lastPhaseStartEstimate());
      Observer->onPhaseBegin(Edges.edgeOffset(), AnchoredStarts.back());
    } else if (E == PhaseEdges::Edge::End) {
      Observer->onPhaseEnd(Edges.edgeOffset());
    }
  }
  if (Edges.finish())
    Observer->onPhaseEnd(Edges.edgeOffset());
  Observer->onRunEnd(Elements.size());

  finalizeAnchoredPhases(Run, AnchoredStarts);
  return Run;
}
