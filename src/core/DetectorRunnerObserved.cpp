//===- core/DetectorRunnerObserved.cpp - Observed detector runs --------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// The observed variant of runDetector lives in its own translation unit,
// and duplicates the run structure instead of sharing it, so that
// attaching the observability layer leaves the unobserved overload's
// translation unit — and therefore its generated code — untouched (the
// zero-cost property BenchPerf checks; compiling the events into the
// shared TU measurably perturbed the hot loop's inlining).
//
//===----------------------------------------------------------------------===//

#include "core/DetectorRunner.h"

#include <algorithm>

using namespace opd;

namespace {

/// The observed run: same structure as the unobserved overload, plus the
/// stream-level events and the detector's internal events (via the
/// processBatchObserved entry point).
DetectorRun runObserved(OnlineDetector &Detector, const BranchTrace &Trace,
                        DetectorObserver *Observer) {
  Detector.reset();
  Detector.setObserver(Observer);
  DetectorRun Run;
  const std::vector<SiteIndex> &Elements = Trace.elements();
  size_t Batch = Detector.batchSize();
  assert(Batch > 0 && "batch size must be positive");
  Observer->onRunBegin(Elements.size(), Batch);

  PhaseState Prev = PhaseState::Transition;
  std::vector<uint64_t> AnchoredStarts;
  for (uint64_t Offset = 0; Offset < Elements.size(); Offset += Batch) {
    size_t N = std::min<size_t>(Batch, Elements.size() - Offset);
    PhaseState S = Detector.processBatchObserved(&Elements[Offset], N);
    // One state per input element (the batch shares its state).
    Run.States.append(S, N);
    if (Prev == PhaseState::Transition && S == PhaseState::InPhase) {
      AnchoredStarts.push_back(Detector.lastPhaseStartEstimate());
      Observer->onPhaseBegin(Offset, AnchoredStarts.back());
    } else if (Prev == PhaseState::InPhase &&
               S == PhaseState::Transition) {
      Observer->onPhaseEnd(Offset);
    }
    Prev = S;
  }
  if (Prev == PhaseState::InPhase)
    Observer->onPhaseEnd(Elements.size());
  Observer->onRunEnd(Elements.size());
  Detector.setObserver(nullptr);

  finalizeAnchoredPhases(Run, AnchoredStarts);
  return Run;
}

} // namespace

DetectorRun opd::runDetector(OnlineDetector &Detector,
                             const BranchTrace &Trace,
                             DetectorObserver *Observer) {
  return Observer ? runObserved(Detector, Trace, Observer)
                  : runDetector(Detector, Trace);
}
