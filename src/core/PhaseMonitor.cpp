//===- core/PhaseMonitor.cpp - Client-facing phase event API -----------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/PhaseMonitor.h"

using namespace opd;

PhaseMonitor::PhaseMonitor(const DetectorConfig &Config, SiteIndex NumSites,
                           double SignatureMatchThreshold)
    : Detector(makeDetector(Config, NumSites)),
      Tracker(NumSites, SignatureMatchThreshold) {
  Pending.reserve(Config.Window.SkipFactor);
}

void PhaseMonitor::addElements(const SiteIndex *Elements, size_t N) {
  size_t Batch = Detector->batchSize();
  for (size_t I = 0; I != N; ++I) {
    Pending.push_back(Elements[I]);
    if (Pending.size() == Batch) {
      processBatch(Pending.data(), Pending.size());
      Pending.clear();
    }
  }
}

void PhaseMonitor::processBatch(const SiteIndex *Elements, size_t N) {
  PhaseState S = Detector->processBatch(Elements, N);
  PhaseEdges::Edge E = Tracker.observe(Elements, N, S);
  if (E == PhaseEdges::Edge::Begin && StartCB)
    StartCB({Tracker.edges().edgeOffset(), Detector->lastPhaseStartEstimate(),
             Detector->confidence()});
  else if (E == PhaseEdges::Edge::End)
    phaseEnded();
}

void PhaseMonitor::phaseEnded() {
  const RecurringPhaseTracker::CompletedPhase &P =
      Tracker.completedPhases().back();
  PhaseLengths.push(static_cast<double>(P.Interval.length()));
  if (EndCB)
    EndCB({P.Interval.Begin, P.Interval.End, P.Id, P.Recurrence});
}

void PhaseMonitor::finish() {
  if (!Pending.empty()) {
    processBatch(Pending.data(), Pending.size());
    Pending.clear();
  }
  if (Tracker.finish())
    phaseEnded();
}
