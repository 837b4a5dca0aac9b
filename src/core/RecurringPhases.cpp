//===- core/RecurringPhases.cpp - Recurring-phase identification ------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/RecurringPhases.h"

#include <algorithm>

using namespace opd;

double PhaseSignature::similarity(const PhaseSignature &A,
                                  const PhaseSignature &B) {
  assert(A.Counts.size() == B.Counts.size() &&
         "signatures must cover the same site table");
  if (A.Total == 0 || B.Total == 0)
    return 0.0;
  // Integer form of sum_s min(a_s/|A|, b_s/|B|), as in WeightedSetKernel.
  uint64_t MinSum = 0;
  for (size_t S = 0; S != A.Counts.size(); ++S)
    MinSum += std::min(static_cast<uint64_t>(A.Counts[S]) * B.Total,
                       static_cast<uint64_t>(B.Counts[S]) * A.Total);
  return static_cast<double>(MinSum) /
         (static_cast<double>(A.Total) * static_cast<double>(B.Total));
}

PhaseLibrary::Classification
PhaseLibrary::classify(const PhaseSignature &Sig) {
  double BestSim = -1.0;
  size_t BestId = 0;
  for (size_t I = 0; I != Signatures.size(); ++I) {
    double Sim = PhaseSignature::similarity(Sig, Signatures[I]);
    if (Sim > BestSim) {
      BestSim = Sim;
      BestId = I;
    }
  }
  if (BestSim >= MatchThreshold)
    return {static_cast<unsigned>(BestId), /*Recurrence=*/true, BestSim};
  Signatures.push_back(Sig);
  return {static_cast<unsigned>(Signatures.size() - 1),
          /*Recurrence=*/false, 0.0};
}

PhaseEdges::Edge RecurringPhaseTracker::observe(const SiteIndex *Elements,
                                                size_t N, PhaseState State) {
  PhaseEdges::Edge E = Edges.step(State, N);
  if (E == PhaseEdges::Edge::Begin)
    OpenSignature.clear();
  else if (E == PhaseEdges::Edge::End)
    closePhase();
  if (Edges.open())
    for (size_t I = 0; I != N; ++I)
      OpenSignature.addElement(Elements[I]);
  return E;
}

bool RecurringPhaseTracker::finish() {
  if (!Edges.finish())
    return false;
  closePhase();
  return true;
}

void RecurringPhaseTracker::closePhase() {
  PhaseLibrary::Classification C = Library.classify(OpenSignature);
  Completed.push_back({{Edges.phaseBegin(), Edges.edgeOffset()}, C.Id,
                       C.Recurrence, C.Similarity});
}

void RecurringPhaseTracker::reset() {
  Library.clear();
  OpenSignature.clear();
  Completed.clear();
  Edges = PhaseEdges();
}
