//===- core/RecurringPhases.h - Recurring-phase identification --*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's first future-work direction (Section 7): "extend our
/// framework to instantiate algorithms that detect phases that repeat
/// themselves. Such an enhancement would allow a dynamic optimization
/// system to record the efficacy of a phase-based optimization at the
/// end of the phase and determine whether to employ the same optimization
/// when the phase reoccurs."
///
/// PhaseSignature summarizes a phase as the frequency vector of its
/// profile elements (the adaptive TW already holds exactly this
/// information when a phase ends). PhaseLibrary stores the signatures of
/// completed phases; RecurringPhaseTracker runs beside any online
/// detector, accumulates the open phase's signature, and classifies each
/// completed phase as a recurrence of a known phase or as new.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_RECURRINGPHASES_H
#define OPD_CORE_RECURRINGPHASES_H

#include "core/DetectorRunner.h"
#include "trace/ProfileElement.h"
#include "trace/StateSequence.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace opd {

/// Frequency-vector summary of one phase's profile elements.
class PhaseSignature {
  std::vector<uint32_t> Counts;
  uint64_t Total = 0;

public:
  explicit PhaseSignature(SiteIndex NumSites) : Counts(NumSites, 0) {}

  /// Folds one element into the signature.
  void addElement(SiteIndex S) {
    assert(S < Counts.size() && "site out of range");
    ++Counts[S];
    ++Total;
  }

  /// Number of elements folded in.
  uint64_t total() const { return Total; }

  /// Clears the signature for reuse.
  void clear() {
    std::fill(Counts.begin(), Counts.end(), 0);
    Total = 0;
  }

  /// Symmetric weighted similarity between two signatures (the weighted
  /// set model's measure, applied to whole phases): the sum over sites of
  /// min(relative weight in A, relative weight in B), in [0, 1].
  static double similarity(const PhaseSignature &A, const PhaseSignature &B);
};

/// A library of known phase signatures with ids.
class PhaseLibrary {
  std::vector<PhaseSignature> Signatures;
  double MatchThreshold;

public:
  /// Signatures at least \p MatchThreshold similar are the same phase.
  explicit PhaseLibrary(double MatchThreshold = 0.7)
      : MatchThreshold(MatchThreshold) {}

  /// Classifies \p Sig: returns the id of the most similar known phase if
  /// its similarity reaches the threshold (Recurrence = true), otherwise
  /// registers \p Sig as a new phase and returns its fresh id.
  struct Classification {
    unsigned Id;
    bool Recurrence;
    double Similarity; ///< Similarity to the matched phase (0 for new).
  };
  Classification classify(const PhaseSignature &Sig);

  /// Number of distinct phases registered.
  size_t size() const { return Signatures.size(); }

  /// Drops all known phases.
  void clear() { Signatures.clear(); }
};

/// Observes an online detector's output stream and identifies recurring
/// phases. Drive it with the same batches the detector consumed and the
/// state the detector returned; phases open and close under PhaseEdges.
class RecurringPhaseTracker {
public:
  /// One completed phase with its identity.
  struct CompletedPhase {
    PhaseInterval Interval;
    unsigned Id;
    bool Recurrence;
    double Similarity;
  };

  RecurringPhaseTracker(SiteIndex NumSites, double MatchThreshold = 0.7)
      : Library(MatchThreshold), OpenSignature(NumSites) {}

  /// Feeds one detector step: \p N elements and the state that covers
  /// them. Returns the step's edge; after an End edge the closed phase is
  /// completedPhases().back().
  PhaseEdges::Edge observe(const SiteIndex *Elements, size_t N,
                           PhaseState State);

  /// Call at end of stream: closes a still-open phase and returns true
  /// when there was one.
  bool finish();

  /// The edge state and offsets of the observed stream.
  const PhaseEdges &edges() const { return Edges; }

  /// Completed phases in order.
  const std::vector<CompletedPhase> &completedPhases() const {
    return Completed;
  }

  /// Number of distinct phases identified so far.
  size_t numDistinctPhases() const { return Library.size(); }

  /// Clears everything (library included).
  void reset();

private:
  /// Classifies the phase PhaseEdges just closed.
  void closePhase();

  PhaseLibrary Library;
  PhaseSignature OpenSignature;
  std::vector<CompletedPhase> Completed;
  PhaseEdges Edges;
};

} // namespace opd

#endif // OPD_CORE_RECURRINGPHASES_H
