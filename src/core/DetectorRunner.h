//===- core/DetectorRunner.h - Stream a trace through a detector -*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DetectorRunner feeds a branch trace through an OnlineDetector in
/// skipFactor-sized batches and records the per-element state output plus
/// the detected phases. It also records, for every detected phase, the
/// detector's anchor-based estimate of where the phase actually began —
/// the corrected boundaries Figure 8 scores. PhaseEdges is the one
/// phase-edge rule behind every producer of phase events.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_DETECTORRUNNER_H
#define OPD_CORE_DETECTORRUNNER_H

#include "core/PhaseDetector.h"
#include "trace/BranchTrace.h"
#include "trace/StateSequence.h"

#include <vector>

namespace opd {

/// Everything one detector run produces.
struct DetectorRun {
  /// One state per trace element (the framework's output).
  StateSequence States;
  /// The InPhase intervals of States.
  std::vector<PhaseInterval> DetectedPhases;
  /// DetectedPhases with each start replaced by the detector's anchored
  /// estimate of the true phase start (clamped to stay sorted/disjoint).
  std::vector<PhaseInterval> AnchoredPhases;

  /// Forgets the previous run's output but keeps all capacity, so a
  /// reused DetectorRun (sweep arenas) stops allocating once it has seen
  /// a worst-case run.
  void clear() {
    States.clear();
    DetectedPhases.clear();
    AnchoredPhases.clear();
  }
};

/// Streams \p Trace through \p Detector (which is reset first). The
/// trailing partial batch, if any, is processed as a short batch.
///
/// This overload carries no observation code at all — it is the
/// zero-cost path observer-free callers bind to.
DetectorRun runDetector(OnlineDetector &Detector, const BranchTrace &Trace);

/// As above, but fills a caller-owned \p Run (cleared first) instead of
/// returning a fresh one, so tight loops over many configurations reuse
/// the state/phase storage. The value-returning overload forwards here.
void runDetector(OnlineDetector &Detector, const BranchTrace &Trace,
                 DetectorRun &Run);

/// As the first overload; when \p Observer is non-null every batch goes
/// through
/// processBatchObserved() with it, and it additionally receives the
/// stream-level events: onRunBegin/onRunEnd and, under PhaseEdges,
/// onPhaseBegin/onPhaseEnd at exact element offsets, so the observed
/// phase intervals equal DetectorRun::DetectedPhases. An observed run
/// produces output identical to an unobserved one; a null \p Observer
/// forwards to the unobserved overload.
DetectorRun runDetector(OnlineDetector &Detector, const BranchTrace &Trace,
                        DetectorObserver *Observer);

/// Derives \p Run's phase lists from its populated States: fills
/// DetectedPhases from the InPhase intervals and builds AnchoredPhases
/// by pulling each start back to the matching entry of
/// \p AnchoredStarts (one per detected phase, in order), clamped so the
/// list stays sorted and disjoint. Shared by runDetector and the
/// shared-scan engine (core/SharedScan.h) so both paths finalize runs
/// identically.
void finalizeAnchoredPhases(DetectorRun &Run,
                            const std::vector<uint64_t> &AnchoredStarts);

/// The phase-edge rule of the detection client (Figure 3), shared by every
/// producer of phase events. The stream starts in T at offset 0. A batch
/// that flips T->P opens a phase at its first offset; the producer reads
/// the detector's lastPhaseStartEstimate() right after that batch as the
/// phase's anchor. A batch that flips P->T closes the phase at its first
/// offset, and finish() closes a phase still open at the stream length.
class PhaseEdges {
public:
  /// What a step did.
  enum class Edge : uint8_t {
    None,  ///< No flip.
    Begin, ///< T->P: a phase opened at edgeOffset().
    End,   ///< P->T: the open phase closed at edgeOffset().
  };

  /// Records one batch of \p N elements decided as \p S.
  Edge step(PhaseState S, uint64_t N) {
    EdgeAt = Consumed;
    Consumed += N;
    if (S == State)
      return Edge::None;
    State = S;
    if (S == PhaseState::Transition)
      return Edge::End;
    OpenedAt = EdgeAt;
    return Edge::Begin;
  }

  /// Ends the stream; true when a phase was open (it closes at consumed()).
  bool finish() {
    EdgeAt = Consumed;
    bool WasOpen = open();
    State = PhaseState::Transition;
    return WasOpen;
  }

  uint64_t edgeOffset() const { return EdgeAt; } ///< Offset of the last edge.
  uint64_t phaseBegin() const { return OpenedAt; } ///< Last phase's begin.
  uint64_t consumed() const { return Consumed; } ///< Elements stepped.
  PhaseState state() const { return State; } ///< The last step's state.
  bool open() const { return State == PhaseState::InPhase; } ///< In a phase.

private:
  PhaseState State = PhaseState::Transition;
  uint64_t Consumed = 0, EdgeAt = 0, OpenedAt = 0;
};

} // namespace opd

#endif // OPD_CORE_DETECTORRUNNER_H
