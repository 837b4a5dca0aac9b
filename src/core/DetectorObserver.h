//===- core/DetectorObserver.h - Detector introspection hooks ---*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The opt-in observability interface of the detection pipeline. A
/// DetectorObserver passed to a run receives a callback for every internal
/// decision a detector run makes: similarity evaluations with the
/// analyzer's verdict, anchor computations, trailing-window resizes and
/// flushes, and phase open/close transitions. The paper's evaluation
/// reasons about exactly these internals (window churn in Figure 2,
/// analyzer decisions in Figure 3, anchoring in Section 5); the observer
/// makes them visible without changing detector behavior.
///
/// Callbacks are emitted from two levels:
///
///  * PhaseDetector emits the model/analyzer events (onEvaluation,
///    onAnchor, onWindowResize, onWindowFlush) to the observer passed to
///    each processBatchObserved() call;
///  * runDetector() emits the stream events (onRunBegin, onPhaseBegin,
///    onPhaseEnd, onRunEnd) at the PhaseEdges offsets, so the observed
///    phase intervals match DetectorRun::DetectedPhases by construction.
///
/// The documented event order per batch is: onEvaluation first, then on a
/// T->P flip onAnchor followed by onWindowResize (Adaptive TW only)
/// followed by onPhaseBegin; on a P->T flip onWindowFlush followed by
/// onPhaseEnd. ObserverTest asserts this state machine and
/// docs/OBSERVABILITY.md specifies it.
///
/// All callbacks default to no-ops. Observation is zero-cost when no
/// observer is passed: runDetector() then runs the detector's
/// consumeTrace() loop, and PhaseDetector::processBatch is the
/// uninstrumented instantiation of the batch body, so the unobserved hot
/// path compiles to the same code as an observer-free build
/// (BenchPerf's BM_DetectorObserved measures the observed cost).
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_DETECTOROBSERVER_H
#define OPD_CORE_DETECTOROBSERVER_H

#include "core/WindowedModel.h"
#include "trace/StateSequence.h"

#include <cstdint>

namespace opd {

/// Introspection hooks for one detector run. Offsets are global element
/// offsets into the profile-element stream. Observers must not mutate the
/// detector; an observed run's output is identical to an unobserved one's.
class DetectorObserver {
public:
  virtual ~DetectorObserver();

  /// A run over a trace of \p TraceSize elements begins; the detector
  /// consumes \p BatchSize elements (the skipFactor) per evaluation.
  virtual void onRunBegin(uint64_t TraceSize, uint64_t BatchSize) {
    (void)TraceSize;
    (void)BatchSize;
  }

  /// The run ended after \p Consumed elements.
  virtual void onRunEnd(uint64_t Consumed) { (void)Consumed; }

  /// The model compared full windows at \p Offset: the similarity value,
  /// the analyzer's P/T verdict, and its decision confidence.
  virtual void onEvaluation(uint64_t Offset, double Similarity,
                            PhaseState Decision, double Confidence) {
    (void)Offset;
    (void)Similarity;
    (void)Decision;
    (void)Confidence;
  }

  /// A T->P flip at \p Offset computed an anchor under \p Kind: the
  /// detector estimates the phase actually began at \p AnchorOffset.
  virtual void onAnchor(uint64_t Offset, AnchorKind Kind,
                        uint64_t AnchorOffset) {
    (void)Offset;
    (void)Kind;
    (void)AnchorOffset;
  }

  /// An Adaptive TW was resized at a phase start under \p Kind; the
  /// windows now hold \p TWLength and \p CWLength elements.
  virtual void onWindowResize(uint64_t Offset, ResizeKind Kind,
                              uint64_t TWLength, uint64_t CWLength) {
    (void)Offset;
    (void)Kind;
    (void)TWLength;
    (void)CWLength;
  }

  /// A phase end flushed both windows at \p Offset, reseeding the CW with
  /// \p SeedLength elements (Figure 2, rows F-G).
  virtual void onWindowFlush(uint64_t Offset, uint64_t SeedLength) {
    (void)Offset;
    (void)SeedLength;
  }

  /// The per-element state flipped T->P: a detected phase begins at
  /// element \p Offset, with the anchored start estimate
  /// \p AnchorEstimate (== Offset for detectors without anchoring).
  virtual void onPhaseBegin(uint64_t Offset, uint64_t AnchorEstimate) {
    (void)Offset;
    (void)AnchorEstimate;
  }

  /// The per-element state flipped P->T (or the trace ended in P): the
  /// open phase ends at element \p Offset (exclusive).
  virtual void onPhaseEnd(uint64_t Offset) { (void)Offset; }
};

} // namespace opd

#endif // OPD_CORE_DETECTOROBSERVER_H
