//===- core/PhaseMonitor.h - Client-facing phase event API ------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The integration surface a dynamic optimization system actually wants:
/// instead of polling per-element states, a client registers callbacks
/// and feeds profile elements; PhaseMonitor invokes onPhaseStart /
/// onPhaseEnd at the transitions, passing phase identity (via the
/// recurring-phase tracker) and the detector's anchored start estimate.
/// `examples/adaptive_jit` shows the polling style; this wraps the same
/// machinery behind an event API and keeps running statistics a client
/// can consult when sizing its optimizations. Phases begin and end where
/// the tracker's PhaseEdges (core/DetectorRunner.h) puts them: at the
/// offsets of DetectorRun::DetectedPhases.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_PHASEMONITOR_H
#define OPD_CORE_PHASEMONITOR_H

#include "core/DetectorConfig.h"
#include "core/RecurringPhases.h"
#include "support/Statistics.h"

#include <functional>
#include <memory>

namespace opd {

/// Information handed to the phase-start callback.
struct PhaseStartEvent {
  /// Offset of the element whose evaluation flagged the phase.
  uint64_t DetectedAt;
  /// The detector's anchor-based estimate of the true phase start.
  uint64_t EstimatedStart;
  /// Analyzer confidence at detection time, in [0, 1].
  double Confidence;
};

/// Information handed to the phase-end callback.
struct PhaseEndEvent {
  uint64_t Start; ///< DetectedAt of the matching start event.
  uint64_t End;   ///< Offset just past the phase's last element.
  /// Identity assigned by the recurring-phase tracker.
  unsigned PhaseId;
  /// True if this phase matched a previously completed phase.
  bool Recurrence;
};

/// Wraps a PhaseDetector and a RecurringPhaseTracker behind an event
/// interface. Not thread-safe; one monitor per profiled thread.
class PhaseMonitor {
public:
  using StartCallback = std::function<void(const PhaseStartEvent &)>;
  using EndCallback = std::function<void(const PhaseEndEvent &)>;

  /// Builds the monitor. \p SignatureMatchThreshold controls recurrence
  /// matching (see PhaseLibrary).
  PhaseMonitor(const DetectorConfig &Config, SiteIndex NumSites,
               double SignatureMatchThreshold = 0.7);

  /// Registers the callbacks (either may be null).
  void onPhaseStart(StartCallback CB) { StartCB = std::move(CB); }
  void onPhaseEnd(EndCallback CB) { EndCB = std::move(CB); }

  /// Feeds \p N profile elements (any N; the monitor batches internally
  /// by the configured skip factor).
  void addElements(const SiteIndex *Elements, size_t N);

  /// Flushes: if a phase is open, ends it and fires the end callback.
  void finish();

  /// Current state.
  PhaseState state() const { return Detector->state(); }

  /// Elements consumed so far.
  uint64_t consumed() const { return Tracker.edges().consumed(); }

  /// Completed-phase length statistics (elements).
  const RunningStats &phaseLengths() const { return PhaseLengths; }

  /// Number of distinct phase identities seen.
  size_t numDistinctPhases() const {
    return Tracker.numDistinctPhases();
  }

private:
  void processBatch(const SiteIndex *Elements, size_t N);

  /// Reports the phase the tracker just closed.
  void phaseEnded();

  std::unique_ptr<PhaseDetector> Detector;
  RecurringPhaseTracker Tracker;
  StartCallback StartCB;
  EndCallback EndCB;
  std::vector<SiteIndex> Pending; ///< partial batch buffer
  RunningStats PhaseLengths;
};

} // namespace opd

#endif // OPD_CORE_PHASEMONITOR_H
