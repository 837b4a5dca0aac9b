//===- core/SharedScan.h - One trace pass, many detectors -------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared-scan execution engine: runs every configuration in a
/// window-kernel shape group through a **single** pass over the trace,
/// producing per-config DetectorRuns bit-identical to running each
/// config through its own FastPhaseDetector.
///
/// The enabling observation is position purity: a detector whose
/// trailing window is not mid-phase holds windows that are a pure
/// function of the stream position — CW is the last CWSize elements,
/// TW the TWSize before them — independent of every decision the
/// detector ever made. Configs that agree on (model, CWSize, TWSize)
/// therefore share one free-running window/kernel; what differs per
/// config (skip stride, analyzer, threshold parameter, anchor/resize
/// policy) becomes a lightweight **cursor** over the shared kernel:
///
///  * Cursors whose state is a function of position (constant-TW
///    configs always; adaptive ones while out of phase) read their
///    decisions straight off the shared kernel — the per-position
///    similarity is computed once and fanned out to every threshold
///    and analyzer, instead of N kernels recomputing it.
///  * A post-flush refill is a countdown: after a phase ends at
///    position n keeping K seed elements, the windows provably stay
///    not-full (forced Transition output, no analyzer calls) until
///    position n + (CWSize - K) + TWSize, at which point the refilled
///    window bit-matches the free-running one — so a flushed cursor
///    stores only that resync position and performs zero work until
///    it passes.
///  * Only adaptive cursors *inside* a phase have decision-dependent
///    window state. Each open phase detaches a **shard** — a copy of
///    the shared kernel at phase entry, resized per the anchor — that
///    advances lazily to the owning cursors' evaluation positions.
///    Cursors that enter a phase at the same position with the same
///    anchor value and resize policy share one refcounted shard, since
///    the in-phase window evolution is decision-independent.
///
/// Cursors with the same skip stride advance in lockstep (one
/// countdown per stride bucket), so the shared window advances through
/// the trace in tight eval-to-eval bursts.
///
/// The per-config FastPhaseDetector path remains the differential
/// oracle: tests/SharedScanTest.cpp drives the full sweep grid through
/// both and requires bit-identical StateSequences, phases, and
/// anchored phases.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_SHAREDSCAN_H
#define OPD_CORE_SHAREDSCAN_H

#include "core/DetectorConfig.h"
#include "core/DetectorRunner.h"

#include <memory>
#include <vector>

namespace opd {

/// The window-kernel shape a shared-scan group agrees on. Everything
/// else in a DetectorConfig (skip, analyzer, parameter, anchor, resize,
/// TW policy) is per-cursor state.
struct SharedScanKey {
  /// The similarity model.
  ModelKind Model;
  /// Current-window size.
  uint32_t CWSize;
  /// Trailing-window (initial) size.
  uint32_t TWSize;

  friend bool operator==(const SharedScanKey &A, const SharedScanKey &B) {
    return A.Model == B.Model && A.CWSize == B.CWSize && A.TWSize == B.TWSize;
  }
  friend bool operator<(const SharedScanKey &A, const SharedScanKey &B) {
    if (A.Model != B.Model)
      return A.Model < B.Model;
    if (A.CWSize != B.CWSize)
      return A.CWSize < B.CWSize;
    return A.TWSize < B.TWSize;
  }
};

/// The shape group \p Config executes under.
SharedScanKey sharedScanKey(const DetectorConfig &Config);

/// One shared-scan group: the configs (as indices into the planned
/// list) that ride one trace pass.
struct SharedScanGroup {
  /// The shared window-kernel shape.
  SharedScanKey Key;
  /// Indices into the planned config list, in plan order.
  std::vector<size_t> Members;
};

/// A sweep's configs partitioned into shared-scan groups.
struct SharedScanPlan {
  /// The groups, ordered by first appearance in the config list.
  std::vector<SharedScanGroup> Groups;

  /// Size of the largest group (0 for an empty plan).
  size_t largestGroup() const {
    size_t Largest = 0;
    for (const SharedScanGroup &G : Groups)
      Largest = std::max(Largest, G.Members.size());
    return Largest;
  }
};

/// Partitions \p Configs into shared-scan groups by sharedScanKey().
/// Groups appear in first-appearance order and members in config order,
/// so the plan is deterministic for a given config list.
SharedScanPlan planSharedScan(const std::vector<DetectorConfig> &Configs);

/// A reusable shared-scan engine for one similarity model. Like the
/// sweep's RunArena detectors, an engine is acquired per worker and
/// reconfigured per group: cursor arrays, shard pools, and kernel
/// count arrays all survive between run() calls, so a sweep performs a
/// handful of allocations per worker rather than one per group.
///
/// Engines are not thread-safe; use one per worker.
class SharedScanEngineBase {
public:
  virtual ~SharedScanEngineBase() = default;

  /// Has no effect: the batch kernel (core/BatchKernel.h) is exact for
  /// every input, so there is nothing to enable or refuse. Kept only
  /// for perfbench/src/Sweeps.cpp, which still calls it.
  void setBatchKernels(bool /*Enabled*/) {}

  /// Runs the group over \p Elements / \p NumElements, writing config
  /// Configs[Members[I]]'s output into Runs[I] (cleared first). Every
  /// member must match this engine's model and share one
  /// sharedScanKey(); Runs must hold at least Members.size() entries.
  virtual void run(const std::vector<DetectorConfig> &Configs,
                   const std::vector<size_t> &Members,
                   const SiteIndex *Elements, size_t NumElements,
                   std::vector<DetectorRun> &Runs) = 0;

  /// The number of sites the engine was built for.
  virtual SiteIndex numSites() const = 0;
};

/// Creates a shared-scan engine for \p Model over \p NumSites sites.
std::unique_ptr<SharedScanEngineBase>
makeSharedScanEngine(ModelKind Model, SiteIndex NumSites);

} // namespace opd

#endif // OPD_CORE_SHAREDSCAN_H
