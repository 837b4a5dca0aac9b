//===- harness/Sweep.cpp - Detector configuration sweeps --------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "harness/Sweep.h"

#include "analysis/ConfigAnalysis.h"
#include "core/DetectorRunner.h"
#include "core/FastDetector.h"
#include "core/SharedScan.h"
#include "support/Format.h"
#include "support/Parallel.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <numeric>

using namespace opd;

namespace {

/// Shared accumulator for the per-run stats the worker threads report.
class SweepAccumulator {
  Mutex M;
  SweepStats S OPD_GUARDED_BY(M);

public:
  void addRun(double DetectSeconds, double ScoreSeconds) {
    LockGuard Lock(M);
    S.RunsExecuted += 1;
    S.DetectSeconds += DetectSeconds;
    S.ScoreSeconds += ScoreSeconds;
  }

  SweepStats take(size_t NumConfigs) {
    LockGuard Lock(M);
    S.NumConfigs = NumConfigs;
    S.RunsPruned = NumConfigs - S.RunsExecuted;
    return S;
  }
};

/// Per-worker scratch state reused across the runs one worker executes:
/// the monomorphic fast detectors (one per shape, reconfigure()d between
/// runs so the kernels' per-site count arrays survive) and the
/// DetectorRun output storage. A 5,880-run sweep thus performs a handful
/// of kernel allocations per worker instead of one per run.
class RunArena {
  SiteIndex NumSites = 0;
  std::array<std::unique_ptr<FastDetectorBase>, NumFastShapes> Shapes;

public:
  /// The reused run output.
  DetectorRun Run;

  /// The fast detector for \p Config, reconfigured and ready to run.
  OnlineDetector &acquire(const DetectorConfig &Config, SiteIndex Sites) {
    if (Sites != NumSites) {
      for (std::unique_ptr<FastDetectorBase> &S : Shapes)
        S.reset();
      NumSites = Sites;
    }
    std::unique_ptr<FastDetectorBase> &Slot = Shapes[fastShapeIndex(Config)];
    if (Slot)
      Slot->reconfigure(Config);
    else
      Slot = makeFastDetector(Config, Sites);
    return *Slot;
  }
};

/// Longest-processing-time-first comparator: run the expensive configs
/// first so a straggler claimed late cannot stretch the sweep's tail.
/// Cost is dominated by the evaluation count (inverse skip factor), then
/// by the adaptive policy's recompute-per-evaluation, then window span.
bool costlierConfig(const DetectorConfig &A, const DetectorConfig &B) {
  const WindowConfig &WA = A.Window;
  const WindowConfig &WB = B.Window;
  if (WA.SkipFactor != WB.SkipFactor)
    return WA.SkipFactor < WB.SkipFactor;
  bool AdaptiveA = WA.TWPolicy == TWPolicyKind::Adaptive;
  bool AdaptiveB = WB.TWPolicy == TWPolicyKind::Adaptive;
  if (AdaptiveA != AdaptiveB)
    return AdaptiveA;
  return static_cast<uint64_t>(WA.CWSize) + WA.TWSize >
         static_cast<uint64_t>(WB.CWSize) + WB.TWSize;
}

/// Scores \p Run into \p R against every baseline, exactly once per
/// execution path so both engines score identically.
void scoreRun(const DetectorRun &Run,
              const std::vector<BaselineSolution> &Baselines,
              const SweepOptions &Options, RunScores &R) {
  R.PerMPL.reserve(Baselines.size());
  for (const BaselineSolution &B : Baselines)
    R.PerMPL.push_back(scoreDetection(Run.States, B.states()));
  if (Options.ScoreAnchored) {
    R.AnchoredPerMPL.reserve(Baselines.size());
    for (const BaselineSolution &B : Baselines)
      R.AnchoredPerMPL.push_back(
          scoreDetection(Run.AnchoredPhases, B.states()));
  }
}

/// Shared-scan execution (core/SharedScan.h): the runs at \p Indices
/// are grouped by window-kernel shape and each group rides a single
/// trace pass. LPT scheduling moves from configs to groups — a group's
/// cost is one shared window advance plus each member's evaluation rate
/// (inverse skip) and, for adaptive members, their in-phase shard
/// advances — and per-worker arenas hold one engine per model (cursor
/// arrays, shard pools, and kernel state all reused across the groups a
/// worker claims).
void runConfigsShared(const BranchTrace &Trace,
                      const std::vector<BaselineSolution> &Baselines,
                      const std::vector<DetectorConfig> &Configs,
                      const std::vector<size_t> &Indices,
                      const SweepOptions &Options, SweepAccumulator &Acc,
                      std::vector<RunScores> &Results) {
  std::vector<DetectorConfig> Planned;
  Planned.reserve(Indices.size());
  for (size_t I : Indices)
    Planned.push_back(Configs[I]);
  SharedScanPlan Plan = planSharedScan(Planned);

  std::vector<size_t> Order(Plan.Groups.size());
  std::iota(Order.begin(), Order.end(), size_t{0});
  auto GroupCost = [&](const SharedScanGroup &G) {
    double Cost = 1.0; // The shared window advance.
    for (size_t Member : G.Members) {
      const WindowConfig &W = Planned[Member].Window;
      Cost += 1.0 / static_cast<double>(W.SkipFactor);
      if (W.TWPolicy == TWPolicyKind::Adaptive)
        Cost += 0.5; // Rough in-phase shard-advance share.
    }
    return Cost;
  };
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return GroupCost(Plan.Groups[A]) > GroupCost(Plan.Groups[B]);
  });

  /// Per-worker engine arena: one reusable engine per model plus the
  /// group-sized run storage.
  struct EngineArena {
    std::array<std::unique_ptr<SharedScanEngineBase>, 3> Engines;
    std::vector<DetectorRun> Runs;
  };
  std::vector<EngineArena> Arenas(hardwareParallelism());

  parallelFor(
      Order.size(),
      [&](size_t N, unsigned Worker) {
        const SharedScanGroup &G = Plan.Groups[Order[N]];
        EngineArena &Arena = Arenas[Worker];

        std::unique_ptr<SharedScanEngineBase> &Slot =
            Arena.Engines[static_cast<size_t>(G.Key.Model)];
        if (!Slot || Slot->numSites() != Trace.numSites())
          Slot = makeSharedScanEngine(G.Key.Model, Trace.numSites());

        if (Arena.Runs.size() < G.Members.size())
          Arena.Runs.resize(G.Members.size());
        Slot->run(Planned, G.Members, Trace.elements().data(), Trace.size(),
                  Arena.Runs);

        for (size_t I = 0; I != G.Members.size(); ++I) {
          size_t Global = Indices[G.Members[I]];
          RunScores &R = Results[Global];
          R.Config = Configs[Global];
          scoreRun(Arena.Runs[I], Baselines, Options, R);
          Acc.addRun(R.DetectSeconds, R.ScoreSeconds);
        }
      },
      /*Grain=*/1);
}

/// Executes the detector runs for the configurations at \p Indices,
/// writing each result into Results[Indices[I]].
///
/// The plain path runs the monomorphic fast detectors out of per-worker
/// arenas; with CollectStats it instantiates the reference PhaseDetector
/// instead, which alone emits the internal observer events the counters
/// are built from. Both produce bit-identical scores.
void runConfigsPerConfig(const BranchTrace &Trace,
                         const std::vector<BaselineSolution> &Baselines,
                         const std::vector<DetectorConfig> &Configs,
                         const std::vector<size_t> &Indices,
                         const SweepOptions &Options, SweepAccumulator &Acc,
                         std::vector<RunScores> &Results) {
  // Dynamic scheduling in LPT order: workers claim runs expensive-first
  // off the shared counter, so the final runs in flight are the cheap
  // ones and the workers finish together.
  std::vector<size_t> Order(Indices.size());
  std::iota(Order.begin(), Order.end(), size_t{0});
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return costlierConfig(Configs[Indices[A]], Configs[Indices[B]]);
  });

  std::vector<RunArena> Arenas(hardwareParallelism());

  parallelFor(
      Order.size(),
      [&](size_t N, unsigned Worker) {
        size_t I = Indices[Order[N]];
        const DetectorConfig &Config = Configs[I];
        RunArena &Arena = Arenas[Worker];

        RunScores &R = Results[I];
        R.Config = Config;
        CountingObserver Stats;
        Stopwatch Timer;
        const DetectorRun *Run;
        DetectorRun ObservedRun;
        if (Options.CollectStats) {
          std::unique_ptr<PhaseDetector> Detector =
              makeDetector(Config, Trace.numSites());
          ObservedRun = runDetector(*Detector, Trace, &Stats);
          Run = &ObservedRun;
          R.DetectSeconds = Timer.seconds();
          R.Counters = Stats.counters();
          Timer.restart();
        } else {
          OnlineDetector &Detector = Arena.acquire(Config, Trace.numSites());
          runDetector(Detector, Trace, Arena.Run);
          Run = &Arena.Run;
        }

        scoreRun(*Run, Baselines, Options, R);
        if (Options.CollectStats)
          R.ScoreSeconds = Timer.seconds();
        Acc.addRun(R.DetectSeconds, R.ScoreSeconds);
      },
      /*Grain=*/1);
}

/// Dispatches the runs at \p Indices to the shared-scan engine (the
/// default execution plan) or the per-config path (the differential
/// oracle, and the only path that can carry observers for
/// CollectStats). Both produce bit-identical scores.
void runConfigs(const BranchTrace &Trace,
                const std::vector<BaselineSolution> &Baselines,
                const std::vector<DetectorConfig> &Configs,
                const std::vector<size_t> &Indices,
                const SweepOptions &Options, SweepAccumulator &Acc,
                std::vector<RunScores> &Results) {
  if (Options.SharedScan && !Options.CollectStats)
    runConfigsShared(Trace, Baselines, Configs, Indices, Options, Acc,
                     Results);
  else
    runConfigsPerConfig(Trace, Baselines, Configs, Indices, Options, Acc,
                        Results);
}

} // namespace

std::vector<RunScores>
opd::runSweep(const BranchTrace &Trace,
              const std::vector<BaselineSolution> &Baselines,
              const std::vector<DetectorConfig> &Configs,
              const SweepOptions &Options, SweepStats *Stats) {
  if (Configs.empty()) {
    std::fprintf(stderr,
                 "runSweep: empty configuration list — an empty dimension "
                 "vector annihilates the cross product; lint the spec with "
                 "config_check\n");
    std::abort();
  }

  std::vector<RunScores> Results(Configs.size());
  SweepAccumulator Acc;

  if (!Options.Prune) {
    std::vector<size_t> All(Configs.size());
    for (size_t I = 0; I < All.size(); ++I)
      All[I] = I;
    runConfigs(Trace, Baselines, Configs, All, Options, Acc, Results);
    if (Stats)
      *Stats = Acc.take(Configs.size());
    return Results;
  }

  // Pruned sweep: run one representative per provable equivalence class,
  // then fan its scores out to every member. Anchored scoring keeps the
  // anchor-affecting merge rules disabled so the fanned-out anchored
  // scores are as bit-identical as the plain ones.
  ConfigCanonOptions Canon;
  Canon.AnchoredScoring = Options.ScoreAnchored;
  ConfigPartition Partition = partitionConfigs(Configs, Canon);

  std::vector<size_t> Reps;
  Reps.reserve(Partition.Classes.size());
  for (const ConfigClass &Class : Partition.Classes)
    Reps.push_back(Class.Representative);
  runConfigs(Trace, Baselines, Configs, Reps, Options, Acc, Results);

  for (const ConfigClass &Class : Partition.Classes) {
    const RunScores &Rep = Results[Class.Representative];
    for (size_t Member : Class.Members) {
      if (Member == Class.Representative)
        continue;
      RunScores &R = Results[Member];
      R = Rep;
      // The scores are the class's; the identity stays the member's.
      R.Config = Configs[Member];
    }
  }
  if (Stats)
    *Stats = Acc.take(Configs.size());
  return Results;
}

double opd::bestScore(
    const std::vector<RunScores> &Runs, size_t MPLIdx,
    const std::function<bool(const DetectorConfig &)> &Filter,
    bool Anchored) {
  double Best = -1.0;
  for (const RunScores &R : Runs) {
    if (!Filter(R.Config))
      continue;
    const std::vector<AccuracyScore> &Scores =
        Anchored ? R.AnchoredPerMPL : R.PerMPL;
    assert(MPLIdx < Scores.size() && "baseline index out of range");
    Best = std::max(Best, Scores[MPLIdx].Score);
  }
  return Best;
}

Table opd::sweepStatsTable(const std::vector<RunScores> &Runs,
                           const std::string &Title) {
  Table T(Title);
  T.setHeader({"configuration", "elements", "evals", "phases", "anchor corr",
               "resizes", "flushes", "detect ms", "score ms", "Melem/s"});
  for (const RunScores &R : Runs) {
    const RunCounters &C = R.Counters;
    double MElemPerSec =
        R.DetectSeconds > 0.0
            ? static_cast<double>(C.Elements) / R.DetectSeconds / 1e6
            : 0.0;
    T.addRow({R.Config.describe(), formatCount(C.Elements),
              formatCount(C.Evaluations), formatCount(C.PhasesOpened),
              formatCount(C.AnchorCorrections),
              formatCount(C.WindowResizes), formatCount(C.WindowFlushes),
              formatDouble(R.DetectSeconds * 1e3, 1),
              formatDouble(R.ScoreSeconds * 1e3, 1),
              formatDouble(MElemPerSec, 1)});
  }
  return T;
}
