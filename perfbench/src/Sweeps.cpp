//===- perfbench/src/Sweeps.cpp - sweep-paper and repro-figs -------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// The two sweep workloads. sweep-paper is one trace swept by the pruned
// 10,080-point paper cross product: few, large shared-scan groups, so the
// engine (core) does nearly all the work. repro-figs is the seven
// bench_* sweeps over all eight traces with many MPLs: small groups, so
// per-trace parallelism (harness), scoring (metrics) and set-up carry
// their largest shares.
//
// Untraced passes call runSweep() exactly as the bench_* binaries do and
// give the end-to-end metrics. Traced passes compose the same pipeline
// from the libraries' public functions (partitionConfigs ->
// planSharedScan -> engine run -> scoreDetection, same worker count) with
// a span around every call; their scores must be bit-identical to
// runSweep's.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/ConfigAnalysis.h"
#include "analysis/KernelBounds.h"
#include "core/DetectorRunner.h"
#include "core/SharedScan.h"
#include "core/SweepSpec.h"
#include "support/Parallel.h"
#include "support/Random.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <numeric>

using namespace opd;
using namespace opd::bench;

namespace {

/// Trace scale of sweep-paper. At 1.0 (0.89M elements) a pass takes
/// 4-6 s on a 4-core host, so a 30-s run held five passes and their
/// median moved with host load by up to a quarter from run to run. A
/// quarter (155K elements) keeps the pruned cross product, its 28 groups
/// and the engine's share of the work, and gives a run some 30 passes.
constexpr double SweepPaperScale = 0.25;

/// Trace scale of repro-figs. At 1.0 one pass takes ~20 s on a 4-core
/// host; a quarter keeps all eight traces, every spec and every MPL (so
/// the same small groups) while a run fits several passes.
constexpr double ReproFigsScale = 0.25;

/// One runSweep() call of a pass: a spec over one trace.
struct SweepJob {
  size_t TraceIdx;
  std::string SpecName;
  const std::vector<DetectorConfig> *Configs;
  SweepOptions Options;
};

/// A sweep workload's fixed inputs (its traces come from set-up).
struct SweepWorkload {
  std::string Name;
  std::vector<std::string> Traces;
  double Scale;
  std::vector<uint64_t> MPLs;
  /// (name, configs, options) per spec; every spec runs on every trace.
  std::vector<std::tuple<std::string, std::vector<DetectorConfig>,
                         SweepOptions>>
      Specs;
};

using PassScores = std::vector<std::vector<RunScores>>; // per job

/// Work and layer accounting of traced passes (sums over passes).
struct TracedTotals {
  size_t Passes = 0;
  size_t Requested = 0;
  size_t Executed = 0;
  size_t Groups = 0;
  size_t AdmittedGroups = 0;
  size_t LargestGroup = 0;
  double CursorElems = 0.0;
  size_t Scorings = 0;
  double TailSeconds = 0.0;
  double PassSeconds = 0.0;
};

bool sameScore(const AccuracyScore &A, const AccuracyScore &B) {
  auto Bits = [](double D) { return std::bit_cast<uint64_t>(D); };
  return Bits(A.Correlation) == Bits(B.Correlation) &&
         Bits(A.Sensitivity) == Bits(B.Sensitivity) &&
         Bits(A.FalsePositives) == Bits(B.FalsePositives) &&
         Bits(A.Score) == Bits(B.Score) &&
         A.MatchedBoundaries == B.MatchedBoundaries &&
         A.BaselineBoundaries == B.BaselineBoundaries &&
         A.DetectedBoundaries == B.DetectedBoundaries;
}

bool sameScores(const std::vector<AccuracyScore> &A,
                const std::vector<AccuracyScore> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (!sameScore(A[I], B[I]))
      return false;
  return true;
}

/// Bit-identical comparison of two sweep outputs.
size_t countMismatches(const std::vector<RunScores> &A,
                       const std::vector<RunScores> &B) {
  if (A.size() != B.size())
    return std::max(A.size(), B.size());
  size_t Bad = 0;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Config != B[I].Config || !sameScores(A[I].PerMPL, B[I].PerMPL) ||
        !sameScores(A[I].AnchoredPerMPL, B[I].AnchoredPerMPL))
      ++Bad;
  return Bad;
}

/// Scores \p Run against every baseline the way runSweep does.
void scoreInto(const DetectorRun &Run,
               const std::vector<BaselineSolution> &Baselines,
               bool Anchored, RunScores &R) {
  R.PerMPL.reserve(Baselines.size());
  for (const BaselineSolution &B : Baselines)
    R.PerMPL.push_back(scoreDetection(Run.States, B.states()));
  if (Anchored) {
    R.AnchoredPerMPL.reserve(Baselines.size());
    for (const BaselineSolution &B : Baselines)
      R.AnchoredPerMPL.push_back(
          scoreDetection(Run.AnchoredPhases, B.states()));
  }
}

/// runSweep() composed from public functions, with spans around each
/// call. Mirrors harness/Sweep.cpp's shared-scan plan: partition (when
/// pruning), group by kernel shape, LPT over groups, per-group batch
/// admission, one engine pass per group, score, fan out.
std::vector<RunScores> tracedRunSweep(const BranchTrace &Trace,
                                      const std::vector<BaselineSolution> &Bs,
                                      const std::vector<DetectorConfig> &Cfgs,
                                      const SweepOptions &Options, Tracer &T,
                                      uint64_t Parent, uint64_t &NextGroup,
                                      TracedTotals &Tot) {
  std::vector<RunScores> Results(Cfgs.size());
  Span Sweep(&T, "harness.sweep", Parent);

  std::vector<size_t> Indices;
  ConfigPartition Partition;
  if (Options.Prune) {
    Span S(&T, "analysis.partition", Sweep.id());
    ConfigCanonOptions Canon;
    Canon.AnchoredScoring = Options.ScoreAnchored;
    Partition = partitionConfigs(Cfgs, Canon);
    for (const ConfigClass &Class : Partition.Classes)
      Indices.push_back(Class.Representative);
  } else {
    Indices.resize(Cfgs.size());
    std::iota(Indices.begin(), Indices.end(), size_t{0});
  }

  std::vector<DetectorConfig> Planned;
  SharedScanPlan Plan;
  std::vector<size_t> Order;
  {
    Span S(&T, "core.plan", Sweep.id());
    Planned.reserve(Indices.size());
    for (size_t I : Indices)
      Planned.push_back(Cfgs[I]);
    Plan = planSharedScan(Planned);
    Order.resize(Plan.Groups.size());
    std::iota(Order.begin(), Order.end(), size_t{0});
    auto GroupCost = [&](const SharedScanGroup &G) {
      double Cost = 1.0;
      for (size_t Member : G.Members) {
        const WindowConfig &W = Planned[Member].Window;
        Cost += 1.0 / static_cast<double>(W.SkipFactor);
        if (W.TWPolicy == TWPolicyKind::Adaptive)
          Cost += 0.5;
      }
      return Cost;
    };
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return GroupCost(Plan.Groups[A]) > GroupCost(Plan.Groups[B]);
    });
  }

  TraceBounds Bounds;
  Bounds.TraceLen = Trace.size();
  Bounds.MaxMultiplicity = 0;
  Bounds.NumSites = Trace.numSites();

  struct EngineArena {
    std::array<std::unique_ptr<SharedScanEngineBase>, 3> Engines;
    std::vector<DetectorRun> Runs;
  };
  const unsigned Workers = hardwareParallelism();
  std::vector<EngineArena> Arenas(Workers);
  std::vector<uint8_t> AdmittedFlags(Plan.Groups.size(), 0);
  uint64_t FirstGroup = NextGroup;
  NextGroup += Plan.Groups.size();

  Clock::time_point ParStart = Clock::now();
  std::vector<Clock::time_point> WorkerEnd(Workers, ParStart);
  parallelFor(
      Order.size(),
      [&](size_t N, unsigned Worker) {
        const SharedScanGroup &G = Plan.Groups[Order[N]];
        uint64_t GroupId = FirstGroup + Order[N];
        EngineArena &Arena = Arenas[Worker];
        Span Group(&T, "harness.group", Sweep.id(), GroupId, Worker);

        std::unique_ptr<SharedScanEngineBase> &Slot =
            Arena.Engines[static_cast<size_t>(G.Key.Model)];
        if (!Slot || Slot->numSites() != Trace.numSites())
          Slot = makeSharedScanEngine(G.Key.Model, Trace.numSites());

        bool Admitted = true;
        {
          Span S(&T, "analysis.certify", Group.id(), GroupId, Worker);
          for (size_t Member : G.Members)
            Admitted = Admitted &&
                       admitsBatchLanes(certifyKernel(Planned[Member], Bounds));
        }
        AdmittedFlags[Order[N]] = Admitted;
        Slot->setBatchKernels(Admitted);

        if (Arena.Runs.size() < G.Members.size())
          Arena.Runs.resize(G.Members.size());
        {
          Span S(&T, "core.engine", Group.id(), GroupId, Worker);
          Slot->run(Planned, G.Members, Trace.elements().data(), Trace.size(),
                    Arena.Runs);
        }
        for (size_t I = 0; I != G.Members.size(); ++I) {
          size_t Global = Indices[G.Members[I]];
          RunScores &R = Results[Global];
          R.Config = Cfgs[Global];
          Span S(&T, "metrics.score", Group.id(), GroupId, Worker);
          scoreInto(Arena.Runs[I], Bs, Options.ScoreAnchored, R);
        }
        WorkerEnd[Worker] = Clock::now();
      },
      /*Grain=*/1);

  if (Options.Prune) {
    Span S(&T, "harness.fanout", Sweep.id());
    for (const ConfigClass &Class : Partition.Classes) {
      const RunScores &Rep = Results[Class.Representative];
      for (size_t Member : Class.Members) {
        if (Member == Class.Representative)
          continue;
        Results[Member] = Rep;
        Results[Member].Config = Cfgs[Member];
      }
    }
  }

  // Tail: from the first worker going idle to the last one finishing.
  auto [FirstIdle, LastDone] =
      std::minmax_element(WorkerEnd.begin(), WorkerEnd.end());
  Tot.TailSeconds += secondsBetween(*FirstIdle, *LastDone);
  Tot.Requested += Cfgs.size();
  Tot.Executed += Indices.size();
  Tot.Groups += Plan.Groups.size();
  for (uint8_t A : AdmittedFlags)
    Tot.AdmittedGroups += A;
  Tot.LargestGroup = std::max(Tot.LargestGroup, Plan.largestGroup());
  Tot.CursorElems += double(Indices.size()) * double(Trace.size());
  Tot.Scorings +=
      Indices.size() * Bs.size() * (Options.ScoreAnchored ? 2 : 1);
  return Results;
}

struct PassResult {
  double Wall = 0.0;
  double Cpu = 0.0;
  PassScores Scores;
};

PassResult untracedPass(const std::vector<SweepJob> &Jobs,
                        const std::vector<BenchmarkData> &Data) {
  PassResult P;
  P.Scores.resize(Jobs.size());
  double Cpu0 = processCpuSeconds();
  Clock::time_point T0 = Clock::now();
  for (size_t J = 0; J != Jobs.size(); ++J) {
    const BenchmarkData &B = Data[Jobs[J].TraceIdx];
    P.Scores[J] =
        runSweep(B.Trace, B.Baselines, *Jobs[J].Configs, Jobs[J].Options);
  }
  P.Wall = secondsBetween(T0, Clock::now());
  P.Cpu = processCpuSeconds() - Cpu0;
  return P;
}

PassResult tracedPass(const std::vector<SweepJob> &Jobs,
                      const std::vector<BenchmarkData> &Data, Tracer &T,
                      uint64_t &NextGroup, TracedTotals &Tot) {
  PassResult P;
  P.Scores.resize(Jobs.size());
  double Cpu0 = processCpuSeconds();
  Clock::time_point T0 = Clock::now();
  {
    Span Pass(&T, "harness.pass");
    for (size_t J = 0; J != Jobs.size(); ++J) {
      const BenchmarkData &B = Data[Jobs[J].TraceIdx];
      P.Scores[J] = tracedRunSweep(B.Trace, B.Baselines, *Jobs[J].Configs,
                                   Jobs[J].Options, T, Pass.id(), NextGroup,
                                   Tot);
    }
  }
  P.Wall = secondsBetween(T0, Clock::now());
  P.Cpu = processCpuSeconds() - Cpu0;
  Tot.Passes += 1;
  Tot.PassSeconds += P.Wall;
  return P;
}

/// Reruns a seeded sample of (job, config) pairs through the reference
/// PhaseDetector and compares their scores with \p Scores.
void referenceCheck(const std::vector<SweepJob> &Jobs,
                    const std::vector<BenchmarkData> &Data,
                    const PassScores &Scores,
                    const std::vector<std::pair<size_t, size_t>> &Sample,
                    Report &R) {
  std::vector<uint8_t> Ok(Sample.size(), 0);
  parallelFor(Sample.size(), [&](size_t I) {
    auto [J, C] = Sample[I];
    const BenchmarkData &B = Data[Jobs[J].TraceIdx];
    const DetectorConfig &Config = (*Jobs[J].Configs)[C];
    std::unique_ptr<PhaseDetector> Det =
        makeDetector(Config, B.Trace.numSites());
    DetectorRun Run = runDetector(*Det, B.Trace);
    RunScores Ref;
    scoreInto(Run, B.Baselines, Jobs[J].Options.ScoreAnchored, Ref);
    const RunScores &Got = Scores[J][C];
    Ok[I] = Got.Config == Config && sameScores(Got.PerMPL, Ref.PerMPL) &&
            sameScores(Got.AnchoredPerMPL, Ref.AnchoredPerMPL);
  });
  for (size_t I = 0; I != Sample.size(); ++I)
    R.check(Ok[I], "reference PhaseDetector differs from runSweep for " +
                       Jobs[Sample[I].first].SpecName + " on " +
                       Data[Jobs[Sample[I].first].TraceIdx].Name + " config " +
                       (*Jobs[Sample[I].first].Configs)[Sample[I].second]
                           .describe());
}

/// Flips one bit of a score that the reference sample covers.
void corruptScore(PassScores &Scores,
                  const std::vector<std::pair<size_t, size_t>> &Sample) {
  auto [J, C] = Sample.front();
  double &S = Scores[J][C].PerMPL.front().Score;
  S = std::bit_cast<double>(std::bit_cast<uint64_t>(S) ^ 1u);
}

int runSweepWorkload(const SweepWorkload &W, const RunOptions &Opts) {
  Report R;
  R.note("workload", W.Name);

  // Set-up: build every trace several times over the run (see
  // SetupShare). The passes use the first build; each later one must
  // build the same traces.
  std::vector<BenchmarkData> Data;
  std::vector<double> SetupSeconds;
  SetupCost Cost;
  std::unique_ptr<Tracer> T;
  auto SetUp = [&] {
    Cost = SetupCost();
    Clock::time_point T0 = Clock::now();
    std::vector<BenchmarkData> Built =
        prepareTraces(W.Traces, W.MPLs, W.Scale, Opts.Seed, Cost, nullptr, 0);
    SetupSeconds.push_back(secondsBetween(T0, Clock::now()));
    if (Data.empty()) {
      Data = std::move(Built);
      return;
    }
    bool Same = Built.size() == Data.size();
    for (size_t I = 0; Same && I != Data.size(); ++I)
      Same = Built[I].Trace.elements() == Data[I].Trace.elements() &&
             Built[I].Baselines.size() == Data[I].Baselines.size();
    R.check(Same, "repeated set-up built different traces");
  };
  if (Opts.Trace) {
    T = std::make_unique<Tracer>(hardwareParallelism());
    Span Setup(T.get(), "setup.all");
    Data = prepareTraces(W.Traces, W.MPLs, W.Scale, Opts.Seed, Cost, T.get(),
                         Setup.id());
  } else {
    for (size_t I = 0; I != MinSetups; ++I)
      SetUp();
  }

  std::vector<SweepJob> Jobs;
  for (size_t I = 0; I != Data.size(); ++I)
    for (const auto &[Name, Configs, Options] : W.Specs)
      Jobs.push_back({I, Name, &Configs, Options});
  double RequestedElems = 0.0;
  uint64_t TraceElems = 0;
  for (const SweepJob &J : Jobs)
    RequestedElems +=
        double(J.Configs->size()) * double(Data[J.TraceIdx].Trace.size());
  for (const BenchmarkData &B : Data)
    TraceElems += B.Trace.size();
  R.note("trace_elements", std::to_string(TraceElems));
  R.note("sweep_calls_per_pass", std::to_string(Jobs.size()));

  // The seeded reference sample: (job, config) pairs.
  Xoshiro256 Rng(Opts.Seed ^ 0x5eed5eedULL);
  std::vector<std::pair<size_t, size_t>> Sample;
  const size_t SampleSize = 32;
  for (size_t I = 0; I != SampleSize; ++I) {
    size_t J = size_t(Rng.nextBelow(Jobs.size()));
    Sample.push_back({J, size_t(Rng.nextBelow(Jobs[J].Configs->size()))});
  }

  // Measurement: untraced passes (and, traced, interleaved traced ones)
  // until the run's time is spent. Every pass must be bit-identical to
  // the first; the traced composition too. Later passes are checked and
  // dropped at once so memory does not grow with the pass count.
  PassScores First;
  std::vector<double> Walls, Cpus, TracedWalls;
  TracedTotals Tot;
  uint64_t NextGroup = 1;
  auto Compare = [&](const PassScores &Other, const char *What) {
    for (size_t J = 0; J != Jobs.size(); ++J)
      R.tally(First[J].size(), countMismatches(First[J], Other[J]),
              std::string(What) + " differs on " + Jobs[J].SpecName + "/" +
                  Data[Jobs[J].TraceIdx].Name);
  };
  auto Untraced = [&] {
    PassResult P = untracedPass(Jobs, Data);
    Walls.push_back(P.Wall);
    Cpus.push_back(P.Cpu);
    if (First.empty()) {
      First = std::move(P.Scores);
      if (Opts.Corrupt == Corruption::Score)
        corruptScore(First, Sample);
    } else {
      Compare(P.Scores, "repeated runSweep pass");
    }
  };
  auto Traced = [&] {
    PassResult P = tracedPass(Jobs, Data, *T, NextGroup, Tot);
    TracedWalls.push_back(P.Wall);
    Compare(P.Scores, "traced composition");
  };
  Clock::time_point Start = Clock::now();
  while (true) {
    // Traced runs alternate which variant goes first, so neither always
    // runs on the other's warm caches.
    if (Opts.Trace && Walls.size() % 2 == 1) {
      Traced();
      Untraced();
    } else {
      Untraced();
      if (Opts.Trace)
        Traced();
    }
    if (!Opts.Trace) {
      Clock::time_point S0 = Clock::now();
      do
        SetUp();
      while (secondsBetween(S0, Clock::now()) < SetupShare * Walls.back());
    }
    double Elapsed = secondsBetween(Start, Clock::now());
    if (Elapsed * double(Walls.size() + 1) / double(Walls.size()) >
        Opts.Seconds)
      break;
  }
  // Peak memory of set-up and the measured passes; the reference check
  // below is the benchmark's, not the workload's.
  const double PeakRss = peakRssMB();
  referenceCheck(Jobs, Data, First, Sample, R);

  double RunS = medianOf(Walls);
  double CpuS = medianOf(Cpus);
  R.note("passes", std::to_string(Walls.size()));

  if (!Opts.Trace) {
    R.set("setup_s", minOf(SetupSeconds), "s", SetupSeconds.size());
    R.set("run_s", RunS, "s", Walls.size());
    R.set("cpu_s", CpuS, "s", Cpus.size());
    R.set("max_rate_meps", RequestedElems / RunS / 1e6, "Melem/s");
    R.set("server_cpu_ns_per_elem", CpuS / RequestedElems * 1e9, "ns");
    R.set("peak_rss_mb", PeakRss, "MB");
    reportSetupLayers(R, Cost);
    return R.finish();
  }

  // Per-layer metrics from the traced passes (per-pass averages).
  std::vector<SpanRecord> Spans = T->all();
  double N = double(Tot.Passes);
  R.set("peak_rss_mb", PeakRss, "MB");
  reportSetupLayers(R, Cost);
  R.set("analysis.partition_ms",
        spanSeconds(Spans, "analysis.partition") / N * 1e3, "ms");
  R.set("analysis.prune_ratio", double(Tot.Executed) / double(Tot.Requested),
        "ratio");
  R.set("analysis.certify_ms",
        spanSeconds(Spans, "analysis.certify") / N * 1e3, "ms");
  R.set("analysis.batch_admitted",
        double(Tot.AdmittedGroups) / double(Tot.Groups), "ratio");
  double EngineBusy = spanSeconds(Spans, "core.engine") / N;
  double ScoreBusy = spanSeconds(Spans, "metrics.score") / N;
  R.set("core.groups", double(Tot.Groups) / N, "count");
  R.set("core.largest_group", double(Tot.LargestGroup), "count");
  R.set("core.cursor_elems", Tot.CursorElems / N, "count");
  R.set("core.engine_busy_s", EngineBusy, "s");
  R.set("core.ns_per_cursor_elem", EngineBusy * N / Tot.CursorElems * 1e9,
        "ns");
  R.set("metrics.score_busy_s", ScoreBusy, "s");
  R.set("metrics.scorings", double(Tot.Scorings) / N, "count");
  double TracedRun = Tot.PassSeconds / N;
  R.set("harness.busy_frac",
        (EngineBusy + ScoreBusy) / (TracedRun * hardwareParallelism()),
        "ratio");
  R.set("harness.tail_s", Tot.TailSeconds / N, "s");
  R.set("trace.overhead_pct", (medianOf(TracedWalls) / RunS - 1.0) * 100.0,
        "%");
  for (const auto &[Layer, Seconds] : layerSelfSeconds(Spans)) {
    bool PerPass = Layer == "harness" || Layer == "analysis" ||
                   Layer == "core" || Layer == "metrics";
    R.set(Layer + ".self_s", PerPass ? Seconds / N : Seconds, "s");
  }
  if (!Opts.SpansOut.empty() && !T->write(Opts.SpansOut))
    R.check(false, "cannot write spans to " + Opts.SpansOut);
  R.note("spans", std::to_string(Spans.size()) + " written to " +
                      (Opts.SpansOut.empty() ? "-" : Opts.SpansOut));
  return R.finish();
}

} // namespace

int opd::bench::runSweepPaper(const RunOptions &Opts) {
  SweepWorkload W;
  W.Name = "sweep-paper";
  W.Traces = {"jess"};
  W.Scale = SweepPaperScale;
  W.MPLs = {10000};
  SweepOptions Options;
  Options.Prune = true;
  W.Specs.emplace_back("paper", enumerateCrossProduct(paperCrossSpec()),
                       Options);
  return runSweepWorkload(W, Opts);
}

int opd::bench::runReproFigs(const RunOptions &Opts) {
  SweepWorkload W;
  W.Name = "repro-figs";
  for (const Workload &WL : standardWorkloads())
    W.Traces.push_back(WL.Name);
  W.Scale = ReproFigsScale;
  W.MPLs = ExtendedMPLs;
  for (const std::string &Name : benchSweepNames()) {
    // Each bench binary's default analyzer set: fig6 always sweeps the
    // paper's analyzers, the others the reduced set unless --full.
    SweepSpec Spec = benchSweepSpec(
        Name, Name == "fig6" ? paperAnalyzers() : reducedAnalyzers());
    SweepOptions Options;
    Options.ScoreAnchored = Name == "fig8";
    W.Specs.emplace_back(Name, enumerateConfigs(Spec), Options);
  }
  return runSweepWorkload(W, Opts);
}
