//===- perfbench/src/Bench.h - Repository benchmark shared parts -*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the benchmark's workloads: run options, the
/// metric report, the span tracer, and trace preparation. The benchmark
/// measures every layer from outside, by timing its own calls into the
/// libraries' public functions; nothing here reaches into src/.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_PERFBENCH_BENCH_H
#define OPD_PERFBENCH_BENCH_H

#include "harness/Experiment.h"
#include "harness/Sweep.h"
#include "workloads/Workloads.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace opd {
namespace bench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

/// Process CPU time (all threads) in seconds.
double processCpuSeconds();
/// CPU time of the calling thread in seconds.
double threadCpuSeconds();
/// Peak resident set size of this process in MB (VmHWM).
double peakRssMB();

/// Percentile \p P (0..100) of \p V: the floor-rank order statistic, as
/// in De-Par/IDet's percentile_of. Returns 0 for an empty sample.
double percentileOf(std::vector<double> V, double P);
inline double medianOf(const std::vector<double> &V) {
  return percentileOf(V, 50.0);
}
inline double minOf(const std::vector<double> &V) {
  return percentileOf(V, 0.0);
}

/// Set-up is repeated over the whole run: MinSetups times before the
/// first measured pass or step, then after each one for SetupShare of its
/// wall time. setup_s is the fastest repetition. On a shared 4-core host
/// the single-threaded set-up ran in stretches either about 1.8 times
/// slower than its best or close to it, with the slow share drifting from
/// minute to minute: the median followed the drift (it moved by more than
/// a quarter between two sets of runs of the same code), the fastest
/// repetition moved by under a tenth.
constexpr size_t MinSetups = 5;
constexpr double SetupShare = 0.1;

/// What the self-test asks a run to corrupt before its output checks.
enum class Corruption : uint8_t { None, Score, Transition };

/// Parsed command line.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string SpansOut;
  /// serve-open: the decide_p99_ms limit a ladder rate must meet.
  double LatencyLimitMs = 100.0;
  Corruption Corrupt = Corruption::None;
};

/// Metrics and checks of one run, printed at exit.
class Report {
public:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
    /// Samples behind a timing percentile; 0 when not a sample statistic.
    size_t Samples;
  };

  void set(const std::string &Name, double Value, const std::string &Unit,
           size_t Samples = 0);
  /// Records one checked operation; a false \p Ok counts as failed and
  /// \p What is printed.
  void check(bool Ok, const std::string &What);
  /// Records \p Total checked operations of which \p Bad failed.
  void tally(uint64_t Total, uint64_t Bad, const std::string &What);
  /// Context line: free-form key/value facts about the run.
  void note(const std::string &Key, const std::string &Value);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Prints the context, every metric with its unit and sample count, and
  /// as the last stdout line the result object the benchmark contract
  /// defines. Returns the process exit code.
  int finish() const;

private:
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, std::string>> Notes;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One recorded interval. Start/End are seconds since the tracer began.
struct SpanRecord {
  uint64_t Id = 0;
  uint64_t Parent = 0;
  /// Sweep group or serve session the span belongs to (0: none).
  uint64_t Group = 0;
  const char *Name = "";
  double Start = 0.0;
  double End = 0.0;
  unsigned Worker = 0;
};

/// In-memory span store. Each parallelFor worker appends to its own
/// buffer, so recording takes no lock; ids come from one atomic counter.
/// The layer of a span is the part of its name before the first '.'.
class Tracer {
public:
  explicit Tracer(unsigned Workers);
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Opens a span on \p Worker's buffer; returns its handle for close().
  size_t open(unsigned Worker, const char *Name, uint64_t Parent,
              uint64_t Group);
  void close(unsigned Worker, size_t Handle);
  /// Records a span whose endpoints were measured elsewhere.
  uint64_t add(unsigned Worker, const char *Name, uint64_t Parent,
               uint64_t Group, Clock::time_point Start, Clock::time_point End);
  uint64_t idOf(unsigned Worker, size_t Handle) const {
    return Buffers[Worker][Handle].Id;
  }

  /// Every span, all workers merged.
  std::vector<SpanRecord> all() const;
  /// Writes all spans as Chrome trace-event JSON; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  Clock::time_point Origin;
  std::atomic<uint64_t> NextId{1};
  std::vector<std::vector<SpanRecord>> Buffers;
};

/// RAII span; a null tracer makes it a no-op.
class Span {
public:
  Span(Tracer *T, const char *Name, uint64_t Parent = 0, uint64_t Group = 0,
       unsigned Worker = 0)
      : T(T), Worker(Worker) {
    if (T)
      Handle = T->open(Worker, Name, Parent, Group);
  }
  ~Span() {
    if (T)
      T->close(Worker, Handle);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  uint64_t id() const { return T ? T->idOf(Worker, Handle) : 0; }

private:
  Tracer *T;
  unsigned Worker;
  size_t Handle = 0;
};

/// Self time per layer: each span's duration minus the part of it that
/// its child spans cover, summed by layer (name prefix before '.').
std::vector<std::pair<std::string, double>>
layerSelfSeconds(const std::vector<SpanRecord> &Spans);

/// Total duration of the spans named \p Name.
double spanSeconds(const std::vector<SpanRecord> &Spans, const char *Name);

//===----------------------------------------------------------------------===//
// Trace preparation (set-up)
//===----------------------------------------------------------------------===//

/// The interpreter seed of workload \p W under benchmark seed \p Seed.
uint64_t interpreterSeed(uint64_t Seed, const Workload &W);

/// Per-layer set-up accounting of one preparation.
struct SetupCost {
  double CompileSeconds = 0.0;
  double VmSeconds = 0.0;
  double BaselineSeconds = 0.0;
  uint64_t Branches = 0;
  uint64_t Solutions = 0;
};

/// Builds every named trace through compileProgram -> runProgram ->
/// computeBaselines (the last skipped when \p MPLs is empty). Spans go to
/// \p T when non-null.
std::vector<BenchmarkData> prepareTraces(const std::vector<std::string> &Names,
                                         const std::vector<uint64_t> &MPLs,
                                         double Scale, uint64_t Seed,
                                         SetupCost &Cost, Tracer *T,
                                         uint64_t Parent);

/// Records the per-layer set-up metrics of \p Cost.
void reportSetupLayers(Report &R, const SetupCost &Cost);

/// The workloads.
int runSweepPaper(const RunOptions &Opts);
int runReproFigs(const RunOptions &Opts);
int runServeOpen(const RunOptions &Opts);

} // namespace bench
} // namespace opd

#endif // OPD_PERFBENCH_BENCH_H
