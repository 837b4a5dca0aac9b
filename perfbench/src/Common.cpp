//===- perfbench/src/Common.cpp - Report, spans and trace set-up ----------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "baseline/BaselineSolution.h"
#include "lang/Sema.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>

using namespace opd;
using namespace opd::bench;

double opd::bench::processCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

double opd::bench::threadCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

double opd::bench::peakRssMB() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  double KB = 0.0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      KB = std::strtod(Line + 6, nullptr);
  std::fclose(F);
  return KB / 1024.0;
}

double opd::bench::percentileOf(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  if (P <= 0.0)
    return *std::min_element(V.begin(), V.end());
  if (P >= 100.0)
    return *std::max_element(V.begin(), V.end());
  const double Pos = (P / 100.0) * double(V.size() - 1);
  const size_t K = size_t(std::floor(Pos));
  std::nth_element(V.begin(), V.begin() + ptrdiff_t(K), V.end());
  return V[K];
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::set(const std::string &Name, double Value,
                 const std::string &Unit, size_t Samples) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M = {Name, Value, Unit, Samples};
      return;
    }
  Metrics.push_back({Name, Value, Unit, Samples});
}

void Report::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failed <= 20)
    std::printf("check failed: %s\n", What.c_str());
}

void Report::tally(uint64_t Total, uint64_t Bad, const std::string &What) {
  Attempted += Total;
  Failed += Bad;
  if (Bad)
    std::printf("check failed: %s (%llu of %llu)\n", What.c_str(),
                (unsigned long long)Bad, (unsigned long long)Total);
}

void Report::note(const std::string &Key, const std::string &Value) {
  Notes.emplace_back(Key, Value);
}

static std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

int Report::finish() const {
  for (const auto &[Key, Value] : Notes)
    std::printf("context %s = %s\n", Key.c_str(), Value.c_str());
  double ErrorRate = Attempted ? double(Failed) / double(Attempted) : 1.0;
  std::printf("context error_rate = %.6g (%llu failed / %llu attempted)\n",
              ErrorRate, (unsigned long long)Failed,
              (unsigned long long)Attempted);
  for (const Metric &M : Metrics) {
    if (M.Samples)
      std::printf("metric %-32s %.6g %s (n=%zu)\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str(), M.Samples);
    else
      std::printf("metric %-32s %.6g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
  }
  bool Correct = Failed == 0 && Attempted > 0;
  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted);
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g",
                  std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0);
    Json += (I ? ", " : "") + jsonString(Metrics[I].Name) +
            ": {\"value\": " + Num +
            ", \"unit\": " + jsonString(Metrics[I].Unit) + "}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Tracer(unsigned Workers) : Origin(Clock::now()), Buffers(Workers) {
  for (std::vector<SpanRecord> &B : Buffers)
    B.reserve(4096);
}

size_t Tracer::open(unsigned Worker, const char *Name, uint64_t Parent,
                    uint64_t Group) {
  SpanRecord S;
  S.Id = NextId.fetch_add(1, std::memory_order_relaxed);
  S.Parent = Parent;
  S.Group = Group;
  S.Name = Name;
  S.Worker = Worker;
  S.Start = secondsBetween(Origin, Clock::now());
  Buffers[Worker].push_back(S);
  return Buffers[Worker].size() - 1;
}

void Tracer::close(unsigned Worker, size_t Handle) {
  Buffers[Worker][Handle].End = secondsBetween(Origin, Clock::now());
}

uint64_t Tracer::add(unsigned Worker, const char *Name, uint64_t Parent,
                     uint64_t Group, Clock::time_point Start,
                     Clock::time_point End) {
  SpanRecord S;
  S.Id = NextId.fetch_add(1, std::memory_order_relaxed);
  S.Parent = Parent;
  S.Group = Group;
  S.Name = Name;
  S.Worker = Worker;
  S.Start = secondsBetween(Origin, Start);
  S.End = secondsBetween(Origin, End);
  Buffers[Worker].push_back(S);
  return S.Id;
}

std::vector<SpanRecord> Tracer::all() const {
  std::vector<SpanRecord> All;
  for (const std::vector<SpanRecord> &B : Buffers)
    All.insert(All.end(), B.begin(), B.end());
  return All;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\": [\n", F);
  bool First = true;
  for (const SpanRecord &S : all()) {
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"group\": %llu}}",
                 First ? "" : ",\n", S.Name, S.Worker, S.Start * 1e6,
                 (S.End - S.Start) * 1e6, (unsigned long long)S.Id,
                 (unsigned long long)S.Parent, (unsigned long long)S.Group);
    First = false;
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

std::vector<std::pair<std::string, double>>
opd::bench::layerSelfSeconds(const std::vector<SpanRecord> &Spans) {
  std::map<uint64_t, std::vector<std::pair<double, double>>> Children;
  for (const SpanRecord &S : Spans)
    if (S.Parent)
      Children[S.Parent].push_back({S.Start, S.End});

  std::map<std::string, double> ByLayer;
  for (const SpanRecord &S : Spans) {
    double Covered = 0.0;
    auto It = Children.find(S.Id);
    if (It != Children.end()) {
      // Union of the children's intervals clipped to this span: children
      // on parallel workers overlap each other.
      std::vector<std::pair<double, double>> &Iv = It->second;
      std::sort(Iv.begin(), Iv.end());
      double CurB = 0.0, CurE = -1.0;
      for (auto [B, E] : Iv) {
        B = std::max(B, S.Start);
        E = std::min(E, S.End);
        if (E <= B)
          continue;
        if (B > CurE) {
          if (CurE > CurB)
            Covered += CurE - CurB;
          CurB = B;
          CurE = E;
        } else {
          CurE = std::max(CurE, E);
        }
      }
      if (CurE > CurB)
        Covered += CurE - CurB;
    }
    const char *Dot = std::strchr(S.Name, '.');
    std::string Layer =
        Dot ? std::string(S.Name, size_t(Dot - S.Name)) : S.Name;
    ByLayer[Layer] += std::max(0.0, (S.End - S.Start) - Covered);
  }
  return {ByLayer.begin(), ByLayer.end()};
}

double opd::bench::spanSeconds(const std::vector<SpanRecord> &Spans,
                               const char *Name) {
  double Seconds = 0.0;
  for (const SpanRecord &S : Spans)
    if (std::strcmp(S.Name, Name) == 0)
      Seconds += S.End - S.Start;
  return Seconds;
}

//===----------------------------------------------------------------------===//
// Trace preparation
//===----------------------------------------------------------------------===//

uint64_t opd::bench::interpreterSeed(uint64_t Seed, const Workload &W) {
  SplitMix64 Mix(Seed * 0x9e3779b97f4a7c15ULL ^ W.Seed);
  return Mix.next();
}

std::vector<BenchmarkData>
opd::bench::prepareTraces(const std::vector<std::string> &Names,
                          const std::vector<uint64_t> &MPLs, double Scale,
                          uint64_t Seed, SetupCost &Cost, Tracer *T,
                          uint64_t Parent) {
  std::vector<BenchmarkData> Result;
  Result.reserve(Names.size());
  for (size_t I = 0; I != Names.size(); ++I) {
    const Workload *W = findWorkload(Names[I]);
    if (!W) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   Names[I].c_str());
      std::exit(2);
    }
    Span Trace(T, "setup.trace", Parent, I + 1);

    Clock::time_point T0 = Clock::now();
    std::unique_ptr<Program> Prog;
    {
      Span S(T, "lang.compile", Trace.id(), I + 1);
      DiagnosticEngine Diags;
      Prog = compileProgram(W->Source(Scale), Diags);
      if (!Prog) {
        std::fprintf(stderr, "perfbench: workload '%s' failed to compile:\n%s",
                     W->Name.c_str(), Diags.renderAll().c_str());
        std::exit(2);
      }
    }
    Clock::time_point T1 = Clock::now();
    ExecutionResult Exec;
    {
      Span S(T, "vm.run", Trace.id(), I + 1);
      InterpreterOptions Options;
      Options.Seed = interpreterSeed(Seed, *W);
      Exec = runProgram(*Prog, Options);
    }
    Clock::time_point T2 = Clock::now();

    BenchmarkData Data;
    Data.Name = Names[I];
    Data.Stats = Exec.Stats;
    Data.MPLs = MPLs;
    if (!MPLs.empty()) {
      Span S(T, "baseline.compute", Trace.id(), I + 1);
      Data.Baselines =
          computeBaselines(Exec.CallLoop, Exec.Branches.size(), MPLs);
    }
    Clock::time_point T3 = Clock::now();

    Cost.CompileSeconds += secondsBetween(T0, T1);
    Cost.VmSeconds += secondsBetween(T1, T2);
    Cost.BaselineSeconds += secondsBetween(T2, T3);
    Cost.Branches += Exec.Branches.size();
    Cost.Solutions += Data.Baselines.size();

    Data.Trace = std::move(Exec.Branches);
    Data.CallLoop = std::move(Exec.CallLoop);
    Result.push_back(std::move(Data));
  }
  return Result;
}

void opd::bench::reportSetupLayers(Report &R, const SetupCost &Cost) {
  R.set("lang.compile_ms", Cost.CompileSeconds * 1e3, "ms");
  R.set("vm.run_ms", Cost.VmSeconds * 1e3, "ms");
  R.set("vm.branches", double(Cost.Branches), "count");
  R.set("baseline.ms", Cost.BaselineSeconds * 1e3, "ms");
  R.set("baseline.solutions", double(Cost.Solutions), "count");
}
