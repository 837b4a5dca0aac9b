//===- perfbench/src/Main.cpp - Repository benchmark entry point ---------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// opd_perfbench --workload <sweep-paper|repro-figs|serve-open> --seed <n>
//               --seconds <s> --trace <0|1> [--spans-out <path>]
//               [--latency-limit-ms <ms>] [--commit <id>]
//               [--corrupt <score|transition>]
//
// Runs one workload, checks its outputs, and prints every metric with its
// unit; the last stdout line is one JSON result object. --trace 1 runs
// the traced variant, which reports per-layer numbers and writes spans.
// --corrupt damages one output before the checks (the self-test uses it
// to prove the checks catch a wrong score and a wrong transition).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Parallel.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace opd;
using namespace opd::bench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "opd_perfbench: %s\nusage: opd_perfbench --workload "
               "<sweep-paper|repro-figs|serve-open> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <path>] [--latency-limit-ms <ms>] "
               "[--commit <id>] [--corrupt <score|transition>]\n",
               Why);
  std::exit(2);
}

bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End != S && *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opts;
  std::string Commit = "unknown";
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; I += 2) {
    if (I + 1 >= Argc)
      usage("missing value");
    std::string Flag = Argv[I];
    const char *Value = Argv[I + 1];
    double Num = 0.0;
    if (Flag == "--workload") {
      Opts.Workload = Value;
    } else if (Flag == "--seed") {
      char *End = nullptr;
      Opts.Seed = std::strtoull(Value, &End, 10);
      if (End == Value || *End != '\0')
        usage("--seed takes a whole number");
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parseNumber(Value, Num) || Num <= 0 || Num > 600)
        usage("--seconds takes a number in (0, 600]");
      Opts.Seconds = Num;
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      if (std::strcmp(Value, "0") != 0 && std::strcmp(Value, "1") != 0)
        usage("--trace takes 0 or 1");
      Opts.Trace = Value[0] == '1';
      HaveTrace = true;
    } else if (Flag == "--spans-out") {
      Opts.SpansOut = Value;
    } else if (Flag == "--latency-limit-ms") {
      if (!parseNumber(Value, Num) || Num <= 0)
        usage("--latency-limit-ms takes a positive number");
      Opts.LatencyLimitMs = Num;
    } else if (Flag == "--commit") {
      Commit = Value;
    } else if (Flag == "--corrupt") {
      if (std::strcmp(Value, "score") == 0)
        Opts.Corrupt = Corruption::Score;
      else if (std::strcmp(Value, "transition") == 0)
        Opts.Corrupt = Corruption::Transition;
      else
        usage("--corrupt takes score or transition");
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || Opts.Workload.empty())
    usage("--workload, --seed, --seconds and --trace are required");

  std::printf("context seed = %llu\n", (unsigned long long)Opts.Seed);
  std::printf("context nproc = %u\n", hardwareParallelism());
  std::printf("context build_type = %s\n", OPD_PERFBENCH_BUILD_TYPE);
  std::printf("context commit = %s\n", Commit.c_str());
  std::printf("context trace = %d\n", Opts.Trace ? 1 : 0);

  if (Opts.Workload == "sweep-paper")
    return runSweepPaper(Opts);
  if (Opts.Workload == "repro-figs")
    return runReproFigs(Opts);
  if (Opts.Workload == "serve-open")
    return runServeOpen(Opts);
  usage(("unknown workload " + Opts.Workload).c_str());
}
