//===- perfbench/src/Serve.cpp - serve-open: open-loop serving -----------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// An in-process PhaseServer on loopback, driven by one generator thread
// over at most nproc connections. Each connection runs sessions back to
// back; each session streams one of the eight traces under one of eight
// seeded configs (both models x both TW policies x skip 1 and 100). The
// generator sends fixed-size Elements frames on an open-loop schedule:
// frame k of a step is due when the step's offered rate has covered the
// elements before it, whether or not the server has kept up, and every
// frame is timed from its due time to the Progress ack that covers its
// last element, so a stall is charged to every frame it delays.
//
// Every session is a full cross (trace x config) cell in a seeded order,
// so each step offers the same mix of cheap (skip 100, I/O bound) and
// expensive (skip 1 weighted, detector bound) elements.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/FastDetector.h"
#include "core/SweepSpec.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Parallel.h"
#include "support/Random.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace opd;
using namespace opd::bench;

namespace {

/// Trace scale of the streamed traces: a full 8 x 8 cross is then ~13M
/// elements, so one cross fits a nominal step of a few seconds.
constexpr double ServeScale = 0.25;
/// Elements per Elements frame (64 KiB): large enough that per-frame
/// wake-ups do not dominate the server's CPU per element.
constexpr size_t FrameElems = 16384;
/// Offered-rate ladder in M elements/s, and the nominal rate on it. On
/// the 4-core host the benchmark was built on, this mix's capacity moved
/// between about 25 and 60 M elements/s with host load (and with which
/// sessions share a shard), and a rung at 28 missed both of its tries in
/// slow periods. So no rung sits inside that range: the ladder doubles up
/// to the nominal rate, adds 1.5 times it, and then jumps to 112;
/// max_rate_meps moves only when capacity leaves the range. A missed rung
/// is tried once more before the climb stops, so one host stall does not
/// set the figure.
constexpr double NominalRate = 14;
constexpr double LadderRates[] = {3.5, 7, 14, 21, 112};
/// A ladder step offers about this many seconds of elements.
constexpr double RungSeconds = 1.5;
/// Share of the run's seconds spent at the nominal rate.
constexpr double NominalShare = 0.4;
/// Median generator lateness beyond which a step measured the generator,
/// not the server. The median, because host scheduling stalls alone put
/// the p99 of an idle thread's timer wake-ups at several ms.
constexpr double GeneratorLateLimitUs = 1000.0;
/// A step whose sessions have not all finished by then has failed them.
constexpr double StepTimeoutSeconds = 60.0;

/// One session: a trace under a config.
struct Cell {
  size_t Trace;
  size_t Config;
};

/// The eight configs: both models x both TW policies x skip 1 and 100,
/// CW = TW = 1000, cycling through the reduced analyzer set. The set is
/// fixed and the seed picks which config and trace each session gets:
/// the analyzer sets how far an adaptive TW grows, and with it a
/// session's memory and cost, so a seeded analyzer choice would move
/// peak RSS between seeds by half.
std::vector<DetectorConfig> serveConfigs() {
  std::vector<AnalyzerSpec> Analyzers = reducedAnalyzers();
  std::vector<DetectorConfig> Configs;
  for (ModelKind M : {ModelKind::UnweightedSet, ModelKind::WeightedSet})
    for (TWPolicyKind P : {TWPolicyKind::Constant, TWPolicyKind::Adaptive})
      for (uint32_t Skip : {1u, 100u}) {
        DetectorConfig C;
        C.Model = M;
        C.Window.TWPolicy = P;
        C.Window.SkipFactor = Skip;
        C.Window.CWSize = 1000;
        C.Window.TWSize = 1000;
        const AnalyzerSpec &A = Analyzers[Configs.size() % Analyzers.size()];
        C.TheAnalyzer = A.Kind;
        C.AnalyzerParam = A.Param;
        Configs.push_back(C);
      }
  return Configs;
}

/// The infinite seeded session sequence: consecutive full crosses, each
/// in a fresh seeded order.
class SessionPlan {
public:
  SessionPlan(uint64_t Seed, size_t Traces, size_t Configs)
      : Rng(Seed ^ 0x5e55105eULL), Traces(Traces), Configs(Configs) {}
  size_t cellsPerCross() const { return Traces * Configs; }
  std::vector<Cell> take(size_t N) {
    std::vector<Cell> Out;
    while (Out.size() < N) {
      if (Next == Cross.size())
        shuffle();
      Out.push_back(Cross[Next++]);
    }
    return Out;
  }

private:
  void shuffle() {
    Cross.clear();
    for (size_t T = 0; T != Traces; ++T)
      for (size_t C = 0; C != Configs; ++C)
        Cross.push_back({T, C});
    for (size_t I = Cross.size(); I > 1; --I)
      std::swap(Cross[I - 1], Cross[Rng.nextBelow(I)]);
    Next = 0;
  }
  Xoshiro256 Rng;
  size_t Traces, Configs;
  std::vector<Cell> Cross;
  size_t Next = 0;
};

/// State-run-exact comparison: the serving equivalence contract.
bool sameRun(const DetectorRun &A, const DetectorRun &B) {
  const std::vector<StateRun> &RA = A.States.runs();
  const std::vector<StateRun> &RB = B.States.runs();
  if (A.States.size() != B.States.size() || RA.size() != RB.size())
    return false;
  for (size_t I = 0; I != RA.size(); ++I)
    if (RA[I].Begin != RB[I].Begin || RA[I].Length != RB[I].Length ||
        RA[I].State != RB[I].State)
      return false;
  return A.DetectedPhases == B.DetectedPhases &&
         A.AnchoredPhases == B.AnchoredPhases;
}

/// What one step measured.
struct StepResult {
  double DueSeconds = 0.0; ///< Length of the schedule.
  double Wall = 0.0;       ///< First due frame to last Finished.
  double Cpu = 0.0;        ///< Process CPU over the step.
  double GenCpu = 0.0;     ///< Generator-thread CPU over the step; the
                           ///< rest of Cpu is the server's.
  uint64_t Elements = 0;   ///< Elements offered.
  uint64_t Acked = 0;      ///< Elements acknowledged.
  std::vector<double> DecideMs, AckFromSendMs, LateUs, HelloAckUs, FinishMs;
  double BacklogMax = 0.0;
  double BacklogGrowth = 0.0;
  size_t Sessions = 0;
  size_t Failed = 0;
  ServerStats Before, After;
  /// Completed sessions' streams, for verification.
  std::vector<std::pair<Cell, StreamedRun>> Streams;
};

/// The open-loop generator: one thread, one poll loop.
class Generator {
public:
  Generator(uint16_t Port, const std::vector<BenchmarkData> &Traces,
            const std::vector<DetectorConfig> &Configs, size_t Slots,
            Tracer *T)
      : Port(Port), Traces(Traces), Configs(Configs), Slots(Slots), T(T) {}

  StepResult runStep(double RateMeps, const std::vector<Cell> &Cells,
                     const PhaseServer &Server);

private:
  struct Flight {
    uint64_t Target;       ///< Session ingest total that acks this frame.
    uint64_t EndByte;      ///< Stream offset of the frame's last byte.
    Clock::time_point Due; ///< When the schedule wanted it sent.
    Clock::time_point Sent{};
  };
  struct Slot {
    enum class State : uint8_t { Idle, Connecting, Streaming, Finishing };
    State St = State::Idle;
    int Fd = -1;
    Cell C{};
    uint64_t SessionNo = 0;
    size_t NextElem = 0;
    std::vector<uint8_t> Out;
    size_t OutPos = 0;
    /// Stream offsets: bytes written so far, and the end of the Finish
    /// frame once queued.
    uint64_t BytesWritten = 0;
    uint64_t FinishByte = 0;
    bool FinishQueued = false;
    std::deque<Flight> Flights;
    uint64_t Sent = 0, Acked = 0;
    FrameReader Reader;
    StreamedRun Run;
    Clock::time_point Start{}, FinishSent{}, FirstFrame{};
  };

  void startSession(Slot &S, const Cell &C, StepResult &R);
  void endSession(Slot &S, bool Ok, StepResult &R);
  void flush(Slot &S, Clock::time_point Now, StepResult &R);
  void readEvents(Slot &S, Clock::time_point Now, StepResult &R);
  void queueFrame(Slot &S, Clock::time_point Due, Clock::time_point Now);

  uint16_t Port;
  const std::vector<BenchmarkData> &Traces;
  const std::vector<DetectorConfig> &Configs;
  size_t Slots;
  Tracer *T;
  uint64_t Sessions = 0;
  uint64_t StepSpan = 0;
};

void Generator::startSession(Slot &S, const Cell &C, StepResult &R) {
  S = Slot();
  S.C = C;
  R.Sessions += 1;
  S.SessionNo = ++Sessions;
  S.Start = Clock::now();
  S.Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (S.Fd < 0) {
    endSession(S, false, R);
    return;
  }
  int One = 1;
  ::setsockopt(S.Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(S.Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
          0 &&
      errno != EINPROGRESS) {
    endSession(S, false, R);
    return;
  }
  HelloMsg Hello;
  Hello.Flags = uint16_t(HelloWantProgress | HelloWantAnchors);
  Hello.NumSites = Traces[C.Trace].Trace.numSites();
  Hello.Config = Configs[C.Config];
  appendHello(S.Out, Hello);
  S.St = Slot::State::Connecting;
}

void Generator::endSession(Slot &S, bool Ok, StepResult &R) {
  Clock::time_point Now = Clock::now();
  if (S.Fd != -1)
    ::close(S.Fd);
  S.Fd = -1;
  if (Ok) {
    R.FinishMs.push_back(secondsBetween(S.FinishSent, Now) * 1e3);
    R.Streams.emplace_back(S.C, std::move(S.Run));
  } else {
    R.Failed += 1;
  }
  if (T) {
    uint64_t Id = T->add(0, "serve.session", StepSpan, S.SessionNo, S.Start,
                         Now);
    if (S.FirstFrame != Clock::time_point{})
      T->add(0, "serve.stream", Id, S.SessionNo, S.FirstFrame,
             S.FinishSent == Clock::time_point{} ? Now : S.FinishSent);
    if (Ok)
      T->add(0, "serve.finish", Id, S.SessionNo, S.FinishSent, Now);
  }
  S.St = Slot::State::Idle;
}

void Generator::queueFrame(Slot &S, Clock::time_point Due,
                           Clock::time_point Now) {
  const BranchTrace &Tr = Traces[S.C.Trace].Trace;
  size_t N = std::min(FrameElems, size_t(Tr.size()) - S.NextElem);
  appendElements(S.Out, Tr.elements().data() + S.NextElem, N);
  S.NextElem += N;
  S.Sent += N;
  auto QueuedEnd = [&] { return S.BytesWritten + (S.Out.size() - S.OutPos); };
  S.Flights.push_back({S.NextElem, QueuedEnd(), Due, {}});
  if (S.FirstFrame == Clock::time_point{})
    S.FirstFrame = Now;
  if (S.NextElem == Tr.size()) {
    appendFinish(S.Out);
    S.FinishByte = QueuedEnd();
    S.FinishQueued = true;
  }
}

void Generator::flush(Slot &S, Clock::time_point Now, StepResult &R) {
  while (S.OutPos < S.Out.size()) {
    ssize_t W = ::send(S.Fd, S.Out.data() + S.OutPos, S.Out.size() - S.OutPos,
                       MSG_NOSIGNAL);
    if (W > 0) {
      S.OutPos += size_t(W);
      S.BytesWritten += uint64_t(W);
      continue;
    }
    if (W < 0 && errno == EINTR)
      continue;
    if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    endSession(S, false, R);
    return;
  }
  if (S.OutPos == S.Out.size()) {
    S.Out.clear();
    S.OutPos = 0;
  }
  for (Flight &F : S.Flights)
    if (F.Sent == Clock::time_point{} && F.EndByte <= S.BytesWritten)
      F.Sent = Now;
  if (S.FinishQueued && S.FinishSent == Clock::time_point{} &&
      S.FinishByte <= S.BytesWritten) {
    S.FinishSent = Now;
    S.St = Slot::State::Finishing;
  }
}

void Generator::readEvents(Slot &S, Clock::time_point Now, StepResult &R) {
  uint8_t Buf[16 << 10];
  while (S.Fd != -1) {
    ssize_t N = ::recv(S.Fd, Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;
    if (N <= 0) {
      endSession(S, false, R);
      return;
    }
    S.Reader.feed(Buf, size_t(N));
    Frame F;
    while (S.Fd != -1) {
      FrameReader::Status St = S.Reader.next(F);
      if (St == FrameReader::Status::NeedMore)
        break;
      if (St == FrameReader::Status::Corrupt) {
        endSession(S, false, R);
        return;
      }
      switch (F.Kind) {
      case MsgKind::HelloAck:
        if (!parseHelloAck(F, S.Run.Ack)) {
          endSession(S, false, R);
          return;
        }
        R.HelloAckUs.push_back(secondsBetween(S.Start, Now) * 1e6);
        if (T)
          T->add(0, "serve.hello", StepSpan, S.SessionNo, S.Start, Now);
        break;
      case MsgKind::Transition: {
        TransitionMsg Tm;
        if (!parseTransition(F, Tm)) {
          endSession(S, false, R);
          return;
        }
        S.Run.Transitions.push_back(Tm);
        break;
      }
      case MsgKind::Progress: {
        ProgressMsg P;
        if (!parseProgress(F, P)) {
          endSession(S, false, R);
          return;
        }
        S.Run.LastProgress = P.Ingested;
        R.Acked += P.Ingested - S.Acked;
        S.Acked = P.Ingested;
        while (!S.Flights.empty() && S.Flights.front().Target <= P.Ingested) {
          const Flight &Fl = S.Flights.front();
          R.DecideMs.push_back(secondsBetween(Fl.Due, Now) * 1e3);
          if (Fl.Sent != Clock::time_point{})
            R.AckFromSendMs.push_back(secondsBetween(Fl.Sent, Now) * 1e3);
          S.Flights.pop_front();
        }
        break;
      }
      case MsgKind::Finished:
        if (!parseFinished(F, S.Run.Summary)) {
          endSession(S, false, R);
          return;
        }
        S.Run.GotFinished = true;
        endSession(S, true, R);
        return;
      default:
        // Error frames and anything unexpected end the session.
        endSession(S, false, R);
        return;
      }
    }
  }
}

StepResult Generator::runStep(double RateMeps, const std::vector<Cell> &Cells,
                              const PhaseServer &Server) {
  StepResult R;
  for (const Cell &C : Cells)
    R.Elements += Traces[C.Trace].Trace.size();
  R.DueSeconds = double(R.Elements) / (RateMeps * 1e6);
  R.Before = Server.stats();
  Span Step(T, "loadgen.step");
  StepSpan = Step.id();

  std::vector<Slot> Pool(Slots);
  size_t NextCell = 0;
  size_t RoundRobin = 0;
  uint64_t Assigned = 0;
  bool Held = false;
  Clock::time_point LastHeld{};
  std::vector<std::pair<double, double>> Backlog; // (t, elements)
  std::vector<pollfd> Pfds;

  double Cpu0 = processCpuSeconds();
  double Gen0 = threadCpuSeconds();
  Clock::time_point T0 = Clock::now();
  auto DueOf = [&](uint64_t Elems) {
    return T0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(double(Elems) /
                                                  (RateMeps * 1e6)));
  };
  Clock::time_point LastDone = T0;

  while (true) {
    Clock::time_point Now = Clock::now();
    bool Active = false;
    for (Slot &S : Pool) {
      if (S.St == Slot::State::Idle && NextCell < Cells.size())
        startSession(S, Cells[NextCell++], R);
      Active = Active || S.St != Slot::State::Idle;
    }
    if (!Active && NextCell == Cells.size())
      break;
    if (secondsBetween(T0, Now) > StepTimeoutSeconds) {
      for (Slot &S : Pool)
        if (S.St != Slot::State::Idle)
          endSession(S, false, R);
      R.Failed += Cells.size() - NextCell;
      break;
    }

    // Assign every due frame to a ready slot, round robin. A due frame
    // with no ready slot waits on the server: its lateness is not the
    // generator's.
    while (DueOf(Assigned) <= Now) {
      Slot *Ready = nullptr;
      for (size_t K = 0; K != Pool.size() && !Ready; ++K) {
        Slot &S = Pool[(RoundRobin + K) % Pool.size()];
        if (S.St == Slot::State::Streaming && S.OutPos == S.Out.size() &&
            !S.FinishQueued) {
          Ready = &S;
          RoundRobin = (RoundRobin + K + 1) % Pool.size();
        }
      }
      Clock::time_point Due = DueOf(Assigned);
      Held = !Ready;
      if (Held) {
        LastHeld = Now;
        break;
      }
      if (Due > LastHeld)
        R.LateUs.push_back(secondsBetween(Due, Now) * 1e6);
      size_t Before = Ready->NextElem;
      queueFrame(*Ready, Due, Now);
      Assigned += Ready->NextElem - Before;
      flush(*Ready, Now, R);
    }

    double Outstanding = 0.0;
    for (const Slot &S : Pool)
      Outstanding += double(S.Sent - S.Acked);
    Backlog.push_back({secondsBetween(T0, Now), Outstanding});
    R.BacklogMax = std::max(R.BacklogMax, Outstanding);

    Pfds.clear();
    for (Slot &S : Pool) {
      if (S.St == Slot::State::Idle)
        continue;
      short Ev = POLLIN;
      if (S.St == Slot::State::Connecting || S.OutPos < S.Out.size())
        Ev |= POLLOUT;
      Pfds.push_back({S.Fd, Ev, 0});
    }
    // Sleep until the next frame is due; a held frame waits for a socket
    // event instead (connect done, output drained, session finished).
    double WaitS = Held ? 0.002
                        : std::clamp(secondsBetween(Now, DueOf(Assigned)),
                                     0.0, 0.002);
    timespec Timeout{0, long(WaitS * 1e9)};
    int NReady = ::ppoll(Pfds.data(), nfds_t(Pfds.size()), &Timeout, nullptr);
    if (NReady <= 0)
      continue;
    Now = Clock::now();
    size_t P = 0;
    for (Slot &S : Pool) {
      if (S.St == Slot::State::Idle)
        continue;
      short Re = Pfds[P++].revents;
      if (!Re)
        continue;
      if (S.St == Slot::State::Connecting && (Re & (POLLOUT | POLLERR))) {
        int Err = 0;
        socklen_t Len = sizeof(Err);
        ::getsockopt(S.Fd, SOL_SOCKET, SO_ERROR, &Err, &Len);
        if (Err != 0) {
          endSession(S, false, R);
          continue;
        }
        S.St = Slot::State::Streaming;
      }
      if (Re & POLLOUT)
        flush(S, Now, R);
      if (S.St != Slot::State::Idle && (Re & (POLLIN | POLLERR | POLLHUP)))
        readEvents(S, Now, R);
      if (S.St == Slot::State::Idle)
        LastDone = Now;
    }
  }

  R.Wall = secondsBetween(T0, LastDone);
  R.Cpu = processCpuSeconds() - Cpu0;
  R.GenCpu = threadCpuSeconds() - Gen0;
  R.After = Server.stats();

  // Backlog growth: mean outstanding elements over the last quarter of
  // the schedule minus that over its first quarter.
  double Q = R.DueSeconds / 4.0, Early = 0.0, Late = 0.0;
  size_t NEarly = 0, NLate = 0;
  for (auto [At, Elems] : Backlog) {
    if (At < Q) {
      Early += Elems;
      ++NEarly;
    } else if (At >= 3.0 * Q && At < 4.0 * Q) {
      Late += Elems;
      ++NLate;
    }
  }
  R.BacklogGrowth = (NLate ? Late / double(NLate) : 0.0) -
                    (NEarly ? Early / double(NEarly) : 0.0);
  return R;
}

/// Offline references per (trace, config) cell, built on demand.
class OfflineRefs {
public:
  OfflineRefs(const std::vector<BenchmarkData> &Traces,
              const std::vector<DetectorConfig> &Configs, Tracer *T)
      : Traces(Traces), Configs(Configs), T(T),
        Runs(Traces.size() * Configs.size()) {}

  const DetectorRun &get(const Cell &C) {
    std::unique_ptr<DetectorRun> &Slot = Runs[C.Trace * Configs.size() +
                                              C.Config];
    if (!Slot) {
      Span S(T, "core.offline", 0, C.Trace * Configs.size() + C.Config + 1);
      Clock::time_point T0 = Clock::now();
      std::unique_ptr<FastDetectorBase> Det = makeFastDetector(
          Configs[C.Config], Traces[C.Trace].Trace.numSites());
      Slot = std::make_unique<DetectorRun>();
      runDetector(*Det, Traces[C.Trace].Trace, *Slot);
      Seconds += secondsBetween(T0, Clock::now());
      Elements += double(Traces[C.Trace].Trace.size());
    }
    return *Slot;
  }
  double meps() const { return Seconds > 0 ? Elements / Seconds / 1e6 : 0; }

private:
  const std::vector<BenchmarkData> &Traces;
  const std::vector<DetectorConfig> &Configs;
  Tracer *T;
  std::vector<std::unique_ptr<DetectorRun>> Runs;
  double Seconds = 0.0;
  double Elements = 0.0;
};

/// Checks every session of \p R: completed sessions must equal offline
/// runDetector, failed ones count as failed.
void verifyStep(StepResult &R, OfflineRefs &Refs, Corruption Corrupt,
                Report &Rep, const char *Step) {
  if (Corrupt == Corruption::Transition) {
    for (auto &[C, Run] : R.Streams)
      if (!Run.Transitions.empty()) {
        TransitionMsg &Tm = Run.Transitions.front();
        Tm.NewState = Tm.NewState == PhaseState::InPhase
                          ? PhaseState::Transition
                          : PhaseState::InPhase;
        break;
      }
  }
  size_t Bad = R.Failed;
  for (const auto &[C, Run] : R.Streams)
    Bad += !sameRun(streamedToDetectorRun(Run), Refs.get(C));
  Rep.tally(R.Sessions, Bad,
            std::string(Step) + ": sessions failed or differing from offline "
                                "runDetector");
  R.Streams.clear();
}

/// The verdict on one ladder step.
const char *verdict(const StepResult &R, double LimitMs) {
  if (R.Failed)
    return "failed-sessions";
  if (percentileOf(R.LateUs, 50) > GeneratorLateLimitUs)
    return "generator-behind";
  if (percentileOf(R.DecideMs, 99) > LimitMs)
    return "over-latency-limit";
  if (R.BacklogGrowth > 0.05 * double(R.Elements))
    return "backlog-growing";
  return "ok";
}

} // namespace

int opd::bench::runServeOpen(const RunOptions &Opts) {
  Report Rep;
  Rep.note("workload", "serve-open");
  const unsigned Cores = std::max(1u, hardwareParallelism());
  ServerOptions SO;
  SO.Shards = std::max(1u, Cores > 2 ? Cores - 2 : 1u);
  const size_t Slots = Cores;
  Rep.note("shards", std::to_string(SO.Shards));
  Rep.note("connections", std::to_string(Slots));
  // The generator sleeps until each frame is due; the default 50 us
  // timer slack would add to every frame's lateness.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  std::vector<std::string> Names;
  for (const Workload &W : standardWorkloads())
    Names.push_back(W.Name);

  // Set-up: traces plus server start, several times over the run (see
  // SetupShare). The first server and its traces serve the measurement;
  // each later set-up must build the same traces, and its server is
  // stopped once started.
  std::unique_ptr<Tracer> T;
  if (Opts.Trace)
    T = std::make_unique<Tracer>(1);
  std::vector<BenchmarkData> Traces;
  std::vector<double> SetupSeconds;
  SetupCost Cost;
  std::unique_ptr<PhaseServer> Server;
  auto SetUp = [&]() -> bool {
    Cost = SetupCost();
    Span Setup(T.get(), "setup.all");
    Clock::time_point T0 = Clock::now();
    std::vector<BenchmarkData> Built = prepareTraces(
        Names, {}, ServeScale, Opts.Seed, Cost, T.get(), Setup.id());
    auto Started = std::make_unique<PhaseServer>(SO);
    std::string Error;
    {
      Span S(T.get(), "serve.start", Setup.id());
      if (!Started->start(Error)) {
        std::fprintf(stderr, "perfbench: server start failed: %s\n",
                     Error.c_str());
        return false;
      }
    }
    SetupSeconds.push_back(secondsBetween(T0, Clock::now()));
    if (!Server) {
      Server = std::move(Started);
      Traces = std::move(Built);
      return true;
    }
    Started->stop();
    bool Same = Built.size() == Traces.size();
    for (size_t I = 0; Same && I != Traces.size(); ++I)
      Same = Built[I].Trace.elements() == Traces[I].Trace.elements();
    Rep.check(Same, "repeated set-up built different traces");
    return true;
  };
  for (size_t I = 0; I != (Opts.Trace ? 1 : MinSetups); ++I)
    if (!SetUp())
      return 2;
  // More set-ups after a measured step, for SetupShare of its wall time.
  auto SetUpAfter = [&](const StepResult &Step) {
    Clock::time_point S0 = Clock::now();
    do
      if (!SetUp())
        return false;
    while (secondsBetween(S0, Clock::now()) < SetupShare * Step.Wall);
    return true;
  };

  std::vector<DetectorConfig> Configs = serveConfigs();
  SessionPlan Plan(Opts.Seed, Traces.size(), Configs.size());
  OfflineRefs Refs(Traces, Configs, T.get());
  uint64_t CrossElems = 0;
  for (const BenchmarkData &B : Traces)
    CrossElems += B.Trace.size() * Configs.size();
  Rep.note("cross_elements", std::to_string(CrossElems));

  // Warm-up: fill the detector pool and the socket paths.
  Generator Plain(Server->port(), Traces, Configs, Slots, nullptr);
  StepResult Warm = Plain.runStep(NominalRate, Plan.take(2 * Slots), *Server);
  verifyStep(Warm, Refs, Corruption::None, Rep, "warm-up");

  const size_t NominalCells = Plan.cellsPerCross();
  if (Opts.Trace) {
    // Untraced, then traced, nominal step: the traced one gives the
    // per-layer numbers, the pair the tracing overhead.
    StepResult U = Plain.runStep(NominalRate, Plan.take(NominalCells), *Server);
    verifyStep(U, Refs, Opts.Corrupt, Rep, "nominal (untraced)");
    Generator Traced(Server->port(), Traces, Configs, Slots, T.get());
    StepResult N =
        Traced.runStep(NominalRate, Plan.take(NominalCells), *Server);
    verifyStep(N, Refs, Corruption::None, Rep, "nominal (traced)");

    Rep.set("peak_rss_mb", peakRssMB(), "MB");
    reportSetupLayers(Rep, Cost);
    Rep.set("decide_p50_ms", percentileOf(U.DecideMs, 50), "ms",
            U.DecideMs.size());
    Rep.set("decide_p99_ms", percentileOf(U.DecideMs, 99), "ms",
            U.DecideMs.size());
    Rep.set("core.offline_mps", Refs.meps(), "Melem/s");
    Rep.set("serve.hello_ack_p50_us", percentileOf(N.HelloAckUs, 50), "us",
            N.HelloAckUs.size());
    Rep.set("serve.finish_p99_ms", percentileOf(N.FinishMs, 99), "ms",
            N.FinishMs.size());
    Rep.set("serve.ack_from_send_p99_ms", percentileOf(N.AckFromSendMs, 99),
            "ms", N.AckFromSendMs.size());
    Rep.set("serve.backlog_max_elems", N.BacklogMax, "count");
    const ServerStats &A = N.After, &B = N.Before;
    Rep.set("serve.elements", double(A.Elements - B.Elements), "count");
    Rep.set("serve.transitions", double(A.Transitions - B.Transitions),
            "count");
    Rep.set("serve.bytes_in", double(A.BytesIn - B.BytesIn), "bytes");
    Rep.set("serve.bytes_out", double(A.BytesOut - B.BytesOut), "bytes");
    Rep.set("serve.protocol_errors",
            double(A.ProtocolErrors - B.ProtocolErrors), "count");
    Rep.set("serve.evicted", double(A.Evicted - B.Evicted), "count");
    double Hits = double(A.Cache.Hits - B.Cache.Hits);
    double Misses = double(A.Cache.Misses - B.Cache.Misses);
    Rep.set("serve.cache_hit_ratio",
            Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0, "ratio");
    Rep.set("loadgen.late_p99_us", percentileOf(N.LateUs, 99), "us",
            N.LateUs.size());
    Rep.set("loadgen.cpu_s", N.GenCpu, "s");
    Rep.set("trace.overhead_pct", (N.Wall / U.Wall - 1.0) * 100.0, "%");
    for (const auto &[Layer, Seconds] : layerSelfSeconds(T->all()))
      Rep.set(Layer + ".self_s", Seconds, "s");
    if (!Opts.SpansOut.empty() && !T->write(Opts.SpansOut))
      Rep.check(false, "cannot write spans to " + Opts.SpansOut);
    Server->stop();
    return Rep.finish();
  }

  // Nominal rate: several steps of one full cross each; each timing is
  // the median over the steps, so one step hit by a host stall does not
  // set the run's figure.
  const double CrossSeconds = double(CrossElems) / (NominalRate * 1e6);
  const size_t NominalSteps = std::max<size_t>(
      3, size_t(NominalShare * Opts.Seconds / CrossSeconds + 0.5));
  std::vector<double> P50s, P99s, Walls, Cpus, NsPerElem, Late;
  size_t Frames = 0;
  for (size_t I = 0; I != NominalSteps; ++I) {
    StepResult N =
        Plain.runStep(NominalRate, Plan.take(NominalCells), *Server);
    verifyStep(N, Refs, I == 0 ? Opts.Corrupt : Corruption::None, Rep,
               "nominal");
    P50s.push_back(percentileOf(N.DecideMs, 50));
    P99s.push_back(percentileOf(N.DecideMs, 99));
    Walls.push_back(N.Wall);
    Cpus.push_back(N.Cpu - N.GenCpu);
    double Decided = double(N.After.Elements - N.Before.Elements);
    NsPerElem.push_back((N.Cpu - N.GenCpu) / Decided * 1e9);
    Late.insert(Late.end(), N.LateUs.begin(), N.LateUs.end());
    Frames += N.DecideMs.size();
    if (!SetUpAfter(N))
      return 2;
  }

  // Peak memory of set-up and nominal serving; the ladder's last step
  // overloads the server on purpose, and its backlog is not a user's
  // working set.
  const double PeakRss = peakRssMB();

  // The ladder: ascending rates until one misses the limit twice.
  double MaxRate = 0.0;
  for (double Rate : LadderRates) {
    double Elems = Rate * 1e6 * RungSeconds;
    size_t Cells = std::max<size_t>(
        Slots, size_t(Elems / (double(CrossElems) / double(NominalCells))));
    bool Met = false;
    for (int Try = 0; Try != 2 && !Met; ++Try) {
      StepResult L = Plain.runStep(Rate, Plan.take(Cells), *Server);
      const char *V = verdict(L, Opts.LatencyLimitMs);
      std::printf("ladder %6.1f Melem/s: achieved %.2f, decide p50 %.3f ms "
                  "p99 %.3f ms (n=%zu), backlog growth %.0f, late p99 %.0f "
                  "us, %s\n",
                  Rate, double(L.Acked) / L.DueSeconds / 1e6,
                  percentileOf(L.DecideMs, 50), percentileOf(L.DecideMs, 99),
                  L.DecideMs.size(), L.BacklogGrowth,
                  percentileOf(L.LateUs, 99), V);
      verifyStep(L, Refs, Corruption::None, Rep, "ladder");
      Met = std::strcmp(V, "ok") == 0;
      if (Met)
        MaxRate = double(L.Acked) / L.Wall / 1e6;
      if (!SetUpAfter(L))
        return 2;
    }
    if (!Met)
      break;
  }
  Server->stop();

  Rep.set("setup_s", minOf(SetupSeconds), "s", SetupSeconds.size());
  Rep.note("nominal_steps", std::to_string(NominalSteps));
  Rep.set("run_s", medianOf(Walls), "s", Walls.size());
  Rep.set("cpu_s", medianOf(Cpus), "s", Cpus.size());
  Rep.set("decide_p50_ms", medianOf(P50s), "ms", Frames);
  Rep.set("decide_p99_ms", medianOf(P99s), "ms", Frames);
  Rep.set("max_rate_meps", MaxRate, "Melem/s");
  Rep.set("server_cpu_ns_per_elem", medianOf(NsPerElem), "ns",
          NsPerElem.size());
  Rep.set("peak_rss_mb", PeakRss, "MB");
  Rep.set("loadgen.late_p99_us", percentileOf(Late, 99), "us", Late.size());
  Rep.set("core.offline_mps", Refs.meps(), "Melem/s");
  return Rep.finish();
}
