//===- serve/Server.cpp - Multi-tenant phase-detection server --------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// Implementation notes (the design rationale lives in Server.h and
// docs/SERVING.md):
//
//  * The I/O thread is the only thread that touches sockets, the
//    connection registry, and each connection's write buffer. Workers
//    touch only the ServeSession under the per-connection mutex and
//    signal the I/O thread through an atomic flag plus a self-pipe.
//  * Connections are shared_ptr so a worker's queue entry keeps the
//    object alive across a racing close; a closed connection's session
//    is reset under the mutex, and every session access null-checks.
//  * The Queued flag is cleared *before* a worker pumps, so an enqueue
//    racing with the pump re-queues the connection instead of losing
//    the wakeup; the per-shard single worker keeps pumping serial.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "support/Parallel.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace opd;

namespace {

/// Elements one worker pump decides before rotating to the next queued
/// session, so one heavy session cannot starve its shard peers.
constexpr size_t PumpChunk = 64u << 10;

/// Socket read chunk.
constexpr size_t ReadChunk = 64u << 10;

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

} // namespace

struct PhaseServer::Impl {
  explicit Impl(const ServerOptions &O) : Opts(O) {}

  ServerOptions Opts;

  std::atomic<bool> Running{false};
  std::atomic<bool> StopRequested{false};
  /// Serializes start()/stop() against each other.
  std::mutex LifecycleM;

  int ListenFd = -1;
  int WakeRd = -1;
  int WakeWr = -1;
  uint16_t BoundPort = 0;
  unsigned NumShards = 1;

  /// One client connection: the socket-facing shell around a
  /// ServeSession.
  struct Conn {
    Conn(uint64_t Id, const ServeLimits &Limits)
        : Id(Id), Sess(std::make_unique<ServeSession>(Id, Limits)) {}

    const uint64_t Id;
    int Fd = -1;
    unsigned Shard = 0;
    /// True while an entry for this connection sits in its shard queue.
    std::atomic<bool> Queued{false};
    /// Worker-to-I/O signal: a pump ran; pull output / recheck state.
    std::atomic<bool> NeedFlush{false};

    Mutex M;
    /// Null once the connection closed (stats already harvested).
    std::unique_ptr<ServeSession> Sess OPD_GUARDED_BY(M);

    // I/O-thread-confined state.
    bool ReadPaused = false; ///< Backpressure: stop POLLIN until relieved.
    bool ReadEof = false;    ///< Client half-closed its send direction.
    bool Closing = false;    ///< Terminal: close once WriteBuf drains.
    Clock::time_point LastActivity;
    std::vector<uint8_t> WriteBuf;
    size_t WritePos = 0;
  };

  /// One worker shard: a queue of connections with pump work.
  struct Shard {
    std::mutex QM;
    std::condition_variable QCv;
    std::deque<std::shared_ptr<Conn>> Queue;
    bool Stop = false;
    std::thread Worker;
  };

  std::vector<std::unique_ptr<Shard>> Shards;
  std::thread IoThread;

  // I/O-thread-confined.
  std::vector<std::shared_ptr<Conn>> Conns;
  uint64_t NextSessionId = 1;

  // Lifetime counters (see ServerStats).
  std::atomic<uint64_t> NAccepted{0}, NCompleted{0}, NEvicted{0},
      NProtocolErrors{0}, NDrainClosed{0}, NElements{0}, NTransitions{0},
      NBytesIn{0}, NBytesOut{0}, NDetectors{0};

  bool start(std::string &Error);
  void stop();
  ServerStats stats() const;

  void ioLoop();
  void workerLoop(Shard &S);

  void wake();
  void enqueue(const std::shared_ptr<Conn> &C);
  void acceptNew(Clock::time_point Now);
  void handleRead(const std::shared_ptr<Conn> &C, Clock::time_point Now);
  void handleEof(const std::shared_ptr<Conn> &C);
  void pullOutput(const std::shared_ptr<Conn> &C);
  void tryWrite(Conn &C, Clock::time_point Now);
  void closeConn(Conn &C);
  void reapClosed();
  void idleSweep(Clock::time_point Now);
  void beginDrain(Clock::time_point Now);
  void closeFd(int &Fd);
};

void PhaseServer::Impl::closeFd(int &Fd) {
  if (Fd != -1) {
    ::close(Fd);
    Fd = -1;
  }
}

bool PhaseServer::Impl::start(std::string &Error) {
  std::lock_guard<std::mutex> L(LifecycleM);
  if (Running.load(std::memory_order_acquire)) {
    Error = "server already running";
    return false;
  }

  unsigned HW = hardwareParallelism();
  NumShards = Opts.Shards ? Opts.Shards : std::max(1u, HW > 1 ? HW - 1 : 1u);

  int P[2];
  if (::pipe2(P, O_NONBLOCK | O_CLOEXEC) != 0) {
    Error = std::string("pipe2: ") + std::strerror(errno);
    return false;
  }
  WakeRd = P[0];
  WakeWr = P[1];

  ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    closeFd(WakeRd);
    closeFd(WakeWr);
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Opts.Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
          0 ||
      ::listen(ListenFd, 1024) != 0) {
    Error = std::string("bind/listen: ") + std::strerror(errno);
    closeFd(ListenFd);
    closeFd(WakeRd);
    closeFd(WakeWr);
    return false;
  }
  socklen_t AddrLen = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
                    &AddrLen) != 0) {
    Error = std::string("getsockname: ") + std::strerror(errno);
    closeFd(ListenFd);
    closeFd(WakeRd);
    closeFd(WakeWr);
    return false;
  }
  BoundPort = ntohs(Addr.sin_port);

  StopRequested.store(false, std::memory_order_release);
  Shards.clear();
  for (unsigned I = 0; I != NumShards; ++I) {
    auto S = std::make_unique<Shard>();
    S->Worker = std::thread([this, Raw = S.get()] { workerLoop(*Raw); });
    Shards.push_back(std::move(S));
  }
  IoThread = std::thread([this] { ioLoop(); });
  Running.store(true, std::memory_order_release);
  return true;
}

void PhaseServer::Impl::stop() {
  std::lock_guard<std::mutex> L(LifecycleM);
  if (!Running.load(std::memory_order_acquire))
    return;

  StopRequested.store(true, std::memory_order_release);
  wake();
  IoThread.join();

  for (auto &S : Shards) {
    {
      std::lock_guard<std::mutex> QL(S->QM);
      S->Stop = true;
    }
    S->QCv.notify_all();
  }
  for (auto &S : Shards)
    S->Worker.join();
  Shards.clear();

  closeFd(ListenFd);
  closeFd(WakeRd);
  closeFd(WakeWr);
  Running.store(false, std::memory_order_release);
}

ServerStats PhaseServer::Impl::stats() const {
  ServerStats S;
  S.Accepted = NAccepted.load(std::memory_order_relaxed);
  S.Completed = NCompleted.load(std::memory_order_relaxed);
  S.Evicted = NEvicted.load(std::memory_order_relaxed);
  S.ProtocolErrors = NProtocolErrors.load(std::memory_order_relaxed);
  S.DrainClosed = NDrainClosed.load(std::memory_order_relaxed);
  S.Elements = NElements.load(std::memory_order_relaxed);
  S.Transitions = NTransitions.load(std::memory_order_relaxed);
  S.BytesIn = NBytesIn.load(std::memory_order_relaxed);
  S.BytesOut = NBytesOut.load(std::memory_order_relaxed);
  S.Cache.Misses = NDetectors.load(std::memory_order_relaxed);
  return S;
}

void PhaseServer::Impl::wake() {
  uint8_t B = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  (void)!::write(WakeWr, &B, 1);
}

void PhaseServer::Impl::enqueue(const std::shared_ptr<Conn> &C) {
  if (C->Queued.exchange(true, std::memory_order_acq_rel))
    return;
  Shard &S = *Shards[C->Shard];
  {
    std::lock_guard<std::mutex> L(S.QM);
    S.Queue.push_back(C);
  }
  S.QCv.notify_one();
}

void PhaseServer::Impl::workerLoop(Shard &S) {
  while (true) {
    std::shared_ptr<Conn> C;
    {
      std::unique_lock<std::mutex> L(S.QM);
      S.QCv.wait(L, [&] { return S.Stop || !S.Queue.empty(); });
      if (S.Queue.empty())
        return;
      C = std::move(S.Queue.front());
      S.Queue.pop_front();
    }
    // Clear Queued before pumping: a racing enqueue re-queues us instead
    // of losing its wakeup.
    C->Queued.store(false, std::memory_order_release);

    bool More = false;
    {
      LockGuard L(C->M);
      if (C->Sess)
        More = C->Sess->pump(PumpChunk);
    }
    // Always signal the I/O thread: even an output-free pump may have
    // drained the backlog below the backpressure low watermark.
    if (!C->NeedFlush.exchange(true, std::memory_order_acq_rel))
      wake();
    if (More)
      enqueue(C);
  }
}

void PhaseServer::Impl::acceptNew(Clock::time_point Now) {
  while (true) {
    sockaddr_in Addr;
    socklen_t AddrLen = sizeof(Addr);
    int Fd = ::accept4(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
                       &AddrLen, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // EAGAIN or a transient accept failure; poll again.
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));

    if (Conns.size() >= Opts.MaxSessions) {
      std::vector<uint8_t> Err;
      appendError(Err, ServeError::Overload, "server at session capacity");
      (void)!::send(Fd, Err.data(), Err.size(), MSG_NOSIGNAL);
      ::close(Fd);
      continue;
    }

    uint64_t Id = NextSessionId++;
    auto C = std::make_shared<Conn>(Id, Opts.Limits);
    C->Fd = Fd;
    C->Shard = unsigned(Id % NumShards);
    C->LastActivity = Now;
    NAccepted.fetch_add(1, std::memory_order_relaxed);
    Conns.push_back(std::move(C));
  }
}

void PhaseServer::Impl::closeConn(Conn &C) {
  {
    LockGuard L(C.M);
    if (C.Sess) {
      NElements.fetch_add(C.Sess->elementsProcessed(),
                          std::memory_order_relaxed);
      NTransitions.fetch_add(C.Sess->transitions(),
                             std::memory_order_relaxed);
      if (C.Sess->done()) {
        NCompleted.fetch_add(1, std::memory_order_relaxed);
      } else if (C.Sess->failed()) {
        switch (C.Sess->error()) {
        case ServeError::Evicted:
          NEvicted.fetch_add(1, std::memory_order_relaxed);
          break;
        case ServeError::Shutdown:
          NDrainClosed.fetch_add(1, std::memory_order_relaxed);
          break;
        default:
          NProtocolErrors.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      C.Sess.reset();
    }
  }
  closeFd(C.Fd);
}

void PhaseServer::Impl::reapClosed() {
  Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                             [](const std::shared_ptr<Conn> &C) {
                               return C->Fd == -1;
                             }),
              Conns.end());
}

void PhaseServer::Impl::tryWrite(Conn &C, Clock::time_point Now) {
  while (C.WritePos < C.WriteBuf.size()) {
    ssize_t N = ::send(C.Fd, C.WriteBuf.data() + C.WritePos,
                       C.WriteBuf.size() - C.WritePos, MSG_NOSIGNAL);
    if (N > 0) {
      C.WritePos += size_t(N);
      C.LastActivity = Now;
      NBytesOut.fetch_add(uint64_t(N), std::memory_order_relaxed);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    closeConn(C);
    return;
  }
  if (C.WritePos == C.WriteBuf.size()) {
    C.WriteBuf.clear();
    C.WritePos = 0;
  } else if (C.WritePos > (256u << 10) && C.WritePos * 2 > C.WriteBuf.size()) {
    C.WriteBuf.erase(C.WriteBuf.begin(),
                     C.WriteBuf.begin() + ptrdiff_t(C.WritePos));
    C.WritePos = 0;
  }
}

void PhaseServer::Impl::pullOutput(const std::shared_ptr<Conn> &C) {
  bool Relieved = false;
  {
    LockGuard L(C->M);
    if (!C->Sess)
      return;
    if (C->Sess->hasOutput())
      C->Sess->takeOutput(C->WriteBuf);
    if (C->Sess->done() || C->Sess->failed())
      C->Closing = true;
    Relieved = C->Sess->ingressRelieved();
  }
  if (C->ReadPaused && Relieved && !C->ReadEof)
    C->ReadPaused = false;
}

void PhaseServer::Impl::handleRead(const std::shared_ptr<Conn> &C,
                                   Clock::time_point Now) {
  uint8_t Buf[ReadChunk];
  while (true) {
    ssize_t N = ::recv(C->Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      NBytesIn.fetch_add(uint64_t(N), std::memory_order_relaxed);
      C->LastActivity = Now;
      bool Ok;
      bool Saturated = false;
      bool NeedsPump = false;
      {
        LockGuard L(C->M);
        if (!C->Sess)
          return;
        bool Handshaking = !C->Sess->handshakeAccepted();
        Ok = C->Sess->feed(Buf, size_t(N));
        if (Handshaking && C->Sess->handshakeAccepted())
          NDetectors.fetch_add(1, std::memory_order_relaxed);
        if (C->Sess->hasOutput())
          C->Sess->takeOutput(C->WriteBuf);
        if (Ok) {
          Saturated = C->Sess->ingressSaturated();
          NeedsPump = C->Sess->pendingElements() > 0 ||
                      C->Sess->state() == ServeSession::State::Draining;
        }
      }
      if (!Ok) {
        // Terminal protocol error: the Error frame is in WriteBuf; flush
        // it and close.
        C->Closing = true;
        tryWrite(*C, Now);
        if (C->Fd != -1 && C->WriteBuf.empty())
          closeConn(*C);
        return;
      }
      if (NeedsPump)
        enqueue(C);
      if (!C->WriteBuf.empty())
        tryWrite(*C, Now); // Handshake ack fast path.
      if (C->Fd == -1)
        return;
      if (Saturated) {
        C->ReadPaused = true;
        return;
      }
      if (size_t(N) < sizeof(Buf))
        return; // Socket drained.
      continue;
    }
    if (N == 0) {
      handleEof(C);
      return;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return;
    closeConn(*C);
    return;
  }
}

void PhaseServer::Impl::handleEof(const std::shared_ptr<Conn> &C) {
  C->ReadEof = true;
  bool KeepOpen = false;
  {
    LockGuard L(C->M);
    if (C->Sess) {
      ServeSession::State St = C->Sess->state();
      // A client may half-close after Finish and read the remaining
      // event stream; anything earlier is abandonment.
      KeepOpen =
          St == ServeSession::State::Draining || St == ServeSession::State::Done;
    }
  }
  if (KeepOpen)
    enqueue(C);
  else
    closeConn(*C);
}

void PhaseServer::Impl::idleSweep(Clock::time_point Now) {
  if (Opts.IdleTimeoutSeconds <= 0)
    return;
  for (auto &C : Conns) {
    if (C->Fd == -1)
      continue;
    if (secondsBetween(C->LastActivity, Now) < Opts.IdleTimeoutSeconds)
      continue;
    if (C->Closing) {
      // Already terminal and the peer will not drain our flush; cut it.
      closeConn(*C);
      continue;
    }
    bool Active = false;
    {
      LockGuard L(C->M);
      if (!C->Sess)
        continue;
      if (C->Sess->pendingElements() > 0 ||
          C->Sess->state() == ServeSession::State::Draining) {
        Active = true; // Worker still has decisions to make; not idle.
      } else {
        C->Sess->shutdown(ServeError::Evicted);
        if (C->Sess->hasOutput())
          C->Sess->takeOutput(C->WriteBuf);
      }
    }
    if (Active) {
      C->LastActivity = Now;
      continue;
    }
    C->Closing = true;
    tryWrite(*C, Now);
  }
}

void PhaseServer::Impl::beginDrain(Clock::time_point Now) {
  closeFd(ListenFd);
  for (auto &C : Conns) {
    if (C->Fd == -1)
      continue;
    {
      LockGuard L(C->M);
      if (C->Sess) {
        // Delivers every decidable transition, completes Draining
        // sessions, and fails the rest with ServeError::Shutdown.
        C->Sess->shutdown(ServeError::Shutdown);
        if (C->Sess->hasOutput())
          C->Sess->takeOutput(C->WriteBuf);
      }
    }
    C->ReadPaused = true;
    C->Closing = true;
    tryWrite(*C, Now);
  }
}

void PhaseServer::Impl::ioLoop() {
  std::vector<pollfd> Pfds;
  std::vector<std::shared_ptr<Conn>> PfdConn;
  bool Draining = false;
  Clock::time_point DrainDeadline{};

  while (true) {
    Clock::time_point Now = Clock::now();
    if (!Draining && StopRequested.load(std::memory_order_acquire)) {
      Draining = true;
      DrainDeadline =
          Now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Opts.DrainTimeoutSeconds));
      beginDrain(Now);
    }

    // Flush pass: react to worker pumps (output, backpressure relief,
    // completion) and retire drained terminal connections.
    for (auto &C : Conns) {
      if (C->Fd == -1)
        continue;
      if (C->NeedFlush.exchange(false, std::memory_order_acq_rel))
        pullOutput(C);
      if (!C->WriteBuf.empty())
        tryWrite(*C, Now);
      if (C->Fd != -1 && C->Closing && C->WriteBuf.empty())
        closeConn(*C);
    }
    reapClosed();

    if (Draining) {
      if (Conns.empty())
        break;
      if (Now >= DrainDeadline) {
        for (auto &C : Conns)
          closeConn(*C);
        reapClosed();
        break;
      }
    }

    // Poll set: the wake pipe, the listener (unless draining or at the
    // session cap — the cap is enforced in acceptNew so new arrivals
    // still get a clean Overload error), and every connection.
    Pfds.clear();
    PfdConn.clear();
    Pfds.push_back({WakeRd, POLLIN, 0});
    PfdConn.push_back(nullptr);
    bool PollListen = !Draining;
    if (PollListen) {
      Pfds.push_back({ListenFd, POLLIN, 0});
      PfdConn.push_back(nullptr);
    }
    for (auto &C : Conns) {
      short Ev = 0;
      if (!C->ReadPaused && !C->ReadEof && !C->Closing)
        Ev |= POLLIN;
      if (!C->WriteBuf.empty())
        Ev |= POLLOUT;
      // Included even with no requested events: POLLERR/POLLHUP are
      // always reported, which is how paused connections notice a dead
      // peer.
      Pfds.push_back({C->Fd, Ev, 0});
      PfdConn.push_back(C);
    }

    int TimeoutMs = 250;
    if (Draining) {
      double Left = secondsBetween(Now, DrainDeadline);
      TimeoutMs = std::min(TimeoutMs, int(std::max(0.0, Left) * 1000.0) + 1);
    }
    int NReady = ::poll(Pfds.data(), nfds_t(Pfds.size()), TimeoutMs);
    if (NReady < 0 && errno != EINTR)
      break; // Unrecoverable poll failure.
    Now = Clock::now();

    if (NReady > 0) {
      if (Pfds[0].revents & POLLIN) {
        uint8_t Drain[256];
        while (::read(WakeRd, Drain, sizeof(Drain)) > 0) {
        }
      }
      size_t First = 1;
      if (PollListen) {
        if (Pfds[1].revents & POLLIN)
          acceptNew(Now);
        First = 2;
      }
      for (size_t I = First; I < Pfds.size(); ++I) {
        const std::shared_ptr<Conn> &C = PfdConn[I];
        if (!C || C->Fd == -1)
          continue;
        short Re = Pfds[I].revents;
        if (Re & POLLOUT)
          tryWrite(*C, Now);
        if (C->Fd == -1)
          continue;
        if (Re & POLLIN) {
          handleRead(C, Now);
          continue;
        }
        if (Re & (POLLERR | POLLHUP)) {
          if (!C->WriteBuf.empty() || C->Closing) {
            // Peer gone while we were flushing; nothing left to deliver.
            closeConn(*C);
          } else {
            handleEof(C);
          }
        }
      }
      PfdConn.clear();
      reapClosed();
    }

    if (!Draining)
      idleSweep(Now);
    reapClosed();
  }

  // The loop exited: every connection is closed; the listener is closed
  // by beginDrain() (or by stop() on an abnormal exit).
}

PhaseServer::PhaseServer(const ServerOptions &Options)
    : I(std::make_unique<Impl>(Options)) {}

// NOLINTNEXTLINE(bugprone-exception-escape): stop() joins threads and
// closes fds; a throwing join here means the process is already lost.
PhaseServer::~PhaseServer() { stop(); }

bool PhaseServer::start(std::string &Error) { return I->start(Error); }

uint16_t PhaseServer::port() const { return I->BoundPort; }

void PhaseServer::stop() { I->stop(); }

bool PhaseServer::running() const {
  return I->Running.load(std::memory_order_acquire);
}

ServerStats PhaseServer::stats() const { return I->stats(); }
