//===- serve/Server.h - Multi-tenant phase-detection server -----*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PhaseServer turns the paper's strictly-online detector into a
/// service: a TCP daemon accepting many concurrent sessions, each
/// streaming profile elements under the wire protocol of
/// serve/Protocol.h and receiving P/T transitions as they are decided.
///
/// Threading model (docs/SERVING.md has the full picture):
///
///  * One I/O thread owns every socket: a poll() loop accepts
///    connections, reads frames into ServeSessions, and flushes their
///    response bytes. It never runs detector kernels.
///  * N shard workers own detector compute: sessions are pinned to a
///    shard (session id modulo N), each worker drains its queue of
///    ready sessions through ServeSession::pump(). Pinning means one
///    session is only ever pumped by one thread, so detector state
///    needs no locking beyond the per-connection mutex that hands
///    buffers between the I/O thread and the worker.
///  * Each session builds its own fast detector when its handshake is
///    accepted and drops it at Done or Failed, so a closed session holds
///    no detector memory and no detector state outlives its stream.
///
/// Backpressure: a session whose ingress backlog reaches the
/// ServeLimits watermark stops being read (its TCP window closes, the
/// client's sends stall) until a worker drains it below half. Idle
/// sessions are evicted after IdleTimeoutSeconds. stop() drains
/// gracefully: every buffered element whose batch is full is decided
/// and its transitions delivered before connections close.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_SERVE_SERVER_H
#define OPD_SERVE_SERVER_H

#include "serve/Session.h"

#include <memory>
#include <string>

namespace opd {

/// Everything configurable about one PhaseServer.
struct ServerOptions {
  /// Port to bind on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// with port()).
  uint16_t Port = 0;
  /// Shard worker threads; 0 means max(1, hardwareParallelism() - 1),
  /// leaving one core's worth of time for the I/O thread.
  unsigned Shards = 0;
  /// Concurrent-session cap: accepting stops while at the cap (the
  /// listen backlog queues the overflow).
  size_t MaxSessions = 8192;
  /// Sessions that sent no bytes for this long are evicted with
  /// ServeError::Evicted; 0 disables eviction.
  double IdleTimeoutSeconds = 60.0;
  /// On stop(), connections that cannot be drained and flushed within
  /// this budget are closed anyway.
  double DrainTimeoutSeconds = 10.0;
  /// Per-session validation bounds and backpressure watermark.
  ServeLimits Limits;
};

/// Monotonic counters describing a server's lifetime (all totals).
struct ServerStats {
  /// Connections accepted.
  uint64_t Accepted = 0;
  /// Sessions that completed normally (Finished emitted).
  uint64_t Completed = 0;
  /// Sessions evicted by the idle timer.
  uint64_t Evicted = 0;
  /// Sessions terminated by a protocol error.
  uint64_t ProtocolErrors = 0;
  /// Sessions cut by graceful drain.
  uint64_t DrainClosed = 0;
  /// Profile elements decided across all sessions.
  uint64_t Elements = 0;
  /// Transition events emitted across all sessions.
  uint64_t Transitions = 0;
  /// Raw bytes received / sent.
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  /// Detectors built. Kept in this two-field shape only because the
  /// repository benchmark (perfbench/src/Serve.cpp) reads it; it goes the
  /// next time the benchmark changes.
  struct DetectorCounts {
    /// Always 0: no detector is reused across sessions.
    uint64_t Hits = 0;
    /// Detectors built, one per accepted handshake.
    uint64_t Misses = 0;
  } Cache;
};

/// The serving daemon. start() spawns the I/O thread and shard workers;
/// stop() drains gracefully and joins them. Thread-safe: start/stop/
/// stats may be called from any thread.
class PhaseServer {
public:
  explicit PhaseServer(const ServerOptions &Options);
  ~PhaseServer();

  PhaseServer(const PhaseServer &) = delete;
  PhaseServer &operator=(const PhaseServer &) = delete;

  /// Binds, listens, and spawns the serving threads. Returns false with
  /// a diagnostic in \p Error on failure (port in use, out of fds).
  bool start(std::string &Error);

  /// The bound port (valid after a successful start()).
  uint16_t port() const;

  /// Graceful shutdown: stop accepting, drain every live session
  /// (deliver all decidable transitions, then ServeError::Shutdown),
  /// flush, close, and join all threads. Idempotent; also run by the
  /// destructor.
  void stop();

  /// True between a successful start() and the end of stop().
  bool running() const;

  /// Snapshot of the lifetime counters.
  ServerStats stats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace opd

#endif // OPD_SERVE_SERVER_H
