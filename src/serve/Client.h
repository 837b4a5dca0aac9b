//===- serve/Client.h - Blocking client for the serving protocol -*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small blocking client for the phase-detection server: ServeClient
/// speaks the wire protocol of serve/Protocol.h over one TCP connection,
/// and streamSession() drives a whole session (handshake, chunked
/// element stream, Finish, event collection) in one call. The tests and
/// the load generator both sit on these, and
/// streamedToDetectorRun() rebuilds an offline DetectorRun from the
/// streamed events so callers can hold the server to the equivalence
/// contract (serve/Session.h) against runDetector().
///
/// While a send is blocked on the socket the client keeps reading, so a
/// server emitting transitions faster than the client drains them can
/// never deadlock the stream; events decoded early are queued and
/// surface in order from recvEvent().
///
//===----------------------------------------------------------------------===//

#ifndef OPD_SERVE_CLIENT_H
#define OPD_SERVE_CLIENT_H

#include "core/DetectorRunner.h"
#include "serve/Protocol.h"

#include <deque>

namespace opd {

/// One blocking client connection to a phase-detection server.
class ServeClient {
public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient &) = delete;
  ServeClient &operator=(const ServeClient &) = delete;

  /// Connects to 127.0.0.1:\p Port. Returns false with a diagnostic in
  /// \p Error on failure.
  bool connect(uint16_t Port, std::string &Error);

  /// True while the connection is open.
  bool connected() const { return Fd != -1; }

  /// Closes the connection (idempotent).
  void close();

  /// \name Senders
  /// Each returns false on a transport failure. A send failing with a
  /// reset peer usually means the server terminated the session; drain
  /// recvEvent() for the Error event before giving up.
  /// @{

  /// Sends the handshake.
  bool sendHello(const HelloMsg &M, std::string &Error);

  /// Streams \p N elements, split into frames of at most
  /// MaxElementsPerFrame elements.
  bool sendElements(const SiteIndex *Elements, size_t N, std::string &Error);

  /// Declares end-of-stream.
  bool sendFinish(std::string &Error);
  /// @}

  /// One decoded server-to-client event.
  struct Event {
    /// Which member is valid.
    enum class Kind : uint8_t { HelloAck, Transition, Progress, Finished,
                                Error };
    Kind K = Kind::Error;
    HelloAckMsg Ack;           ///< Valid for Kind::HelloAck.
    TransitionMsg Transition;  ///< Valid for Kind::Transition.
    ProgressMsg Progress;      ///< Valid for Kind::Progress.
    FinishedMsg Finished;      ///< Valid for Kind::Finished.
    ErrorMsg Err;              ///< Valid for Kind::Error.
  };

  /// Blocks for the next server event (events decoded while a send was
  /// flushing surface here first, in order). Returns false on transport
  /// failure, protocol corruption, or end-of-stream.
  bool recvEvent(Event &Ev, std::string &Error);

private:
  /// Writes all \p N bytes, draining inbound events while blocked.
  bool sendAll(const uint8_t *Data, size_t N, std::string &Error);

  /// Reads once from the socket (blocking when \p Blocking) and decodes
  /// complete frames into the event queue. Sets \p Eof at end-of-stream.
  bool readSome(bool Blocking, bool &Eof, std::string &Error);

  /// Decodes every complete buffered frame into the event queue.
  bool decodeFrames(std::string &Error);

  int Fd = -1;
  FrameReader Reader;
  std::deque<Event> Queue;
};

/// Everything a client observed from one streamed session.
struct StreamedRun {
  /// The accepted handshake.
  HelloAckMsg Ack;
  /// Every Transition event, in stream order.
  std::vector<TransitionMsg> Transitions;
  /// Last Progress acknowledgement seen (0 if none).
  uint64_t LastProgress = 0;
  /// True once the Finished summary arrived; Summary is then valid.
  bool GotFinished = false;
  FinishedMsg Summary;
  /// True if the server terminated the session; Err is then valid.
  bool GotError = false;
  ErrorMsg Err;
};

/// Runs one complete session against 127.0.0.1:\p Port: handshake with
/// \p Hello, stream \p N elements in sendElements() calls of \p Chunk
/// elements (exercising arbitrary wire chunking), Finish, and collect
/// events until Finished or Error. Returns false only on transport
/// failure; a server-side rejection returns true with Run.GotError set.
bool streamSession(uint16_t Port, const HelloMsg &Hello,
                   const SiteIndex *Elements, size_t N, size_t Chunk,
                   StreamedRun &Run, std::string &Error);

/// Rebuilds the offline DetectorRun a streamed session corresponds to:
/// states from the Transition events over Summary.Elements elements,
/// detected phases from the state runs, and anchored phases from the
/// event anchors through finalizeAnchoredPhases() (sorted, disjoint). The
/// run equals runDetector() on the same elements and config exactly when
/// the server honored the equivalence contract.
/// The frames must follow PhaseEdges: offsets strictly increasing below
/// Summary.Elements, states alternating from P. A stream that does not
/// yields Summary.Elements + 1 (mod 2^64) Transition states and no phases,
/// so it never equals an offline run, which holds exactly Summary.Elements
/// states (an empty run would equal one when Summary.Elements is 0).
DetectorRun streamedToDetectorRun(const StreamedRun &Run);

} // namespace opd

#endif // OPD_SERVE_CLIENT_H
