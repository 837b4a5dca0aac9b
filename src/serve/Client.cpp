//===- serve/Client.cpp - Blocking client for the serving protocol ---------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace opd;

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (Fd != -1) {
    ::close(Fd);
    Fd = -1;
  }
}

bool ServeClient::connect(uint16_t Port, std::string &Error) {
  close();
  Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Error = std::string("connect: ") + std::strerror(errno);
    close();
    return false;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  // Nonblocking: sendAll()/recvEvent() multiplex with poll() so inbound
  // events are drained even while a send is blocked.
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
  return true;
}

bool ServeClient::decodeFrames(std::string &Error) {
  Frame F;
  while (true) {
    switch (Reader.next(F)) {
    case FrameReader::Status::NeedMore:
      return true;
    case FrameReader::Status::Corrupt:
      Error = "protocol corruption: " + Reader.corruptReason();
      return false;
    case FrameReader::Status::Frame: {
      Event Ev;
      bool Ok = false;
      switch (F.Kind) {
      case MsgKind::HelloAck:
        Ev.K = Event::Kind::HelloAck;
        Ok = parseHelloAck(F, Ev.Ack);
        break;
      case MsgKind::Transition:
        Ev.K = Event::Kind::Transition;
        Ok = parseTransition(F, Ev.Transition);
        break;
      case MsgKind::Progress:
        Ev.K = Event::Kind::Progress;
        Ok = parseProgress(F, Ev.Progress);
        break;
      case MsgKind::Finished:
        Ev.K = Event::Kind::Finished;
        Ok = parseFinished(F, Ev.Finished);
        break;
      case MsgKind::Error:
        Ev.K = Event::Kind::Error;
        Ok = parseError(F, Ev.Err);
        break;
      case MsgKind::Hello:
      case MsgKind::Elements:
      case MsgKind::Finish:
        break; // Client-to-server kind from the server: malformed.
      }
      if (!Ok) {
        Error = "malformed server frame (kind " +
                std::to_string(unsigned(F.Kind)) + ")";
        return false;
      }
      Queue.push_back(std::move(Ev));
      break;
    }
    }
  }
}

bool ServeClient::readSome(bool Blocking, bool &Eof, std::string &Error) {
  Eof = false;
  while (true) {
    uint8_t Buf[64 << 10];
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      Reader.feed(Buf, size_t(N));
      return decodeFrames(Error);
    }
    if (N == 0) {
      Eof = true;
      return true;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!Blocking)
        return true;
      pollfd P{Fd, POLLIN, 0};
      if (::poll(&P, 1, -1) < 0 && errno != EINTR) {
        Error = std::string("poll: ") + std::strerror(errno);
        return false;
      }
      continue;
    }
    Error = std::string("recv: ") + std::strerror(errno);
    return false;
  }
}

bool ServeClient::sendAll(const uint8_t *Data, size_t N, std::string &Error) {
  if (Fd == -1) {
    Error = "not connected";
    return false;
  }
  size_t Pos = 0;
  while (Pos < N) {
    ssize_t W = ::send(Fd, Data + Pos, N - Pos, MSG_NOSIGNAL);
    if (W > 0) {
      Pos += size_t(W);
      continue;
    }
    if (W < 0 && errno == EINTR)
      continue;
    if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Blocked: wait for writability, but keep draining inbound events
      // so a transition-heavy stream cannot deadlock against our send.
      pollfd P{Fd, POLLIN | POLLOUT, 0};
      if (::poll(&P, 1, -1) < 0 && errno != EINTR) {
        Error = std::string("poll: ") + std::strerror(errno);
        return false;
      }
      if (P.revents & POLLIN) {
        bool Eof = false;
        if (!readSome(/*Blocking=*/false, Eof, Error))
          return false;
        if (Eof) {
          Error = "connection closed by server during send";
          return false;
        }
      }
      continue;
    }
    Error = std::string("send: ") + std::strerror(errno);
    return false;
  }
  return true;
}

bool ServeClient::sendHello(const HelloMsg &M, std::string &Error) {
  std::vector<uint8_t> Buf;
  appendHello(Buf, M);
  return sendAll(Buf.data(), Buf.size(), Error);
}

bool ServeClient::sendElements(const SiteIndex *Elements, size_t N,
                               std::string &Error) {
  std::vector<uint8_t> Buf;
  size_t Pos = 0;
  while (Pos < N) {
    size_t Take = std::min<size_t>(N - Pos, MaxElementsPerFrame);
    Buf.clear();
    appendElements(Buf, Elements + Pos, Take);
    if (!sendAll(Buf.data(), Buf.size(), Error))
      return false;
    Pos += Take;
  }
  return true;
}

bool ServeClient::sendFinish(std::string &Error) {
  std::vector<uint8_t> Buf;
  appendFinish(Buf);
  return sendAll(Buf.data(), Buf.size(), Error);
}

bool ServeClient::recvEvent(Event &Ev, std::string &Error) {
  while (Queue.empty()) {
    if (Fd == -1) {
      Error = "not connected";
      return false;
    }
    bool Eof = false;
    if (!readSome(/*Blocking=*/true, Eof, Error))
      return false;
    if (Eof && Queue.empty()) {
      Error = "connection closed by server";
      return false;
    }
    if (Eof)
      break;
  }
  Ev = std::move(Queue.front());
  Queue.pop_front();
  return true;
}

bool opd::streamSession(uint16_t Port, const HelloMsg &Hello,
                        const SiteIndex *Elements, size_t N, size_t Chunk,
                        StreamedRun &Run, std::string &Error) {
  Run = StreamedRun();
  if (Chunk == 0)
    Chunk = N ? N : 1;

  ServeClient Client;
  if (!Client.connect(Port, Error))
    return false;
  if (!Client.sendHello(Hello, Error))
    return false;

  ServeClient::Event Ev;
  if (!Client.recvEvent(Ev, Error))
    return false;
  if (Ev.K == ServeClient::Event::Kind::Error) {
    Run.GotError = true;
    Run.Err = Ev.Err;
    return true;
  }
  if (Ev.K != ServeClient::Event::Kind::HelloAck) {
    Error = "expected HelloAck, got event kind " +
            std::to_string(unsigned(Ev.K));
    return false;
  }
  Run.Ack = Ev.Ack;

  std::string SendError;
  bool SendOk = true;
  for (size_t Pos = 0; Pos < N && SendOk; Pos += Chunk) {
    size_t Take = std::min(Chunk, N - Pos);
    SendOk = Client.sendElements(Elements + Pos, Take, SendError);
  }
  if (SendOk)
    SendOk = Client.sendFinish(SendError);
  // A failed send usually means the server already terminated the
  // session; fall through and pick the Error event out of the stream.

  while (true) {
    if (!Client.recvEvent(Ev, Error)) {
      if (!SendOk) {
        Error = SendError;
        return false;
      }
      return false;
    }
    switch (Ev.K) {
    case ServeClient::Event::Kind::Transition:
      Run.Transitions.push_back(Ev.Transition);
      break;
    case ServeClient::Event::Kind::Progress:
      Run.LastProgress = Ev.Progress.Ingested;
      break;
    case ServeClient::Event::Kind::Finished:
      Run.GotFinished = true;
      Run.Summary = Ev.Finished;
      return true;
    case ServeClient::Event::Kind::Error:
      Run.GotError = true;
      Run.Err = Ev.Err;
      return true;
    case ServeClient::Event::Kind::HelloAck:
      Error = "duplicate HelloAck";
      return false;
    }
  }
}

DetectorRun opd::streamedToDetectorRun(const StreamedRun &Run) {
  const std::vector<TransitionMsg> &Frames = Run.Transitions;
  const uint64_t Elements = Run.Summary.Elements;
  auto Malformed = [Elements] { // Never equals an offline run; see Client.h.
    DetectorRun M;
    M.States.append(PhaseState::Transition, Elements + 1);
    return M;
  };
  // The stream is T up to the first frame; each frame then decides the
  // stretch up to the next frame (or Elements), which must be nonempty
  // and a PhaseEdges edge.
  DetectorRun R;
  PhaseEdges Edges;
  uint64_t First = Frames.empty() ? Elements : Frames.front().Offset;
  Edges.step(PhaseState::Transition, First);
  R.States.append(PhaseState::Transition, First);
  std::vector<uint64_t> Anchors;
  for (size_t I = 0; I != Frames.size(); ++I) {
    const TransitionMsg &F = Frames[I];
    uint64_t End = I + 1 < Frames.size() ? Frames[I + 1].Offset : Elements;
    if (End <= F.Offset)
      return Malformed();
    PhaseEdges::Edge E = Edges.step(F.NewState, End - F.Offset);
    if (E == PhaseEdges::Edge::None)
      return Malformed();
    if (E == PhaseEdges::Edge::Begin)
      Anchors.push_back(F.HasAnchor ? F.Anchor : F.Offset);
    R.States.append(F.NewState, End - F.Offset);
  }
  finalizeAnchoredPhases(R, Anchors);
  return R;
}
