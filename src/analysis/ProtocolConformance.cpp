//===- analysis/ProtocolConformance.cpp - Model-vs-reality diffs ------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "analysis/ProtocolConformance.h"

#include "core/DetectorRunner.h"
#include "serve/Client.h"
#include "serve/Session.h"
#include "trace/BranchTrace.h"

#include <random>

using namespace opd;

namespace {

constexpr SourceLoc ImplLoc{0, 0};

//===----------------------------------------------------------------------===//
// Wire-byte encodings of the classified events
//
// The model speaks in validation classes; this is where each class gets
// a concrete byte encoding — so the classification itself is what the
// conformance replay checks against the real decoder.
//===----------------------------------------------------------------------===//

void putLE32(std::vector<uint8_t> &Out, uint32_t V) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
  Out.push_back(static_cast<uint8_t>(V >> 16));
  Out.push_back(static_cast<uint8_t>(V >> 24));
}

/// A complete frame with an arbitrary kind byte and payload.
std::vector<uint8_t> rawFrame(uint8_t Kind,
                              const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> Out;
  putLE32(Out, static_cast<uint32_t>(Payload.size()) + 1);
  Out.push_back(Kind);
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

std::vector<uint8_t> helloFrame(const DetectorConfig &Config,
                                SiteIndex NumSites, uint16_t Flags) {
  HelloMsg M;
  M.Flags = Flags;
  M.NumSites = NumSites;
  M.Config = Config;
  std::vector<uint8_t> Out;
  appendHello(Out, M);
  return Out;
}

/// How one classified event is delivered to a ServeSession.
struct Action {
  enum class Kind : uint8_t { Feed, PumpOne, PumpAll, Evict, Drain };
  Kind K = Kind::Feed;
  std::vector<uint8_t> Bytes; // Valid for Kind::Feed.
};

/// Encodes \p Ev as a concrete session action. \p Elems carries the
/// element values for ElementsOk (size == the event's Count).
Action encodeEvent(ProtoEvent Ev, const DetectorConfig &Config,
                   SiteIndex NumSites, uint16_t Flags,
                   const std::vector<SiteIndex> &Elems) {
  Action A;
  switch (Ev) {
  case ProtoEvent::HelloOk:
    A.Bytes = helloFrame(Config, NumSites, Flags);
    break;
  case ProtoEvent::HelloBadMagic:
    A.Bytes = helloFrame(Config, NumSites, Flags);
    A.Bytes[5] ^= 0xFF; // First payload byte: low byte of the magic.
    break;
  case ProtoEvent::HelloBadVersion:
    A.Bytes = helloFrame(Config, NumSites, Flags);
    A.Bytes[9] = 0xFF; // Version field (payload offset 4).
    A.Bytes[10] = 0xFF;
    break;
  case ProtoEvent::HelloBadConfig: {
    DetectorConfig Bad = Config;
    Bad.Window.CWSize = 0; // Rejected by ServeLimits validation.
    A.Bytes = helloFrame(Bad, NumSites, Flags);
    break;
  }
  case ProtoEvent::HelloMalformed:
    // One byte short of the 37-byte handshake payload.
    A.Bytes = rawFrame(uint8_t(MsgKind::Hello), std::vector<uint8_t>(36, 0));
    break;
  case ProtoEvent::ElementsOk:
    appendElements(A.Bytes, Elems.data(), Elems.size());
    break;
  case ProtoEvent::ElementsMalformed: {
    // Count claims 2 elements, payload carries 1: length mismatch.
    std::vector<uint8_t> P;
    putLE32(P, 2);
    putLE32(P, 0);
    A.Bytes = rawFrame(uint8_t(MsgKind::Elements), P);
    break;
  }
  case ProtoEvent::ElementsOutOfRange: {
    SiteIndex Bad = NumSites; // First index outside the site space.
    appendElements(A.Bytes, &Bad, 1);
    break;
  }
  case ProtoEvent::FinishOk:
    appendFinish(A.Bytes);
    break;
  case ProtoEvent::FinishPayload:
    A.Bytes = rawFrame(uint8_t(MsgKind::Finish), {0});
    break;
  case ProtoEvent::ServerKindFrame:
    A.Bytes = rawFrame(uint8_t(MsgKind::HelloAck), {});
    break;
  case ProtoEvent::UnknownKindFrame:
    A.Bytes = rawFrame(9, {}); // A kind outside the defined numbering.
    break;
  case ProtoEvent::CorruptZeroLen:
    putLE32(A.Bytes, 0);
    break;
  case ProtoEvent::CorruptOversized:
    putLE32(A.Bytes, MaxFrameLen + 1);
    break;
  case ProtoEvent::PumpOne:
    A.K = Action::Kind::PumpOne;
    break;
  case ProtoEvent::PumpAll:
    A.K = Action::Kind::PumpAll;
    break;
  case ProtoEvent::Evict:
    A.K = Action::Kind::Evict;
    break;
  case ProtoEvent::Drain:
    A.K = Action::Kind::Drain;
    break;
  }
  return A;
}

//===----------------------------------------------------------------------===//
// Lockstep driver
//===----------------------------------------------------------------------===//

/// Frames a session emitted during one step, classified.
struct ObservedFrames {
  unsigned HelloAcks = 0;
  unsigned Finisheds = 0;
  unsigned Errors = 0;
  unsigned Transitions = 0;
  unsigned Progresses = 0;
  unsigned Unparsable = 0;
  ServeError ErrCode = ServeError::None;
  FinishedMsg Summary;
  std::vector<TransitionMsg> Events;
};

ObservedFrames parseOutput(const std::vector<uint8_t> &Bytes) {
  ObservedFrames Obs;
  FrameReader R;
  R.feed(Bytes.data(), Bytes.size());
  Frame F;
  while (R.next(F) == FrameReader::Status::Frame) {
    switch (F.Kind) {
    case MsgKind::HelloAck: {
      HelloAckMsg M;
      Obs.HelloAcks += 1;
      if (!parseHelloAck(F, M))
        Obs.Unparsable += 1;
      break;
    }
    case MsgKind::Transition: {
      TransitionMsg M;
      if (parseTransition(F, M))
        Obs.Events.push_back(M);
      else
        Obs.Unparsable += 1;
      Obs.Transitions += 1;
      break;
    }
    case MsgKind::Progress: {
      ProgressMsg M;
      Obs.Progresses += 1;
      if (!parseProgress(F, M))
        Obs.Unparsable += 1;
      break;
    }
    case MsgKind::Finished: {
      Obs.Finisheds += 1;
      if (!parseFinished(F, Obs.Summary))
        Obs.Unparsable += 1;
      break;
    }
    case MsgKind::Error: {
      ErrorMsg M;
      Obs.Errors += 1;
      if (parseError(F, M))
        Obs.ErrCode = M.Code;
      else
        Obs.Unparsable += 1;
      break;
    }
    default:
      Obs.Unparsable += 1;
      break;
    }
  }
  if (R.buffered() != 0)
    Obs.Unparsable += 1; // Trailing partial frame in a response stream.
  return Obs;
}

ProtoState mapState(ServeSession::State St) {
  switch (St) {
  case ServeSession::State::AwaitHello:
    return ProtoState::AwaitHello;
  case ServeSession::State::Streaming:
    return ProtoState::Streaming;
  case ServeSession::State::Draining:
    return ProtoState::Draining;
  case ServeSession::State::Done:
    return ProtoState::Done;
  case ServeSession::State::Failed:
    return ProtoState::Failed;
  }
  return ProtoState::Failed;
}

/// One real session driven in lockstep with the model.
struct LockstepDriver {
  ProtocolModel &M;
  ServeSession Sess;
  DetectorConfig Config;
  SiteIndex NumSites;
  uint16_t Flags;

  ProtoConfigState S;
  /// The I/O thread's sticky read-pause bit, re-derived from the session
  /// predicates exactly as Server.cpp maintains it.
  bool TrackedPaused = false;
  /// Model-side accumulation of decided elements.
  uint64_t Processed = 0;
  /// Replayed schedule, for diagnostics.
  std::vector<ProtoStep> Schedule;

  LockstepDriver(ProtocolModel &M, const ServeLimits &Limits,
                 const DetectorConfig &Config, SiteIndex NumSites,
                 uint16_t Flags)
      : M(M), Sess(/*Id=*/1, Limits), Config(Config),
        NumSites(NumSites), Flags(Flags) {}

  /// Applies one event to both sides; returns an empty string when the
  /// implementation matched the model, a divergence description
  /// otherwise. \p Obs receives the step's emitted frames.
  std::string step(ProtoEvent Ev, const std::vector<SiteIndex> &Elems,
                   ObservedFrames &Obs) {
    uint32_t Count = static_cast<uint32_t>(Elems.size());
    Schedule.push_back({Ev, Count});
    ProtocolModel::StepResult Res = M.step(S, Ev, Count);
    if (!Res.Rule)
      return "model has no transition for this event";
    if (Res.Ambiguous)
      return "model transition is ambiguous for this event";

    Action A = encodeEvent(Ev, Config, NumSites, Flags, Elems);
    switch (A.K) {
    case Action::Kind::Feed:
      Sess.feed(A.Bytes.data(), A.Bytes.size());
      break;
    case Action::Kind::PumpOne:
      Sess.pump(1);
      break;
    case Action::Kind::PumpAll:
      Sess.pump();
      break;
    case Action::Kind::Evict:
      Sess.shutdown(ServeError::Evicted);
      break;
    case Action::Kind::Drain:
      Sess.shutdown(ServeError::Shutdown);
      break;
    }
    std::vector<uint8_t> Out;
    Sess.takeOutput(Out);
    Obs = parseOutput(Out);

    Processed += Res.Decided;
    const ProtoConfigState &Next = Res.Next;
    bool Terminal = ProtocolModel::isTerminal(mapState(Sess.state()));
    if (Terminal)
      TrackedPaused = false;
    else if (ProtocolModel::isClientFrameEvent(Ev)) {
      if (Sess.ingressSaturated())
        TrackedPaused = true;
    } else if (A.K == Action::Kind::PumpOne ||
               A.K == Action::Kind::PumpAll) {
      if (TrackedPaused && Sess.ingressRelieved())
        TrackedPaused = false;
    }

    std::string Diff = diff(*Res.Rule, Next, Obs);
    S = Next;
    return Diff;
  }

  std::string diff(const TransitionRule &R, const ProtoConfigState &Next,
                   const ObservedFrames &Obs) const {
    if (mapState(Sess.state()) != Next.St)
      return std::string("state is ") +
             ProtocolModel::stateName(mapState(Sess.state())) +
             ", model expects " + ProtocolModel::stateName(Next.St);
    if (Sess.error() != Next.Err)
      return std::string("error code is ") + serveErrorName(Sess.error()) +
             ", model expects " + serveErrorName(Next.Err);
    if (Sess.pendingElements() != Next.Occupancy)
      return "buffer occupancy is " +
             std::to_string(Sess.pendingElements()) + ", model expects " +
             std::to_string(Next.Occupancy);
    if (Sess.elementsProcessed() != Processed)
      return "processed " + std::to_string(Sess.elementsProcessed()) +
             " elements, model expects " + std::to_string(Processed);
    unsigned WantAcks = R.EmitHelloAck ? 1 : 0;
    if (Obs.HelloAcks != WantAcks)
      return "emitted " + std::to_string(Obs.HelloAcks) +
             " HelloAck frames, model expects " + std::to_string(WantAcks);
    unsigned WantFin = R.EmitFinished ? 1 : 0;
    if (Obs.Finisheds != WantFin)
      return "emitted " + std::to_string(Obs.Finisheds) +
             " Finished frames, model expects " + std::to_string(WantFin);
    bool WantError = R.Err != ServeError::None;
    if (Obs.Errors != (WantError ? 1u : 0u))
      return "emitted " + std::to_string(Obs.Errors) +
             " Error frames, model expects " +
             std::to_string(WantError ? 1 : 0);
    if (WantError && Obs.ErrCode != R.Err)
      return std::string("Error frame carries ") +
             serveErrorName(Obs.ErrCode) + ", model expects " +
             serveErrorName(R.Err);
    if (Obs.Transitions != 0 && !R.MayEmitTransitions)
      return "emitted Transition frames on an edge the model forbids "
             "them on";
    if (Obs.Progresses != 0 && !R.MayEmitProgress)
      return "emitted Progress frames on an edge the model forbids them "
             "on";
    if (Obs.Unparsable != 0)
      return "emitted frames the protocol parsers reject";
    if (Sess.ingressSaturated() !=
        (Next.Occupancy >= M.params().HighWatermark))
      return "ingressSaturated() disagrees with the watermark";
    if (TrackedPaused != Next.ReadPaused)
      return std::string("server read-pause bit would be ") +
             (TrackedPaused ? "on" : "off") + ", model expects " +
             (Next.ReadPaused ? "on" : "off");
    return "";
  }
};

DetectorConfig conformanceConfig(uint32_t Batch) {
  DetectorConfig Config;
  Config.Window.CWSize = 4;
  Config.Window.TWSize = 4;
  Config.Window.SkipFactor = Batch;
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// Implementation conformance: every model edge replayed on ServeSession
//===----------------------------------------------------------------------===//

void opd::checkImplConformance(const ProtocolModel &M,
                               DiagnosticEngine &Diags) {
  ProtoExploration Ex = exploreProtocol(M);
  if (!Ex.Complete) {
    Diags.report(DiagSeverity::Error, ImplLoc, "impl-divergence",
                 "model exploration is incomplete (missing or ambiguous "
                 "transitions); run the invariant checks first");
    return;
  }

  ServeLimits Limits;
  Limits.MaxPendingElements = M.params().HighWatermark;
  const DetectorConfig Config = conformanceConfig(M.params().Batch);
  const SiteIndex NumSites = 4;
  // The conformance element stream is deterministic (site 1): the model
  // tracks control state, not detector decisions.
  ProtocolModel &Mutable = const_cast<ProtocolModel &>(M);

  unsigned Reported = 0;
  for (const ProtoEdge &E : Ex.Edges) {
    if (Reported >= 16)
      break;
    std::vector<ProtoStep> Path = Ex.Witness[E.From];
    Path.push_back(E.Step);

    LockstepDriver D(Mutable, Limits, Config, NumSites, /*Flags=*/0);
    for (const ProtoStep &Step : Path) {
      std::vector<SiteIndex> Elems(Step.Count, SiteIndex(1));
      ObservedFrames Obs;
      std::string Diff = D.step(Step.Event, Elems, Obs);
      if (!Diff.empty()) {
        Diags.report(DiagSeverity::Error, ImplLoc, "impl-divergence",
                     "ServeSession diverges from the model: " + Diff +
                         " (schedule: " + renderWitness(D.Schedule) + ")");
        Reported += 1;
        break;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Documentation conformance: the normative SERVING.md tables
//===----------------------------------------------------------------------===//

namespace {

std::string trimCopy(const std::string &S) {
  size_t B = S.find_first_not_of(" \t\r");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\r");
  return S.substr(B, E - B + 1);
}

std::string stripBackticks(const std::string &S) {
  std::string Out;
  for (char C : S)
    if (C != '`')
      Out += C;
  return Out;
}

/// Splits a markdown table row into trimmed, backtick-stripped cells.
/// Returns an empty vector for non-row lines.
std::vector<std::string> tableCells(const std::string &Line) {
  std::string T = trimCopy(Line);
  if (T.size() < 2 || T.front() != '|')
    return {};
  std::vector<std::string> Cells;
  size_t Pos = 1;
  while (Pos < T.size()) {
    size_t Next = T.find('|', Pos);
    if (Next == std::string::npos)
      break;
    Cells.push_back(trimCopy(stripBackticks(T.substr(Pos, Next - Pos))));
    Pos = Next + 1;
  }
  return Cells;
}

bool allDigits(const std::string &S) {
  if (S.empty())
    return false;
  for (char C : S)
    if (C < '0' || C > '9')
      return false;
  return true;
}

bool lookupState(const std::string &Name, ProtoState &Out) {
  for (unsigned I = 0; I != NumProtoStates; ++I)
    if (Name == ProtocolModel::stateName(static_cast<ProtoState>(I))) {
      Out = static_cast<ProtoState>(I);
      return true;
    }
  return false;
}

bool lookupError(const std::string &Name, ServeError &Out) {
  for (const ProtocolModel::ErrorInfo &EI : ProtocolModel::errorCodes())
    if (Name == EI.Name) {
      Out = static_cast<ServeError>(EI.Value);
      return true;
    }
  return false;
}

constexpr const char *ArrowUTF8 = "\xE2\x86\x92"; // U+2192 RIGHTWARDS ARROW

} // namespace

void opd::checkDocConformance(const ProtocolModel &M,
                              const std::string &DocText,
                              DiagnosticEngine &Diags) {
  // Split into lines with 1-based numbering for diagnostic locations.
  std::vector<std::string> Lines;
  {
    size_t Pos = 0;
    while (Pos <= DocText.size()) {
      size_t NL = DocText.find('\n', Pos);
      if (NL == std::string::npos) {
        Lines.push_back(DocText.substr(Pos));
        break;
      }
      Lines.push_back(DocText.substr(Pos, NL - Pos));
      Pos = NL + 1;
    }
  }
  auto LocAt = [](size_t Idx) {
    return SourceLoc{static_cast<uint32_t>(Idx + 1), 1};
  };

  struct DocKind {
    std::string Name;
    uint32_t Value;
    bool ClientToServer;
    size_t Line;
  };
  struct DocError {
    std::string Name;
    uint32_t Value;
    size_t Line;
  };
  std::vector<DocKind> DocKinds;
  std::vector<DocError> DocErrors;
  std::vector<std::pair<std::string, size_t>> DocStates;
  bool SawLegalityHeader = false;
  unsigned LegalityRows = 0;
  std::string Section;

  for (size_t I = 0; I != Lines.size(); ++I) {
    const std::string &Line = Lines[I];
    if (Line.rfind("## ", 0) == 0) {
      Section = trimCopy(Line.substr(3));
      continue;
    }

    // Lifecycle state bullets, only inside the Session lifecycle
    // section ("* **Name** — ..."); "Done / Failed" names two states.
    if (Section == "Session lifecycle" && trimCopy(Line).rfind("* **", 0) == 0) {
      std::string T = trimCopy(Line).substr(4);
      size_t End = T.find("**");
      if (End == std::string::npos)
        continue;
      std::string Names = T.substr(0, End);
      size_t Pos = 0;
      while (Pos != std::string::npos) {
        size_t Sep = Names.find(" / ", Pos);
        std::string One = trimCopy(
            Sep == std::string::npos ? Names.substr(Pos)
                                     : Names.substr(Pos, Sep - Pos));
        if (!One.empty())
          DocStates.push_back({One, I});
        Pos = Sep == std::string::npos ? Sep : Sep + 3;
      }
      continue;
    }

    std::vector<std::string> Cells = tableCells(Line);
    if (Cells.empty())
      continue;

    // Frame-kind rows: | Name | Value | Direction | Payload |
    if (Cells.size() >= 4 && allDigits(Cells[1]) &&
        (Cells[2] == std::string("C") + ArrowUTF8 + "S" ||
         Cells[2] == std::string("S") + ArrowUTF8 + "C")) {
      DocKinds.push_back({Cells[0],
                          static_cast<uint32_t>(std::stoul(Cells[1])),
                          Cells[2][0] == 'C', I});
      continue;
    }

    // Error-code rows: | Code | Name | Meaning |
    if (Cells.size() >= 3 && allDigits(Cells[0])) {
      ServeError Ignored;
      if (lookupError(Cells[1], Ignored) ||
          Cells[2].find("error") != std::string::npos)
        DocErrors.push_back(
            {Cells[1], static_cast<uint32_t>(std::stoul(Cells[0])), I});
      continue;
    }

    // Frame-legality table: header | State | Hello | Elements | Finish |
    // followed by one row per live state.
    if (Cells.size() >= 4 && Cells[0] == "State" && Cells[1] == "Hello" &&
        Cells[2] == "Elements" && Cells[3] == "Finish") {
      SawLegalityHeader = true;
      continue;
    }
    ProtoState RowState;
    if (SawLegalityHeader && Cells.size() >= 4 &&
        lookupState(Cells[0], RowState)) {
      LegalityRows += 1;
      const MsgKind Kinds[3] = {MsgKind::Hello, MsgKind::Elements,
                                MsgKind::Finish};
      for (unsigned K = 0; K != 3; ++K) {
        const std::string &Cell = Cells[K + 1];
        ProtocolModel::Legality Doc;
        if (Cell.rfind("accept", 0) == 0) {
          Doc.Err = ServeError::None;
          size_t Arrow = Cell.find(ArrowUTF8);
          if (Arrow == std::string::npos) {
            Doc.To = RowState;
          } else if (!lookupState(trimCopy(Cell.substr(Arrow + 3)),
                                  Doc.To)) {
            Diags.report(DiagSeverity::Error, LocAt(I), "doc-parse",
                         "frame-legality cell '" + Cell +
                             "' names an unknown state");
            continue;
          }
        } else if (lookupError(Cell, Doc.Err)) {
          Doc.To = ProtoState::Failed;
        } else {
          Diags.report(DiagSeverity::Error, LocAt(I), "doc-parse",
                       "frame-legality cell '" + Cell +
                           "' is neither an acceptance nor an error "
                           "mnemonic");
          continue;
        }
        ProtocolModel::Legality Model = M.legality(RowState, Kinds[K]);
        if (Doc.Err != Model.Err || (Doc.Err == ServeError::None &&
                                     Doc.To != Model.To))
          Diags.report(
              DiagSeverity::Error, LocAt(I), "doc-divergence",
              std::string("frame-legality for (") +
                  ProtocolModel::stateName(RowState) + ", " +
                  (K == 0 ? "Hello" : K == 1 ? "Elements" : "Finish") +
                  ") is '" + Cell + "' in the doc but " +
                  (Model.Err == ServeError::None
                       ? std::string("accept ") + ArrowUTF8 + " " +
                             ProtocolModel::stateName(Model.To)
                       : std::string(serveErrorName(Model.Err))) +
                  " in the model");
      }
      continue;
    }
  }

  // Frame-kind catalogue diff.
  std::vector<ProtocolModel::KindInfo> Kinds = ProtocolModel::frameKinds();
  if (DocKinds.size() != Kinds.size()) {
    Diags.report(DiagSeverity::Error, ImplLoc,
                 DocKinds.empty() ? "doc-parse" : "doc-divergence",
                 "doc lists " + std::to_string(DocKinds.size()) +
                     " frame kinds, model has " +
                     std::to_string(Kinds.size()));
  } else {
    for (size_t I = 0; I != Kinds.size(); ++I) {
      if (DocKinds[I].Name != Kinds[I].Name ||
          DocKinds[I].Value != Kinds[I].Value ||
          DocKinds[I].ClientToServer != Kinds[I].ClientToServer)
        Diags.report(DiagSeverity::Error, LocAt(DocKinds[I].Line),
                     "doc-divergence",
                     "frame kind row '" + DocKinds[I].Name + "' (value " +
                         std::to_string(DocKinds[I].Value) +
                         ") disagrees with the model's " + Kinds[I].Name +
                         " = " + std::to_string(Kinds[I].Value));
    }
  }

  // Error-code catalogue diff.
  std::vector<ProtocolModel::ErrorInfo> Errs = ProtocolModel::errorCodes();
  if (DocErrors.size() != Errs.size()) {
    Diags.report(DiagSeverity::Error, ImplLoc,
                 DocErrors.empty() ? "doc-parse" : "doc-divergence",
                 "doc lists " + std::to_string(DocErrors.size()) +
                     " error codes, model has " +
                     std::to_string(Errs.size()));
  } else {
    for (size_t I = 0; I != Errs.size(); ++I) {
      if (DocErrors[I].Name != Errs[I].Name ||
          DocErrors[I].Value != Errs[I].Value)
        Diags.report(DiagSeverity::Error, LocAt(DocErrors[I].Line),
                     "doc-divergence",
                     "error code row '" + DocErrors[I].Name + "' (" +
                         std::to_string(DocErrors[I].Value) +
                         ") disagrees with the model's " + Errs[I].Name +
                         " = " + std::to_string(Errs[I].Value));
    }
  }

  // Lifecycle state diff.
  if (DocStates.size() != NumProtoStates) {
    Diags.report(DiagSeverity::Error, ImplLoc,
                 DocStates.empty() ? "doc-parse" : "doc-divergence",
                 "doc lifecycle section names " +
                     std::to_string(DocStates.size()) +
                     " states, model has " +
                     std::to_string(NumProtoStates));
  } else {
    for (unsigned I = 0; I != NumProtoStates; ++I) {
      if (DocStates[I].first !=
          ProtocolModel::stateName(static_cast<ProtoState>(I)))
        Diags.report(DiagSeverity::Error, LocAt(DocStates[I].second),
                     "doc-divergence",
                     "lifecycle state '" + DocStates[I].first +
                         "' disagrees with the model's " +
                         ProtocolModel::stateName(
                             static_cast<ProtoState>(I)));
    }
  }

  // Frame-legality table presence: one row per live state.
  if (!SawLegalityHeader)
    Diags.report(DiagSeverity::Error, ImplLoc, "doc-parse",
                 "frame-legality table (State | Hello | Elements | "
                 "Finish) not found in the doc");
  else if (LegalityRows != 3)
    Diags.report(DiagSeverity::Error, ImplLoc, "doc-divergence",
                 "frame-legality table has " +
                     std::to_string(LegalityRows) +
                     " state rows, expected 3 (AwaitHello, Streaming, "
                     "Draining)");
}

//===----------------------------------------------------------------------===//
// Model-guided adversarial fuzzing
//===----------------------------------------------------------------------===//

namespace {

/// Weighted event choice: biased toward schedules that make progress
/// (handshake, elements, pumps, finish) with a steady trickle of
/// adversarial inputs (malformed frames, corruption, eviction, drain).
ProtoEvent chooseEvent(std::mt19937_64 &Rng, const ProtocolModel &M,
                       const ProtoConfigState &S) {
  std::vector<std::pair<ProtoEvent, uint32_t>> Weights;
  auto Add = [&](ProtoEvent Ev, uint32_t W) {
    if (M.offered(S, Ev))
      Weights.push_back({Ev, W});
  };
  switch (S.St) {
  case ProtoState::AwaitHello:
    Add(ProtoEvent::HelloOk, 40);
    Add(ProtoEvent::HelloBadMagic, 1);
    Add(ProtoEvent::HelloBadVersion, 1);
    Add(ProtoEvent::HelloBadConfig, 1);
    Add(ProtoEvent::HelloMalformed, 1);
    Add(ProtoEvent::ElementsOk, 1);
    Add(ProtoEvent::FinishOk, 1);
    Add(ProtoEvent::PumpOne, 2);
    Add(ProtoEvent::PumpAll, 2);
    Add(ProtoEvent::CorruptZeroLen, 1);
    break;
  case ProtoState::Streaming:
    Add(ProtoEvent::ElementsOk, 40);
    Add(ProtoEvent::PumpOne, 12);
    Add(ProtoEvent::PumpAll, 8);
    Add(ProtoEvent::FinishOk, 6);
    Add(ProtoEvent::HelloOk, 1);
    Add(ProtoEvent::ElementsMalformed, 1);
    Add(ProtoEvent::ElementsOutOfRange, 1);
    Add(ProtoEvent::FinishPayload, 1);
    Add(ProtoEvent::ServerKindFrame, 1);
    Add(ProtoEvent::UnknownKindFrame, 1);
    Add(ProtoEvent::CorruptZeroLen, 1);
    Add(ProtoEvent::CorruptOversized, 1);
    Add(ProtoEvent::Evict, 1);
    Add(ProtoEvent::Drain, 1);
    break;
  case ProtoState::Draining:
    Add(ProtoEvent::PumpOne, 20);
    Add(ProtoEvent::PumpAll, 20);
    Add(ProtoEvent::ElementsOk, 1);
    Add(ProtoEvent::FinishOk, 1);
    Add(ProtoEvent::HelloMalformed, 1);
    Add(ProtoEvent::CorruptZeroLen, 1);
    Add(ProtoEvent::Evict, 1);
    Add(ProtoEvent::Drain, 1);
    break;
  case ProtoState::Done:
  case ProtoState::Failed:
    Add(ProtoEvent::PumpAll, 1); // Absorbed; keeps the driver total.
    break;
  }
  uint64_t Total = 0;
  for (const auto &W : Weights)
    Total += W.second;
  uint64_t Roll = Rng() % Total;
  for (const auto &W : Weights) {
    if (Roll < W.second)
      return W.first;
    Roll -= W.second;
  }
  return Weights.back().first;
}

template <typename T, size_t N>
T pickOne(std::mt19937_64 &Rng, const T (&Choices)[N]) {
  return Choices[Rng() % N];
}

bool runsEqual(const std::vector<StateRun> &A, const std::vector<StateRun> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Begin != B[I].Begin || A[I].Length != B[I].Length ||
        A[I].State != B[I].State)
      return false;
  return true;
}

} // namespace

void opd::fuzzProtocolConformance(const ProtocolFuzzOptions &Options,
                                  DiagnosticEngine &Diags) {
  std::mt19937_64 Rng(Options.Seed);
  unsigned Reported = 0;

  for (unsigned It = 0; It != Options.Iterations && Reported < 10; ++It) {
    ProtocolParams P;
    P.Batch = 1 + static_cast<uint32_t>(Rng() % 6);
    P.HighWatermark = pickOne(Rng, {4u, 6u, 8u, 12u, 16u});
    P.MaxFrameElements = 1 + static_cast<uint32_t>(Rng() % 8);
    ProtocolModel M(P);

    DetectorConfig Config;
    Config.Window.CWSize = pickOne(Rng, {2u, 4u, 8u, 16u});
    Config.Window.TWSize = pickOne(Rng, {2u, 4u, 8u, 16u});
    Config.Window.SkipFactor = P.Batch;
    Config.Window.TWPolicy = static_cast<TWPolicyKind>(Rng() % 2);
    Config.Window.Anchor = static_cast<AnchorKind>(Rng() % 2);
    Config.Window.Resize = static_cast<ResizeKind>(Rng() % 2);
    Config.Model = static_cast<ModelKind>(Rng() % 3);
    Config.TheAnalyzer = static_cast<AnalyzerKind>(Rng() % 3);
    Config.AnalyzerParam = pickOne(Rng, {0.1, 0.3, 0.5, 0.9});
    SiteIndex NumSites = pickOne(Rng, {SiteIndex(3), SiteIndex(8),
                                       SiteIndex(32)});
    uint16_t Flags =
        static_cast<uint16_t>((Rng() % 2 ? HelloWantAnchors : 0) |
                              (Rng() % 2 ? HelloWantProgress : 0));

    ServeLimits Limits;
    Limits.MaxPendingElements = P.HighWatermark;
    LockstepDriver D(M, Limits, Config, NumSites, Flags);

    std::vector<SiteIndex> Accepted;
    StreamedRun Run;
    std::string Failure;
    auto Context = [&] {
      return " (seed=" + std::to_string(Options.Seed) +
             " iteration=" + std::to_string(It) +
             " batch=" + std::to_string(P.Batch) +
             " watermark=" + std::to_string(P.HighWatermark) +
             " schedule: " + renderWitness(D.Schedule) + ")";
    };

    for (unsigned Step = 0;
         Step != Options.MaxSteps && !ProtocolModel::isTerminal(D.S.St);
         ++Step) {
      ProtoEvent Ev = chooseEvent(Rng, M, D.S);
      std::vector<SiteIndex> Elems;
      if (Ev == ProtoEvent::ElementsOk) {
        size_t Count = 1 + Rng() % P.MaxFrameElements;
        for (size_t I = 0; I != Count; ++I)
          Elems.push_back(static_cast<SiteIndex>(Rng() % NumSites));
      }
      ObservedFrames Obs;
      std::string Diff = D.step(Ev, Elems, Obs);
      if (!Diff.empty()) {
        Failure = "ServeSession diverges from the model: " + Diff;
        break;
      }
      if (Ev == ProtoEvent::ElementsOk)
        Accepted.insert(Accepted.end(), Elems.begin(), Elems.end());
      Run.Transitions.insert(Run.Transitions.end(), Obs.Events.begin(),
                             Obs.Events.end());
      if (Obs.Finisheds != 0) {
        Run.GotFinished = true;
        Run.Summary = Obs.Summary;
      }
    }

    if (Failure.empty() && D.S.St == ProtoState::Done) {
      // Data-plane oracle: a completed session must match the offline
      // detector on the accepted element sequence exactly.
      if (!Run.GotFinished) {
        Failure = "session is Done but no Finished summary was observed";
      } else if (Run.Summary.Elements != Accepted.size()) {
        Failure = "Finished.Elements is " +
                  std::to_string(Run.Summary.Elements) + ", client sent " +
                  std::to_string(Accepted.size());
      } else if (!Accepted.empty()) {
        BranchTrace Trace;
        for (SiteIndex I = 0; I != NumSites; ++I)
          Trace.internSite(ProfileElement(I, 0, false));
        for (SiteIndex E : Accepted)
          Trace.appendIndex(E);
        std::unique_ptr<PhaseDetector> Ref = makeDetector(Config, NumSites);
        DetectorRun Reference = runDetector(*Ref, Trace);
        DetectorRun Streamed = streamedToDetectorRun(Run);
        if (!runsEqual(Reference.States.runs(), Streamed.States.runs()))
          Failure = "streamed state runs differ from offline runDetector";
        else if ((Flags & HelloWantAnchors) &&
                 Reference.AnchoredPhases != Streamed.AnchoredPhases)
          Failure = "streamed anchored phases differ from offline "
                    "runDetector";
        else if (Run.Summary.Transitions != Run.Transitions.size())
          Failure = "Finished.Transitions disagrees with the Transition "
                    "frames observed";
      }
    }

    if (!Failure.empty()) {
      Diags.report(DiagSeverity::Error, ImplLoc, "fuzz-divergence",
                   Failure + Context());
      Reported += 1;
    }
  }
}
