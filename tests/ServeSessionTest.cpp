//===- tests/ServeSessionTest.cpp - Session state-machine tests -------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ServeSession is driven here entirely with byte buffers — no sockets —
/// which is the point of its design: the handshake validation, the
/// lifecycle state machine, backpressure watermarks, eviction/drain
/// semantics, and above all the equivalence contract (a session's
/// streamed transitions rebuilt into a DetectorRun must equal offline
/// runDetector() on the same elements, for any wire chunking and any
/// pump interleaving) are all provable without I/O.
///
//===----------------------------------------------------------------------===//

#include "core/DetectorRunner.h"
#include "core/PhaseMonitor.h"
#include "obs/RunTrace.h"
#include "serve/Client.h"
#include "serve/Session.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

using namespace opd;

namespace {

/// A small phase-structured trace shared by the equivalence tests.
const SyntheticTrace &testTrace() {
  static const SyntheticTrace T = [] {
    SyntheticSpec Spec;
    Spec.NumPhases = 6;
    Spec.PhaseLength = 4000;
    Spec.TransitionLength = 600;
    Spec.Seed = 7;
    return generateSynthetic(Spec);
  }();
  return T;
}

DetectorConfig baseConfig() {
  DetectorConfig C;
  C.Window.CWSize = 200;
  C.Window.TWSize = 200;
  C.Window.SkipFactor = 1;
  return C;
}

std::vector<uint8_t> helloBytes(const DetectorConfig &C, SiteIndex NumSites,
                                uint16_t Flags = HelloWantAnchors) {
  HelloMsg M;
  M.Flags = Flags;
  M.NumSites = NumSites;
  M.Config = C;
  std::vector<uint8_t> Bytes;
  appendHello(Bytes, M);
  return Bytes;
}

/// Decodes a session's output bytes into a StreamedRun (events only).
void collectEvents(const std::vector<uint8_t> &Bytes, StreamedRun &Run) {
  FrameReader Reader;
  Reader.feed(Bytes.data(), Bytes.size());
  Frame F;
  while (Reader.next(F) == FrameReader::Status::Frame) {
    switch (F.Kind) {
    case MsgKind::HelloAck:
      ASSERT_TRUE(parseHelloAck(F, Run.Ack));
      break;
    case MsgKind::Transition: {
      TransitionMsg T;
      ASSERT_TRUE(parseTransition(F, T));
      Run.Transitions.push_back(T);
      break;
    }
    case MsgKind::Progress: {
      ProgressMsg P;
      ASSERT_TRUE(parseProgress(F, P));
      EXPECT_GE(P.Ingested, Run.LastProgress);
      Run.LastProgress = P.Ingested;
      break;
    }
    case MsgKind::Finished:
      ASSERT_TRUE(parseFinished(F, Run.Summary));
      Run.GotFinished = true;
      break;
    case MsgKind::Error:
      ASSERT_TRUE(parseError(F, Run.Err));
      Run.GotError = true;
      break;
    default:
      FAIL() << "unexpected frame kind " << unsigned(F.Kind);
    }
  }
  EXPECT_EQ(Reader.buffered(), 0u);
}

void expectRunsEqual(const DetectorRun &Reference, const DetectorRun &Streamed,
                     const std::string &What) {
  ASSERT_EQ(Reference.States.size(), Streamed.States.size()) << What;
  const std::vector<StateRun> &RR = Reference.States.runs();
  const std::vector<StateRun> &SR = Streamed.States.runs();
  ASSERT_EQ(RR.size(), SR.size()) << What;
  for (size_t I = 0; I != RR.size(); ++I) {
    ASSERT_EQ(RR[I].Begin, SR[I].Begin) << What << " run " << I;
    ASSERT_EQ(RR[I].Length, SR[I].Length) << What << " run " << I;
    ASSERT_EQ(RR[I].State, SR[I].State) << What << " run " << I;
  }
  EXPECT_EQ(Reference.DetectedPhases, Streamed.DetectedPhases) << What;
  EXPECT_EQ(Reference.AnchoredPhases, Streamed.AnchoredPhases) << What;
}

/// Feeds \p Elements to a fresh session in one piece with Finish, pumps
/// it to completion, and returns the decoded events.
StreamedRun serveWhole(const DetectorConfig &Config, SiteIndex NumSites,
                       const std::vector<SiteIndex> &Elements) {
  ServeSession Sess(/*Id=*/1, ServeLimits());
  std::vector<uint8_t> Wire = helloBytes(Config, NumSites, HelloWantAnchors);
  appendElements(Wire, Elements.data(), Elements.size());
  appendFinish(Wire);
  EXPECT_TRUE(Sess.feed(Wire.data(), Wire.size()));
  while (Sess.pump()) {
  }
  EXPECT_TRUE(Sess.done());
  std::vector<uint8_t> Out;
  Sess.takeOutput(Out);
  StreamedRun Run;
  collectEvents(Out, Run);
  return Run;
}

/// A hand-written Transition stream over \p Elements elements.
StreamedRun frameStream(
    std::initializer_list<std::pair<uint64_t, PhaseState>> Frames,
    uint64_t Elements) {
  StreamedRun Run;
  for (const auto &[Offset, State] : Frames) {
    TransitionMsg T;
    T.Offset = Offset;
    T.NewState = State;
    Run.Transitions.push_back(T);
  }
  Run.GotFinished = true;
  Run.Summary.Elements = Elements;
  Run.Summary.Transitions = Run.Transitions.size();
  return Run;
}

/// A malformed stream must rebuild into a run no offline run over
/// Summary.Elements elements can equal.
void expectMalformed(const StreamedRun &Run, const std::string &What) {
  DetectorRun R = streamedToDetectorRun(Run);
  EXPECT_NE(R.States.size(), Run.Summary.Elements) << What;
  EXPECT_EQ(R.States.size(), Run.Summary.Elements + 1) << What;
  EXPECT_TRUE(R.DetectedPhases.empty()) << What;
  EXPECT_TRUE(R.AnchoredPhases.empty()) << What;
}

/// Streams the test trace through a session with the given wire chunking
/// and pump budget, then requires the rebuilt run to equal runDetector.
void runEquivalence(const DetectorConfig &Config, size_t ElementsPerFrame,
                    size_t FeedBytes, size_t PumpBudget,
                    const std::string &What) {
  const BranchTrace &Trace = testTrace().Trace;
  ServeSession Sess(/*Id=*/1, ServeLimits());

  // Encode the whole client side of the conversation...
  std::vector<uint8_t> Wire =
      helloBytes(Config, Trace.numSites(), HelloWantAnchors);
  const std::vector<SiteIndex> &E = Trace.elements();
  for (size_t Pos = 0; Pos < E.size(); Pos += ElementsPerFrame)
    appendElements(Wire, E.data() + Pos,
                   std::min(ElementsPerFrame, E.size() - Pos));
  appendFinish(Wire);

  // ...then deliver it in FeedBytes-sized chunks with pumps interleaved.
  std::vector<uint8_t> Out;
  for (size_t Pos = 0; Pos < Wire.size(); Pos += FeedBytes) {
    ASSERT_TRUE(
        Sess.feed(Wire.data() + Pos, std::min(FeedBytes, Wire.size() - Pos)))
        << What;
    while (Sess.pump(PumpBudget)) {
    }
    if (Sess.hasOutput())
      Sess.takeOutput(Out);
  }
  while (Sess.pump(PumpBudget)) {
  }
  Sess.takeOutput(Out);
  EXPECT_TRUE(Sess.done()) << What;

  StreamedRun Run;
  collectEvents(Out, Run);
  ASSERT_TRUE(Run.GotFinished) << What;
  EXPECT_FALSE(Run.GotError) << What;
  EXPECT_EQ(Run.Summary.Elements, E.size()) << What;
  EXPECT_EQ(Run.Ack.BatchSize, Config.Window.SkipFactor) << What;

  std::unique_ptr<PhaseDetector> Ref = makeDetector(Config, Trace.numSites());
  DetectorRun Reference = runDetector(*Ref, Trace);
  DetectorRun Streamed = streamedToDetectorRun(Run);
  expectRunsEqual(Reference, Streamed, What);
  EXPECT_EQ(Run.Summary.Transitions, Run.Transitions.size()) << What;
}

TEST(ServeSession, EquivalenceSkipOne) {
  runEquivalence(baseConfig(), 4096, 1u << 14, SIZE_MAX, "skip=1");
}

TEST(ServeSession, EquivalenceSkipHundredSmallFrames) {
  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 100;
  // 37-element frames never align with the 100-element batch, and the
  // 1 KiB feed splits frames across feed() calls.
  runEquivalence(C, 37, 1u << 10, SIZE_MAX, "skip=100 frames=37");
}

TEST(ServeSession, EquivalenceSkipLargerThanTraceTail) {
  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 7000; // Forces a short trailing batch at Finish.
  runEquivalence(C, 4096, 1u << 14, SIZE_MAX, "skip=7000");
}

TEST(ServeSession, EquivalenceAdaptiveWeightedBoundedPumps) {
  DetectorConfig C = baseConfig();
  C.Window.TWPolicy = TWPolicyKind::Adaptive;
  C.Model = ModelKind::WeightedSet;
  C.TheAnalyzer = AnalyzerKind::Average;
  C.AnalyzerParam = 0.05;
  C.Window.SkipFactor = 13;
  // A tiny pump budget forces many partial pumps per feed.
  runEquivalence(C, 501, 1u << 12, 64, "adaptive weighted pump=64");
}

TEST(ServeSession, MalformedStreamBackwardsOffset) {
  const PhaseState P = PhaseState::InPhase, T = PhaseState::Transition;
  expectMalformed(frameStream({{100, P}, {200, T}, {150, P}}, 300),
                  "P@100 T@200 P@150");
  expectMalformed(frameStream({{100, P}, {100, T}}, 300), "P@100 T@100");
}

TEST(ServeSession, MalformedStreamRepeatedState) {
  const PhaseState P = PhaseState::InPhase, T = PhaseState::Transition;
  expectMalformed(frameStream({{100, P}, {200, P}}, 300), "P@100 P@200");
  expectMalformed(frameStream({{50, T}}, 300), "leading T@50");
  expectMalformed(frameStream({{100, P}, {200, T}, {250, T}}, 300),
                  "P@100 T@200 T@250");
}

TEST(ServeSession, MalformedStreamOffsetPastElements) {
  const PhaseState P = PhaseState::InPhase, T = PhaseState::Transition;
  expectMalformed(frameStream({{100, P}, {300, T}}, 300), "T@300 of 300");
  expectMalformed(frameStream({{400, P}, {500, T}}, 300), "P@400 of 300");
  expectMalformed(frameStream({{0, P}}, 0), "P@0 of 0");

  // In bounds, the same shape is well-formed.
  DetectorRun R = streamedToDetectorRun(frameStream({{0, P}, {299, T}}, 300));
  EXPECT_EQ(R.States.size(), 300u);
  EXPECT_EQ(R.DetectedPhases, (std::vector<PhaseInterval>{{0, 299}}));
}

TEST(PhaseEdgesTest, SameEventStreamFromRunnerMonitorAndSession) {
  // One (begin, raw anchor, end) list per producer: the observed runner,
  // PhaseMonitor's callbacks, and a session's raw Transition frames. The
  // trace ends in P, so every producer must close the last phase at the
  // stream length; skip 100 also ends in a short tail batch.
  struct PhaseEvent {
    uint64_t Begin, Anchor, End;
    bool operator==(const PhaseEvent &) const = default;
  };
  // A long tail cycling over 8 sites keeps the trace in P to its end.
  BranchTrace Trace = testTrace().Trace;
  for (unsigned I = 0; I != 6001; ++I)
    Trace.appendIndex(Trace.elements()[I % 8]);
  const std::vector<SiteIndex> &Elements = Trace.elements();
  ASSERT_NE(Elements.size() % 100, 0u);

  for (uint32_t Skip : {1u, 100u}) {
    const std::string What = "skip=" + std::to_string(Skip);
    DetectorConfig C = baseConfig();
    C.Window.TWPolicy = TWPolicyKind::Adaptive;
    C.Window.Anchor = AnchorKind::LeftmostNonNoisy;
    C.Window.SkipFactor = Skip;

    std::unique_ptr<PhaseDetector> D = makeDetector(C, Trace.numSites());
    RunTrace Observed;
    DetectorRun Run = runDetector(*D, Trace, &Observed);
    std::vector<PhaseEvent> FromRunner;
    for (const TraceEvent &E : Observed.events()) {
      if (E.Kind == TraceEventKind::PhaseBegin)
        FromRunner.push_back({E.Offset, E.A, 0});
      else if (E.Kind == TraceEventKind::PhaseEnd)
        FromRunner.back().End = E.Offset;
    }

    PhaseMonitor Monitor(C, Trace.numSites());
    std::vector<PhaseEvent> FromMonitor;
    Monitor.onPhaseStart([&](const PhaseStartEvent &E) {
      FromMonitor.push_back({E.DetectedAt, E.EstimatedStart, 0});
    });
    Monitor.onPhaseEnd([&](const PhaseEndEvent &E) {
      ASSERT_FALSE(FromMonitor.empty());
      EXPECT_EQ(FromMonitor.back().Begin, E.Start) << What;
      FromMonitor.back().End = E.End;
    });
    Monitor.addElements(Elements.data(), Elements.size());
    Monitor.finish();

    StreamedRun Served = serveWhole(C, Trace.numSites(), Elements);
    std::vector<PhaseEvent> FromSession;
    for (const TransitionMsg &T : Served.Transitions) {
      if (T.NewState == PhaseState::InPhase) {
        EXPECT_TRUE(T.HasAnchor) << What;
        FromSession.push_back({T.Offset, T.Anchor, 0});
      } else {
        ASSERT_FALSE(FromSession.empty()) << What;
        FromSession.back().End = T.Offset;
      }
    }
    ASSERT_TRUE(Served.GotFinished) << What;
    ASSERT_EQ(Served.Summary.FinalState, PhaseState::InPhase) << What;
    FromSession.back().End = Served.Summary.Elements;

    ASSERT_FALSE(Run.DetectedPhases.empty()) << What;
    EXPECT_EQ(Run.DetectedPhases.back().End, Elements.size()) << What;
    ASSERT_EQ(FromRunner.size(), Run.DetectedPhases.size()) << What;
    for (size_t I = 0; I != FromRunner.size(); ++I) {
      EXPECT_EQ(FromRunner[I].Begin, Run.DetectedPhases[I].Begin) << What;
      EXPECT_EQ(FromRunner[I].End, Run.DetectedPhases[I].End) << What;
    }
    EXPECT_TRUE(FromMonitor == FromRunner) << What;
    EXPECT_TRUE(FromSession == FromRunner) << What;
    // Anchoring moves some starts, so a producer that reported the
    // detection offset as its anchor would fail the comparisons above.
    bool AnchorMoved = false;
    for (const PhaseEvent &E : FromRunner)
      AnchorMoved |= E.Anchor != E.Begin;
    EXPECT_TRUE(AnchorMoved) << What;
  }
}

TEST(ServeSession, HandshakeRejectsInvalidConfigs) {
  const SiteIndex Sites = 100;

  struct Case {
    const char *Name;
    DetectorConfig Config;
    SiteIndex NumSites;
    ServeError Expect;
  };
  DetectorConfig ZeroCW = baseConfig();
  ZeroCW.Window.CWSize = 0;
  DetectorConfig ZeroSkip = baseConfig();
  ZeroSkip.Window.SkipFactor = 0;
  DetectorConfig HugeTW = baseConfig();
  HugeTW.Window.TWSize = (1u << 20) + 1;
  DetectorConfig NanParam = baseConfig();
  NanParam.AnalyzerParam = std::numeric_limits<double>::quiet_NaN();

  const Case Cases[] = {
      {"zero cw", ZeroCW, Sites, ServeError::BadConfig},
      {"zero skip", ZeroSkip, Sites, ServeError::BadConfig},
      {"huge tw", HugeTW, Sites, ServeError::BadConfig},
      {"nan param", NanParam, Sites, ServeError::BadConfig},
      {"zero sites", baseConfig(), 0, ServeError::BadConfig},
  };
  uint64_t Id = 10;
  for (const Case &C : Cases) {
    ServeSession Sess(Id++, ServeLimits());
    std::vector<uint8_t> Hello = helloBytes(C.Config, C.NumSites);
    EXPECT_FALSE(Sess.feed(Hello.data(), Hello.size())) << C.Name;
    EXPECT_TRUE(Sess.failed()) << C.Name;
    EXPECT_EQ(Sess.error(), C.Expect) << C.Name;
    EXPECT_FALSE(Sess.handshakeAccepted()) << C.Name;

    StreamedRun Run;
    std::vector<uint8_t> Out;
    Sess.takeOutput(Out);
    collectEvents(Out, Run);
    ASSERT_TRUE(Run.GotError) << C.Name;
    EXPECT_EQ(Run.Err.Code, C.Expect) << C.Name;
    EXPECT_FALSE(Run.Err.Message.empty()) << C.Name;
  }
}

TEST(ServeSession, ElementsBeforeHandshakeFails) {
  ServeSession Sess(1, ServeLimits());
  SiteIndex E[] = {1, 2, 3};
  std::vector<uint8_t> Wire;
  appendElements(Wire, E, 3);
  EXPECT_FALSE(Sess.feed(Wire.data(), Wire.size()));
  EXPECT_EQ(Sess.error(), ServeError::BadState);
}

TEST(ServeSession, OutOfRangeElementFails) {
  ServeSession Sess(1, ServeLimits());
  std::vector<uint8_t> Wire = helloBytes(baseConfig(), /*NumSites=*/10);
  SiteIndex E[] = {1, 2, 10}; // 10 is outside [0, 10).
  appendElements(Wire, E, 3);
  EXPECT_FALSE(Sess.feed(Wire.data(), Wire.size()));
  EXPECT_EQ(Sess.error(), ServeError::SiteRange);
}

TEST(ServeSession, DuplicateHelloAndFinishFail) {
  {
    ServeSession Sess(1, ServeLimits());
    std::vector<uint8_t> Wire = helloBytes(baseConfig(), 10);
    ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));
    EXPECT_FALSE(Sess.feed(Wire.data(), Wire.size()));
    EXPECT_EQ(Sess.error(), ServeError::BadState);
  }
  {
    ServeSession Sess(2, ServeLimits());
    std::vector<uint8_t> Wire = helloBytes(baseConfig(), 10);
    appendFinish(Wire);
    appendFinish(Wire);
    EXPECT_FALSE(Sess.feed(Wire.data(), Wire.size()));
    EXPECT_EQ(Sess.error(), ServeError::BadState);
  }
}

TEST(ServeSession, BackpressureWatermarks) {
  ServeLimits Limits;
  Limits.MaxPendingElements = 1000;
  ServeSession Sess(1, Limits);

  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 10;
  std::vector<uint8_t> Wire = helloBytes(C, /*NumSites=*/4);
  std::vector<SiteIndex> E(1200, 1);
  appendElements(Wire, E.data(), E.size());
  ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));

  EXPECT_GE(Sess.pendingElements(), Limits.MaxPendingElements);
  EXPECT_TRUE(Sess.ingressSaturated());
  EXPECT_FALSE(Sess.ingressRelieved());

  while (Sess.pump(100))
    if (Sess.ingressRelieved())
      break;
  EXPECT_TRUE(Sess.ingressRelieved());
  EXPECT_FALSE(Sess.ingressSaturated());
}

TEST(ServeSession, EvictionDeliversDecidableTransitionsOnly) {
  const BranchTrace &Trace = testTrace().Trace;
  ServeSession Sess(1, ServeLimits());

  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 100;
  std::vector<uint8_t> Wire = helloBytes(C, Trace.numSites());
  // 10 full batches plus a 50-element tail the eviction must NOT decide.
  size_t N = 1050;
  appendElements(Wire, Trace.elements().data(), N);
  ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));

  Sess.shutdown(ServeError::Evicted);
  EXPECT_TRUE(Sess.failed());
  EXPECT_EQ(Sess.error(), ServeError::Evicted);
  // All full batches were decided; the sub-batch tail was not.
  EXPECT_EQ(Sess.elementsProcessed(), 1000u);

  std::vector<uint8_t> Out;
  Sess.takeOutput(Out);
  StreamedRun Run;
  collectEvents(Out, Run);
  EXPECT_TRUE(Run.GotError);
  EXPECT_EQ(Run.Err.Code, ServeError::Evicted);
  EXPECT_FALSE(Run.GotFinished);
}

TEST(ServeSession, ShutdownDrainsPendingTransitions) {
  const BranchTrace &Trace = testTrace().Trace;
  ServeSession Sess(1, ServeLimits());

  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 1; // Decisions (and flips) at every element.
  size_t N = 3000;
  std::vector<uint8_t> Wire = helloBytes(C, Trace.numSites());
  appendElements(Wire, Trace.elements().data(), N);
  ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));
  // No pump ran yet: every transition is still pending in the backlog.
  EXPECT_EQ(Sess.pendingElements(), N);

  Sess.shutdown(ServeError::Shutdown);
  EXPECT_TRUE(Sess.failed());
  EXPECT_EQ(Sess.elementsProcessed(), N);

  std::vector<uint8_t> Out;
  Sess.takeOutput(Out);
  StreamedRun Run;
  collectEvents(Out, Run);
  EXPECT_EQ(Run.Err.Code, ServeError::Shutdown);

  // The delivered transitions match the offline detector on the same
  // prefix (same states at the same offsets — the drain guarantee).
  std::unique_ptr<PhaseDetector> Ref = makeDetector(C, Trace.numSites());
  StateSequence States;
  std::vector<uint64_t> Anchors;
  Ref->reset();
  Ref->consumeTrace(Trace.elements().data(), N, States, Anchors);
  StreamedRun Full = Run;
  Full.Summary.Elements = N; // Rebuild over the drained prefix length.
  DetectorRun Streamed = streamedToDetectorRun(Full);
  ASSERT_EQ(States.size(), Streamed.States.size());
  const std::vector<StateRun> &RR = States.runs();
  const std::vector<StateRun> &SR = Streamed.States.runs();
  ASSERT_EQ(RR.size(), SR.size());
  for (size_t I = 0; I != RR.size(); ++I) {
    EXPECT_EQ(RR[I].Begin, SR[I].Begin) << I;
    EXPECT_EQ(RR[I].Length, SR[I].Length) << I;
    EXPECT_EQ(RR[I].State, SR[I].State) << I;
  }
}

TEST(ServeSession, ShutdownCompletesDrainingSession) {
  const BranchTrace &Trace = testTrace().Trace;
  ServeSession Sess(1, ServeLimits());

  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 100;
  std::vector<uint8_t> Wire = helloBytes(C, Trace.numSites());
  appendElements(Wire, Trace.elements().data(), 250);
  appendFinish(Wire);
  ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));

  // The client already finished; a server drain completes the session
  // normally (Finished, not Error).
  Sess.shutdown(ServeError::Shutdown);
  EXPECT_TRUE(Sess.done());
  EXPECT_EQ(Sess.elementsProcessed(), 250u);

  std::vector<uint8_t> Out;
  Sess.takeOutput(Out);
  StreamedRun Run;
  collectEvents(Out, Run);
  EXPECT_TRUE(Run.GotFinished);
  EXPECT_FALSE(Run.GotError);
  EXPECT_EQ(Run.Summary.Elements, 250u);
}

TEST(ServeSession, ProgressTracksIngestNotDecisions) {
  ServeSession Sess(1, ServeLimits());

  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 1000; // Far larger than what we send.
  std::vector<uint8_t> Wire =
      helloBytes(C, /*NumSites=*/4, HelloWantProgress);
  std::vector<SiteIndex> E(300, 2);
  appendElements(Wire, E.data(), E.size());
  ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));
  while (Sess.pump()) {
  }

  std::vector<uint8_t> Out;
  Sess.takeOutput(Out);
  StreamedRun Run;
  collectEvents(Out, Run);
  // Nothing was decidable (300 < 1000), but the ingest ack still moved:
  // that is what keeps window-based clients from deadlocking when the
  // skip factor exceeds their frame size.
  EXPECT_EQ(Run.LastProgress, 300u);
  EXPECT_EQ(Sess.elementsProcessed(), 0u);
}

TEST(ServeSession, BackToBackSessionsOfDifferentShapesMatchOffline) {
  const BranchTrace &Trace = testTrace().Trace;
  struct Round {
    ModelKind Model;
    TWPolicyKind Policy;
    AnalyzerKind Analyzer;
    double Param;
    uint32_t Skip;
    SiteIndex ExtraSites;
  };
  // Each session gets its own detector, so no round may see state from
  // the one before, whatever its shape or site-space size.
  const Round Rounds[] = {
      {ModelKind::WeightedSet, TWPolicyKind::Constant, AnalyzerKind::Threshold,
       0.6, 50, 0},
      {ModelKind::UnweightedSet, TWPolicyKind::Adaptive,
       AnalyzerKind::Average, 0.3, 1, 1000},
      {ModelKind::ManhattanBBV, TWPolicyKind::Adaptive,
       AnalyzerKind::Hysteresis, 0.6, 7, 17},
  };
  uint64_t Id = 1;
  for (const Round &R : Rounds) {
    DetectorConfig C = baseConfig();
    C.Model = R.Model;
    C.Window.TWPolicy = R.Policy;
    C.Window.SkipFactor = R.Skip;
    C.TheAnalyzer = R.Analyzer;
    C.AnalyzerParam = R.Param;
    SiteIndex Sites = Trace.numSites() + R.ExtraSites;
    std::unique_ptr<PhaseDetector> Ref = makeDetector(C, Sites);
    DetectorRun Reference = runDetector(*Ref, Trace);

    ServeSession Sess(Id, ServeLimits());
    std::vector<uint8_t> Wire = helloBytes(C, Sites, HelloWantAnchors);
    appendElements(Wire, Trace.elements().data(), Trace.size());
    appendFinish(Wire);
    ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));
    EXPECT_TRUE(Sess.handshakeAccepted());
    while (Sess.pump()) {
    }
    ASSERT_TRUE(Sess.done());

    std::vector<uint8_t> Out;
    Sess.takeOutput(Out);
    StreamedRun Run;
    collectEvents(Out, Run);
    ASSERT_TRUE(Run.GotFinished);
    expectRunsEqual(Reference, streamedToDetectorRun(Run),
                    "session " + std::to_string(Id));
    ++Id;
  }
}

} // namespace
