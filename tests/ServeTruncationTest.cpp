//===- tests/ServeTruncationTest.cpp - Short-read framing tests -----------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// Truncation at every field boundary, one test per frame kind: a frame
// whose payload stops at any interior field boundary must be rejected
// by its parser (server→client kinds) or fail the session with
// `bad-frame` (client→server kinds), while a partially *delivered*
// frame — the stream cut inside the header or payload — must leave the
// receiver waiting for more bytes with no state change.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "serve/Session.h"

#include "gtest/gtest.h"

#include <vector>

using namespace opd;

namespace {

std::vector<uint8_t> helloBytes(uint16_t Flags = 0, SiteIndex NumSites = 4) {
  HelloMsg M;
  M.Flags = Flags;
  M.NumSites = NumSites;
  M.Config.Window.CWSize = 4;
  M.Config.Window.TWSize = 4;
  M.Config.Window.SkipFactor = 2;
  std::vector<uint8_t> Out;
  appendHello(Out, M);
  return Out;
}

/// A frame of kind \p Kind carrying the given payload bytes.
std::vector<uint8_t> frameWithPayload(uint8_t Kind,
                                      const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> Out;
  uint32_t Len = static_cast<uint32_t>(Payload.size()) + 1;
  Out.push_back(static_cast<uint8_t>(Len));
  Out.push_back(static_cast<uint8_t>(Len >> 8));
  Out.push_back(static_cast<uint8_t>(Len >> 16));
  Out.push_back(static_cast<uint8_t>(Len >> 24));
  Out.push_back(Kind);
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

/// Feeds a complete frame of \p Kind whose payload is the first
/// \p Boundary bytes of \p Full and expects the session to fail with
/// `bad-frame`.
void expectPayloadTruncationFails(uint8_t Kind,
                                  const std::vector<uint8_t> &Full,
                                  size_t Boundary, bool HandshakeFirst) {
  ServeLimits Limits;
  ServeSession Sess(1, Limits);
  if (HandshakeFirst) {
    std::vector<uint8_t> Hello = helloBytes();
    ASSERT_TRUE(Sess.feed(Hello.data(), Hello.size()));
    ASSERT_EQ(Sess.state(), ServeSession::State::Streaming);
  }
  std::vector<uint8_t> Payload(Full.begin(), Full.begin() + Boundary);
  std::vector<uint8_t> Bytes = frameWithPayload(Kind, Payload);
  Sess.feed(Bytes.data(), Bytes.size());
  EXPECT_EQ(Sess.state(), ServeSession::State::Failed)
      << "payload truncated at byte " << Boundary << " was accepted";
  EXPECT_EQ(Sess.error(), ServeError::BadFrame)
      << "payload truncated at byte " << Boundary;
}

/// Extracts the payload of the single frame in \p Bytes.
std::vector<uint8_t> payloadOf(const std::vector<uint8_t> &Bytes) {
  return std::vector<uint8_t>(Bytes.begin() + 5, Bytes.end());
}

/// Expects \p Parse to reject every proper field-boundary prefix of
/// \p Payload and accept the full payload.
template <typename ParseFn>
void expectParserBoundaries(MsgKind Kind, const std::vector<uint8_t> &Payload,
                            const std::vector<size_t> &Boundaries,
                            ParseFn Parse) {
  for (size_t B : Boundaries) {
    ASSERT_LT(B, Payload.size());
    Frame F;
    F.Kind = Kind;
    F.Payload = Payload.data();
    F.Len = B;
    EXPECT_FALSE(Parse(F)) << "payload truncated at byte " << B
                           << " was accepted";
  }
  Frame F;
  F.Kind = Kind;
  F.Payload = Payload.data();
  F.Len = Payload.size();
  EXPECT_TRUE(Parse(F)) << "full payload rejected";
}

//===----------------------------------------------------------------------===//
// Partial delivery: a cut stream is not an error
//===----------------------------------------------------------------------===//

TEST(ServeTruncation, PartialDeliveryNeverFailsTheSession) {
  // Deliver a valid handshake one byte at a time: the session must wait
  // at every prefix (header and payload alike) and accept at the end.
  std::vector<uint8_t> Hello = helloBytes();
  ServeLimits Limits;
  ServeSession Sess(1, Limits);
  for (size_t I = 0; I != Hello.size(); ++I) {
    ASSERT_TRUE(Sess.feed(&Hello[I], 1));
    if (I + 1 != Hello.size()) {
      ASSERT_EQ(Sess.state(), ServeSession::State::AwaitHello)
          << "prefix of " << (I + 1) << " bytes changed the state";
    }
  }
  EXPECT_EQ(Sess.state(), ServeSession::State::Streaming);
}

TEST(ServeTruncation, FrameReaderWaitsAtEveryHeaderBoundary) {
  std::vector<uint8_t> Hello = helloBytes();
  for (size_t Prefix = 0; Prefix != 5; ++Prefix) {
    FrameReader R;
    R.feed(Hello.data(), Prefix);
    Frame F;
    EXPECT_EQ(R.next(F), FrameReader::Status::NeedMore)
        << "header prefix of " << Prefix << " bytes";
  }
}

//===----------------------------------------------------------------------===//
// Client→server kinds: truncated payloads fail the session
//===----------------------------------------------------------------------===//

TEST(ServeTruncation, HelloPayloadBoundaries) {
  // Field boundaries of the 37-byte handshake payload: magic, version,
  // flags, NumSites, CWSize, TWSize, SkipFactor, the five enum bytes,
  // and one byte short of the trailing f64.
  std::vector<uint8_t> Full = payloadOf(helloBytes());
  ASSERT_EQ(Full.size(), 37u);
  for (size_t B : {size_t(0), size_t(4), size_t(6), size_t(8), size_t(12),
                   size_t(16), size_t(20), size_t(24), size_t(25),
                   size_t(26), size_t(27), size_t(28), size_t(29),
                   size_t(36)})
    expectPayloadTruncationFails(uint8_t(MsgKind::Hello), Full, B,
                                 /*HandshakeFirst=*/false);
}

TEST(ServeTruncation, ElementsPayloadBoundaries) {
  SiteIndex Elems[2] = {1, 2};
  std::vector<uint8_t> Bytes;
  appendElements(Bytes, Elems, 2);
  std::vector<uint8_t> Full = payloadOf(Bytes);
  ASSERT_EQ(Full.size(), 12u); // count + 2 elements
  // Inside the count, after the count, and mid-element. Every prefix is
  // a count/length mismatch.
  for (size_t B : {size_t(0), size_t(3), size_t(4), size_t(6), size_t(8),
                   size_t(11)})
    expectPayloadTruncationFails(uint8_t(MsgKind::Elements), Full, B,
                                 /*HandshakeFirst=*/true);
}

TEST(ServeTruncation, ElementsCountMismatchFails) {
  // A structurally complete payload whose count disagrees with its
  // length in either direction.
  ServeLimits Limits;
  for (uint32_t Claim : {3u, 1u, 0u}) {
    ServeSession Sess(1, Limits);
    std::vector<uint8_t> Hello = helloBytes();
    ASSERT_TRUE(Sess.feed(Hello.data(), Hello.size()));
    std::vector<uint8_t> Payload;
    for (unsigned I = 0; I != 4; ++I)
      Payload.push_back(static_cast<uint8_t>(Claim >> (8 * I)));
    Payload.insert(Payload.end(), 8, 0); // Two real elements.
    std::vector<uint8_t> Bytes =
        frameWithPayload(uint8_t(MsgKind::Elements), Payload);
    Sess.feed(Bytes.data(), Bytes.size());
    EXPECT_EQ(Sess.state(), ServeSession::State::Failed)
        << "claimed count " << Claim;
    EXPECT_EQ(Sess.error(), ServeError::BadFrame)
        << "claimed count " << Claim;
  }
}

TEST(ServeTruncation, FinishPayloadMustBeEmpty) {
  // Finish's only boundary is zero: any payload byte is structural
  // garbage.
  ServeLimits Limits;
  ServeSession Sess(1, Limits);
  std::vector<uint8_t> Hello = helloBytes();
  ASSERT_TRUE(Sess.feed(Hello.data(), Hello.size()));
  std::vector<uint8_t> Bytes =
      frameWithPayload(uint8_t(MsgKind::Finish), {0});
  Sess.feed(Bytes.data(), Bytes.size());
  EXPECT_EQ(Sess.state(), ServeSession::State::Failed);
  EXPECT_EQ(Sess.error(), ServeError::BadFrame);
}

//===----------------------------------------------------------------------===//
// Server→client kinds: truncated payloads are rejected by the parsers
//===----------------------------------------------------------------------===//

TEST(ServeTruncation, HelloAckPayloadBoundaries) {
  HelloAckMsg M;
  M.SessionId = 42;
  M.BatchSize = 2;
  M.MaxBatch = 8;
  std::vector<uint8_t> Bytes;
  appendHelloAck(Bytes, M);
  std::vector<uint8_t> Payload = payloadOf(Bytes);
  ASSERT_EQ(Payload.size(), 16u); // id, batch, max-batch
  expectParserBoundaries(MsgKind::HelloAck, Payload, {0, 8, 12},
                         [](const Frame &F) {
                           HelloAckMsg Out;
                           return parseHelloAck(F, Out);
                         });
}

TEST(ServeTruncation, TransitionPayloadBoundaries) {
  TransitionMsg M;
  M.Offset = 100;
  M.NewState = PhaseState::InPhase;
  M.HasAnchor = true;
  M.Anchor = 90;
  std::vector<uint8_t> Bytes;
  appendTransition(Bytes, M);
  std::vector<uint8_t> Payload = payloadOf(Bytes);
  ASSERT_EQ(Payload.size(), 18u); // offset, state, has-anchor, anchor
  expectParserBoundaries(MsgKind::Transition, Payload, {0, 8, 9, 10, 17},
                         [](const Frame &F) {
                           TransitionMsg Out;
                           return parseTransition(F, Out);
                         });
}

TEST(ServeTruncation, ProgressPayloadBoundaries) {
  ProgressMsg M;
  M.Ingested = 1000;
  std::vector<uint8_t> Bytes;
  appendProgress(Bytes, M);
  std::vector<uint8_t> Payload = payloadOf(Bytes);
  ASSERT_EQ(Payload.size(), 8u); // ingested
  expectParserBoundaries(MsgKind::Progress, Payload, {0, 4, 7},
                         [](const Frame &F) {
                           ProgressMsg Out;
                           return parseProgress(F, Out);
                         });
}

TEST(ServeTruncation, FinishedPayloadBoundaries) {
  FinishedMsg M;
  M.Elements = 10;
  M.Transitions = 2;
  M.FinalState = PhaseState::InPhase;
  std::vector<uint8_t> Bytes;
  appendFinished(Bytes, M);
  std::vector<uint8_t> Payload = payloadOf(Bytes);
  ASSERT_EQ(Payload.size(), 17u); // elements, transitions, final state
  expectParserBoundaries(MsgKind::Finished, Payload, {0, 8, 16},
                         [](const Frame &F) {
                           FinishedMsg Out;
                           return parseFinished(F, Out);
                         });
}

TEST(ServeTruncation, ErrorPayloadBoundaries) {
  std::vector<uint8_t> Bytes;
  appendError(Bytes, ServeError::BadFrame, "boom");
  std::vector<uint8_t> Payload = payloadOf(Bytes);
  ASSERT_EQ(Payload.size(), 12u); // code, reserved, msg-len, "boom"
  // Boundaries inside the fixed header and inside the message text (a
  // truncated message is a MsgLen mismatch).
  expectParserBoundaries(MsgKind::Error, Payload, {0, 2, 4, 7, 8, 11},
                         [](const Frame &F) {
                           ErrorMsg Out;
                           return parseError(F, Out);
                         });
}

} // namespace
