//===- obs/RunTrace.cpp - Materialized detector-run timelines ----------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "obs/RunTrace.h"

#include <cassert>

using namespace opd;

//===----------------------------------------------------------------------===//
// CountingObserver
//===----------------------------------------------------------------------===//

void CountingObserver::onRunBegin(uint64_t TraceSize, uint64_t BatchSize) {
  (void)TraceSize;
  (void)BatchSize;
}

void CountingObserver::onRunEnd(uint64_t Consumed) {
  Counters.Elements = Consumed;
}

void CountingObserver::onEvaluation(uint64_t Offset, double Similarity,
                                    PhaseState Decision, double Confidence) {
  (void)Offset;
  (void)Similarity;
  (void)Decision;
  (void)Confidence;
  ++Counters.Evaluations;
}

void CountingObserver::onAnchor(uint64_t Offset, AnchorKind Kind,
                                uint64_t AnchorOffset) {
  (void)Offset;
  (void)Kind;
  (void)AnchorOffset;
  ++Counters.Anchors;
}

void CountingObserver::onWindowResize(uint64_t Offset, ResizeKind Kind,
                                      uint64_t TWLength, uint64_t CWLength) {
  (void)Offset;
  (void)Kind;
  (void)TWLength;
  (void)CWLength;
  ++Counters.WindowResizes;
}

void CountingObserver::onWindowFlush(uint64_t Offset, uint64_t SeedLength) {
  (void)Offset;
  (void)SeedLength;
  ++Counters.WindowFlushes;
}

void CountingObserver::onPhaseBegin(uint64_t Offset,
                                    uint64_t AnchorEstimate) {
  ++Counters.PhasesOpened;
  if (AnchorEstimate != Offset)
    ++Counters.AnchorCorrections;
}

void CountingObserver::onPhaseEnd(uint64_t Offset) {
  (void)Offset;
  ++Counters.PhasesClosed;
}

//===----------------------------------------------------------------------===//
// TraceEvent kinds
//===----------------------------------------------------------------------===//

const char *opd::traceEventKindName(TraceEventKind Kind) {
  switch (Kind) {
  case TraceEventKind::RunBegin:
    return "run_begin";
  case TraceEventKind::RunEnd:
    return "run_end";
  case TraceEventKind::Evaluation:
    return "eval";
  case TraceEventKind::Anchor:
    return "anchor";
  case TraceEventKind::WindowResize:
    return "resize";
  case TraceEventKind::WindowFlush:
    return "flush";
  case TraceEventKind::PhaseBegin:
    return "phase_begin";
  case TraceEventKind::PhaseEnd:
    return "phase_end";
  }
  return "unknown";
}

bool opd::traceEventKindFromName(const std::string &Name,
                                 TraceEventKind &Kind) {
  static const TraceEventKind All[] = {
      TraceEventKind::RunBegin,     TraceEventKind::RunEnd,
      TraceEventKind::Evaluation,   TraceEventKind::Anchor,
      TraceEventKind::WindowResize, TraceEventKind::WindowFlush,
      TraceEventKind::PhaseBegin,   TraceEventKind::PhaseEnd,
  };
  for (TraceEventKind K : All) {
    if (Name == traceEventKindName(K)) {
      Kind = K;
      return true;
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// RunTrace
//===----------------------------------------------------------------------===//

void RunTrace::onRunBegin(uint64_t NewTraceSize, uint64_t NewBatchSize) {
  CountingObserver::onRunBegin(NewTraceSize, NewBatchSize);
  TraceSize = NewTraceSize;
  BatchSize = NewBatchSize;
  TraceEvent E;
  E.Kind = TraceEventKind::RunBegin;
  E.A = NewTraceSize;
  E.B = NewBatchSize;
  record(E);
}

void RunTrace::onRunEnd(uint64_t Consumed) {
  CountingObserver::onRunEnd(Consumed);
  TraceEvent E;
  E.Kind = TraceEventKind::RunEnd;
  E.Offset = Consumed;
  record(E);
}

void RunTrace::onEvaluation(uint64_t Offset, double Similarity,
                            PhaseState Decision, double Confidence) {
  CountingObserver::onEvaluation(Offset, Similarity, Decision, Confidence);
  TraceEvent E;
  E.Kind = TraceEventKind::Evaluation;
  E.Offset = Offset;
  E.Similarity = Similarity;
  E.Confidence = Confidence;
  E.Decision = Decision;
  record(E);
}

void RunTrace::onAnchor(uint64_t Offset, AnchorKind Kind,
                        uint64_t AnchorOffset) {
  CountingObserver::onAnchor(Offset, Kind, AnchorOffset);
  TraceEvent E;
  E.Kind = TraceEventKind::Anchor;
  E.Offset = Offset;
  E.A = AnchorOffset;
  E.Policy = static_cast<uint8_t>(Kind);
  record(E);
}

void RunTrace::onWindowResize(uint64_t Offset, ResizeKind Kind,
                              uint64_t TWLength, uint64_t CWLength) {
  CountingObserver::onWindowResize(Offset, Kind, TWLength, CWLength);
  TraceEvent E;
  E.Kind = TraceEventKind::WindowResize;
  E.Offset = Offset;
  E.A = TWLength;
  E.B = CWLength;
  E.Policy = static_cast<uint8_t>(Kind);
  record(E);
}

void RunTrace::onWindowFlush(uint64_t Offset, uint64_t SeedLength) {
  CountingObserver::onWindowFlush(Offset, SeedLength);
  TraceEvent E;
  E.Kind = TraceEventKind::WindowFlush;
  E.Offset = Offset;
  E.A = SeedLength;
  record(E);
}

void RunTrace::onPhaseBegin(uint64_t Offset, uint64_t AnchorEstimate) {
  CountingObserver::onPhaseBegin(Offset, AnchorEstimate);
  TraceEvent E;
  E.Kind = TraceEventKind::PhaseBegin;
  E.Offset = Offset;
  E.A = AnchorEstimate;
  record(E);
}

void RunTrace::onPhaseEnd(uint64_t Offset) {
  CountingObserver::onPhaseEnd(Offset);
  TraceEvent E;
  E.Kind = TraceEventKind::PhaseEnd;
  E.Offset = Offset;
  record(E);
}

std::vector<PhaseInterval> RunTrace::phases() const {
  std::vector<PhaseInterval> Out;
  uint64_t Begin = 0;
  bool Open = false;
  for (const TraceEvent &E : Events) {
    if (E.Kind == TraceEventKind::PhaseBegin) {
      assert(!Open && "nested phase begin");
      Begin = E.Offset;
      Open = true;
    } else if (E.Kind == TraceEventKind::PhaseEnd) {
      assert(Open && "phase end without begin");
      // An unmatched end closes nothing, as in anchoredPhases() (the
      // JSON and CSV loaders reject timelines that have one).
      if (Open)
        Out.push_back({Begin, E.Offset});
      Open = false;
    }
  }
  assert(!Open && "timeline ended with an open phase");
  return Out;
}

std::vector<PhaseInterval> RunTrace::anchoredPhases() const {
  std::vector<PhaseInterval> Out;
  uint64_t Begin = 0;
  bool Open = false;
  for (const TraceEvent &E : Events) {
    if (E.Kind == TraceEventKind::PhaseBegin) {
      Begin = E.A;
      Open = true;
    } else if (E.Kind == TraceEventKind::PhaseEnd && Open) {
      Out.push_back({Begin, E.Offset});
      Open = false;
    }
  }
  return Out;
}

void RunTrace::replayEvent(const TraceEvent &E) {
  switch (E.Kind) {
  case TraceEventKind::RunBegin:
    onRunBegin(E.A, E.B);
    break;
  case TraceEventKind::RunEnd:
    onRunEnd(E.Offset);
    break;
  case TraceEventKind::Evaluation:
    onEvaluation(E.Offset, E.Similarity, E.Decision, E.Confidence);
    break;
  case TraceEventKind::Anchor:
    onAnchor(E.Offset, static_cast<AnchorKind>(E.Policy), E.A);
    break;
  case TraceEventKind::WindowResize:
    onWindowResize(E.Offset, static_cast<ResizeKind>(E.Policy), E.A, E.B);
    break;
  case TraceEventKind::WindowFlush:
    onWindowFlush(E.Offset, E.A);
    break;
  case TraceEventKind::PhaseBegin:
    onPhaseBegin(E.Offset, E.A);
    break;
  case TraceEventKind::PhaseEnd:
    onPhaseEnd(E.Offset);
    break;
  }
}

void RunTrace::clear() {
  Events.clear();
  Detector.clear();
  TraceSize = BatchSize = 0;
  clearCounters();
}
