//===- core/SharedScan.cpp - One trace pass, many detectors ------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// Bit-identity argument, in terms of the reference FastWindowedModel
// (core/FastKernels.h) a per-config detector drives:
//
//  1. Out of phase, the model's consume() never reads PhaseOpen, and a
//     constant-equivalent TW (adaptive with InPhaseGrowth=false behaves
//     identically) caps at TWSize — so the windows are exactly
//     CW = trace(q-CW, q], TW = trace(q-CW-TW, q-CW] at every position
//     q, which is what the engine's one free-running window maintains.
//     Kernel counts are a function of window contents, and the weighted
//     kernel's MinSum recompute is exact integer arithmetic over those
//     counts, so decisions off the shared kernel match the reference's
//     bit for bit.
//
//  2. endPhase() at position n keeps Keep = min(skip, CWSize,
//     TWLen+CWLen) seed elements and flushes the kernel. From there the
//     model refills: CWSize-Keep elements to fill the CW, then TWSize
//     rotations to fill the TW, during which windowsFull() is false —
//     every evaluation is a forced Transition and no analyzer runs. At
//     position n + (CWSize-Keep) + TWSize the refilled windows hold
//     exactly the last CWSize elements and the TWSize before them:
//     the free-running window again (1). So a flushed cursor stores
//     ResyncAt = n + (CWSize-Keep) + TWSize. A forced evaluation leaves
//     the analyzer and the edge state alone and only extends the
//     Transition run the P->T evaluation opened by its batch length, so
//     the engine parks the cursor at n and, at the first evaluation at
//     or after ResyncAt (covering L elements at N), credits the run
//     with the (N - L) - n elements it skipped; a cursor still parked
//     at the end is credited up to the trace end. The same holds from
//     the start of the trace, with n = 0 and ResyncAt = CWSize+TWSize.
//     When no cursor is active and none resyncs inside the trace, no
//     output can change any more and the scan stops.
//
//  3. In phase, an adaptive model diverges: startPhase() drops the TW
//     prefix at the anchor (optionally sliding CW elements across), and
//     InPhaseGrowth makes every subsequent consume grow the TW. But
//     none of that depends on any later decision, and the windows stay
//     contiguous: TW = trace[Base, Base+TWLen), CW = the rest up to the
//     current position. At a given position they are fixed by (Base,
//     CWLen), and so is every later window, since the in-phase consume
//     only reads its own windows. The kernels decide from window
//     contents only (count arrays; the weighted kernel's deferred
//     similarityAtLeast is documented bit-identical to the exact
//     recompute, and its MinSum is exact integer arithmetic), so two
//     shards with equal (Base, CWLen) at one position decide alike from
//     then on. That is the key the engine's refcounted shards use: a
//     cursor entering a phase joins any active shard with its Base and
//     CWLen once that shard is advanced to the entry position, and a
//     Slide shard whose CW has refilled merges into a full shard with
//     the same Base. A new shard seeds its kernel from the shared kernel
//     (phase entry only happens synced, where the cursor's window IS the
//     shared window by (1)), applies startPhase's resize, and then
//     consumes with the in-phase specialization of the reference
//     consume (TWGrows is unconditionally true, endPhase never reads the
//     buffer beyond the kept seed). While a phase is open the reference
//     windowsFull() is TWLen>0 && CWLen>0, which the shard checks before
//     each decision.
//
//  4. Constant-TW models also flush at endPhase, but in phase their
//     consume path is the free-running one (TWGrows is false once the
//     TW is full, PhaseOpen's windowsFull() variant is always true for
//     a full window) — so constant cursors never need shards at all.
//
// Analyzer state is tiny and per-cursor: the threshold compare, the
// average analyzer's mean-only Welford stats (reset on both phase
// edges, updated on P->P with the evaluation's similarity), and the
// hysteresis analyzer's internal state (which the reference only
// advances when windowsFull() — forced-Transition evaluations must NOT
// touch it, and its resetStats() is a no-op, so it survives flushes).
//
// The multi-threshold fan-out: at each evaluation position the shared
// similarity is computed once (one weighted-kernel division) and every
// synced cursor compares it — FastWeightedSetKernel::similarityAtLeast
// documents that the comparison is provably identical to the
// division-free decision the per-config path takes. Shard-backed
// decisions keep per-kernel similarityAtLeast so the PR 9 BoundLo..
// BoundHi envelope can defer dirty recomputes.
//
//===----------------------------------------------------------------------===//

#include "core/SharedScan.h"

#include "core/FastKernels.h"

#include <algorithm>
#include <map>

using namespace opd;
using namespace opd::fastkernels;

SharedScanKey opd::sharedScanKey(const DetectorConfig &Config) {
  return SharedScanKey{Config.Model, Config.Window.CWSize,
                       Config.Window.TWSize};
}

SharedScanPlan
opd::planSharedScan(const std::vector<DetectorConfig> &Configs) {
  SharedScanPlan Plan;
  std::map<SharedScanKey, size_t> GroupOf;
  for (size_t I = 0; I != Configs.size(); ++I) {
    SharedScanKey Key = sharedScanKey(Configs[I]);
    auto [It, Inserted] = GroupOf.try_emplace(Key, Plan.Groups.size());
    if (Inserted)
      Plan.Groups.push_back(SharedScanGroup{Key, {}});
    Plan.Groups[It->second].Members.push_back(I);
  }
  return Plan;
}

namespace {

/// The engine for one similarity model. One instance serves any number
/// of groups of that model sequentially; all pools survive run() calls.
template <ModelKind M>
class SharedScanEngine final : public SharedScanEngineBase {
  using Kernel = typename KernelOf<M, PlainKernelArith>::type;

  /// A detached in-phase window for adaptive cursors: the shared kernel
  /// copied at phase entry and resized per the anchor, advancing lazily
  /// to its cursors' evaluation positions. Window layout invariant:
  /// TW = Elements[Base, Base+TWLen), CW = Elements[Base+TWLen, LastPos)
  /// with Base + TWLen + CWLen == LastPos — so at a given LastPos the
  /// windows, and with them every decision, are fixed by (Base, CWLen).
  struct Shard {
    /// The detached kernel (assignment reuses its arrays).
    Kernel K;
    /// Trace offset of the TW start.
    uint64_t Base = 0;
    /// Current TW length (grows while the phase is open).
    uint64_t TWLen = 0;
    /// Current CW length (< CWSize only after a Slide resize).
    uint64_t CWLen = 0;
    /// Elements consumed so far (lazy advance high-water mark).
    uint64_t LastPos = 0;
    /// Set while a Slide resize's CW refills; the first evaluation that
    /// sees it full merges the shard into a full twin (mergeRefilled).
    bool Refilling = false;
    /// Cursors currently reading this shard.
    uint32_t Refs = 0;

    explicit Shard(SiteIndex NumSites) : K(NumSites) {}
  };

  /// One config's detector state over the shared window.
  struct Cursor {
    // Config-derived constants.
    uint32_t Skip;
    AnalyzerKind Analyzer;
    TWPolicyKind Policy;
    AnchorKind Anchor;
    ResizeKind Resize;
    /// Threshold / average delta / hysteresis enter threshold.
    double P0;
    /// Hysteresis exit threshold.
    double P1;

    // Detector state.
    PhaseState State = PhaseState::Transition;
    /// First position at which the windows are full again (out of
    /// phase, evaluations before this are forced Transitions).
    uint64_t ResyncAt = 0;
    /// The last evaluation position before the cursor parked.
    uint64_t ParkedFrom = 0;
    /// The anchored phase-start estimate set at the last T->P edge.
    uint64_t LastAnchor = 0;
    /// Non-null iff adaptive and in phase.
    Shard *Sh = nullptr;

    // Analyzer state (average: mean-only Welford; hysteresis: the
    // internal dual-threshold state).
    uint64_t StatsN = 0;
    double StatsMean = 0.0;
    PhaseState HystState = PhaseState::Transition;

    // Run accumulation (mirrors FastPhaseDetector::consumeTrace).
    PhaseState RunState = PhaseState::Transition;
    uint64_t RunLen = 0;
    /// The output run this cursor writes.
    DetectorRun *Run = nullptr;
    /// The cursor's AnchoredStarts (pooled by the engine).
    std::vector<uint64_t> *Anchored = nullptr;
  };

  /// A refilling cursor waiting in its bucket's heap.
  struct ParkedCursor {
    uint64_t ResyncAt;
    uint32_t Idx;
    /// Orders std::push_heap/pop_heap as a min-heap on ResyncAt.
    friend bool operator<(const ParkedCursor &A, const ParkedCursor &B) {
      return A.ResyncAt > B.ResyncAt;
    }
  };

  /// Cursors sharing a skip stride, evaluated in lockstep at the
  /// multiples of the stride.
  struct Bucket {
    uint64_t Skip = 0;
    /// The next position this bucket evaluates at (UINT64_MAX: never).
    uint64_t NextEval = 0;
    /// Cursors evaluated at every lattice point.
    std::vector<uint32_t> Active;
    /// Cursors refilling after a flush (or at startup), a min-heap on
    /// ResyncAt: each of their evaluations would be a forced Transition
    /// that only extends the pending Transition run, so they skip them.
    std::vector<ParkedCursor> Parked;

    /// True if an evaluation at \p N would evaluate any cursor.
    bool dueAt(uint64_t N) const {
      return !Active.empty() ||
             (!Parked.empty() && Parked.front().ResyncAt <= N);
    }
  };

public:
  explicit SharedScanEngine(SiteIndex NumSites)
      : SharedKernel(NumSites), Sites(NumSites) {}

  SiteIndex numSites() const override { return Sites; }

  void run(const std::vector<DetectorConfig> &Configs,
           const std::vector<size_t> &Members, const SiteIndex *Elements,
           size_t NumElements, std::vector<DetectorRun> &Runs) override {
    assert(!Members.empty() && "shared scan group must be nonempty");
    assert(Runs.size() >= Members.size() && "one output run per member");
    setupGroup(Configs, Members, Runs, NumElements);
    this->Elements = Elements;
    this->NumElements = NumElements;

    // Main loop: advance the shared window in eval-to-eval bursts. Once
    // every lattice point left lies past the trace end — in particular
    // when nothing is active and no parked cursor resyncs inside the
    // trace — the window stops where it is.
    uint64_t Pos = 0;
    for (;;) {
      uint64_t Target = UINT64_MAX;
      for (const Bucket &B : Buckets)
        Target = std::min(Target, B.NextEval);
      if (Target > NumElements)
        break;
      assert(Target > Pos && "evaluation positions must advance");
      consumeSharedTo(Pos, Target);
      Pos = Target;
      for (Bucket &B : Buckets)
        if (B.NextEval == Pos)
          evalBucket(B, Pos, B.Skip);
    }

    // Trailing partial batches: a bucket whose stride does not divide
    // the trace evaluates once more over the short remainder, exactly
    // like the reference's final short batch. (A skip larger than the
    // trace degenerates to one short batch covering it all.)
    for (Bucket &B : Buckets) {
      uint64_t Tail = NumElements % B.Skip;
      if (Tail == 0 || !B.dueAt(NumElements))
        continue;
      consumeSharedTo(Pos, NumElements);
      Pos = NumElements;
      evalBucket(B, NumElements, Tail);
    }

    // A cursor still parked was forced to Transition over every
    // evaluation since it parked.
    for (Bucket &B : Buckets)
      for (const ParkedCursor &P : B.Parked) {
        Cursor &C = Cursors[P.Idx];
        C.RunLen += NumElements - C.ParkedFrom;
      }

    // Flush the pending runs and finalize the per-config outputs.
    for (Cursor &C : Cursors) {
      if (C.RunLen != 0)
        C.Run->States.append(C.RunState, C.RunLen);
      finalizeAnchoredPhases(*C.Run, *C.Anchored);
      if (C.Sh)
        releaseShard(C.Sh);
      C.Sh = nullptr;
    }
  }

private:
  void setupGroup(const std::vector<DetectorConfig> &Configs,
                  const std::vector<size_t> &Members,
                  std::vector<DetectorRun> &Runs, size_t NumElements) {
    const DetectorConfig &First = Configs[Members.front()];
    assert(First.Model == M && "config does not match this engine's model");
    CW = First.Window.CWSize;
    TW = First.Window.TWSize;
    assert(CW > 0 && "current window must be nonempty");
    assert(TW > 0 && "trailing window must be nonempty");

    SharedKernel.reset();
    CWLen = TWLen = 0;
    CachePos = UINT64_MAX;
    assert(ActiveShards.empty() && "shards must not leak across runs");

    Cursors.clear();
    Cursors.reserve(Members.size());
    Buckets.clear();
    if (AnchoredPool.size() < Members.size())
      AnchoredPool.resize(Members.size());

    for (size_t I = 0; I != Members.size(); ++I) {
      const DetectorConfig &Config = Configs[Members[I]];
      assert(sharedScanKey(Config) == sharedScanKey(First) &&
             "group members must share one window-kernel shape");
      Cursor C;
      C.Skip = Config.Window.SkipFactor;
      assert(C.Skip > 0 && "skip factor must be positive");
      C.Analyzer = Config.TheAnalyzer;
      C.Policy = Config.Window.TWPolicy;
      C.Anchor = Config.Window.Anchor;
      C.Resize = Config.Window.Resize;
      C.P0 = Config.AnalyzerParam;
      C.P1 = Config.TheAnalyzer == AnalyzerKind::Hysteresis
                 ? hysteresisExitThreshold(Config.AnalyzerParam)
                 : 0.0;
      C.ResyncAt = static_cast<uint64_t>(CW) + TW;
      C.Run = &Runs[I];
      C.Run->clear();
      // Mirror runDetector's worst-case reservation (a flip per batch).
      size_t NumBatches =
          NumElements == 0 ? 0 : (NumElements - 1) / C.Skip + 1;
      C.Run->States.reserveRuns(std::min<size_t>(NumBatches, 1 << 16));
      C.Anchored = &AnchoredPool[I];
      C.Anchored->clear();
      C.Anchored->reserve(std::min<size_t>(NumBatches / 2 + 1, 1 << 12));

      // Every cursor starts parked: the windows first fill at CW + TW.
      uint32_t Idx = static_cast<uint32_t>(Cursors.size());
      Cursors.push_back(C);
      Bucket &B = bucketFor(C.Skip);
      B.Parked.push_back(ParkedCursor{C.ResyncAt, Idx});
      B.NextEval = roundUp(C.ResyncAt, B.Skip);
    }
  }

  Bucket &bucketFor(uint64_t Skip) {
    for (Bucket &B : Buckets)
      if (B.Skip == Skip)
        return B;
    Buckets.push_back(Bucket{Skip, 0, {}, {}});
    return Buckets.back();
  }

  /// The first multiple of \p Skip at or after \p N.
  static uint64_t roundUp(uint64_t N, uint64_t Skip) {
    return (N + Skip - 1) / Skip * Skip;
  }

  /// Advances the free-running window over Elements[Pos, Target).
  void consumeSharedTo(uint64_t Pos, uint64_t Target) {
    uint64_t Q = Pos;
    // Startup fill: only the first CW+TW elements of the trace.
    while (CWLen < CW && Q < Target) {
      SharedKernel.cwAdd(Elements[Q]);
      ++CWLen;
      ++Q;
    }
    while (TWLen < TW && Q < Target) {
      SiteIndex Y = Elements[Q - CW];
      SharedKernel.cwReplace(Elements[Q], Y);
      SharedKernel.twAdd(Y);
      ++TWLen;
      ++Q;
    }
    // Steady state: the whole rest of the trace takes this loop.
    for (; Q < Target; ++Q) {
      SiteIndex Y = Elements[Q - CW];
      SharedKernel.cwReplace(Elements[Q], Y);
      SharedKernel.twReplace(Y, Elements[Q - CW - TW]);
    }
  }

  /// The shared similarity at the cached evaluation position, computed
  /// once and fanned out to every cursor.
  OPD_FORCE_INLINE double sharedSim() {
    if (!SimValid) {
      Sim = SharedKernel.similarity();
      SimValid = true;
    }
    return Sim;
  }

  /// The anchor position (TW index) of \p Kind on the shared window at
  /// position \p N, memoized per evaluation position — cursors entering
  /// a phase at the same position share the scan.
  uint64_t anchor(AnchorKind Kind, uint64_t N) {
    size_t Slot = Kind == AnchorKind::RightmostNoisy ? 0 : 1;
    if (!AnchorValid[Slot]) {
      AnchorVal[Slot] = anchorPosition(Kind, N);
      AnchorValid[Slot] = true;
    }
    return AnchorVal[Slot];
  }

  /// Same scan as FastWindowedModel::anchorPosition, over the trace
  /// slice the shared TW covers at position \p N.
  uint64_t anchorPosition(AnchorKind Kind, uint64_t N) const {
    assert(N >= static_cast<uint64_t>(CW) + TW && "window not full yet");
    const SiteIndex *Window = Elements + (N - CW - TW);
    if (Kind == AnchorKind::RightmostNoisy) {
      for (uint64_t I = TW; I != 0; --I)
        if (!SharedKernel.inCW(Window[I - 1]))
          return I;
      return 0;
    }
    for (uint64_t I = 0; I != TW; ++I)
      if (SharedKernel.inCW(Window[I]))
        return I;
    return TW;
  }

  /// Forks or joins the shard for a phase opening at \p N with anchor
  /// value \p A under \p Resize. Any active shard whose windows, brought
  /// to \p N, hold the same trace slices is joined instead of copied.
  Shard *acquireShard(uint64_t N, uint64_t A, ResizeKind Resize) {
    assert(A <= TW && "anchor beyond the trailing window");
    uint64_t Base = N - CW - TW + A;
    uint64_t Take = Resize == ResizeKind::Slide ? std::min(A, CW) : 0;
    for (Shard *S : ActiveShards) {
      if (S->Base != Base)
        continue;
      advanceShard(*S, N);
      if (S->CWLen == CW - Take) {
        ++S->Refs;
        return S;
      }
    }

    Shard *S;
    if (!FreeShards.empty()) {
      S = FreeShards.back();
      FreeShards.pop_back();
    } else {
      ShardPool.push_back(std::make_unique<Shard>(Sites));
      S = ShardPool.back().get();
    }

    // Seed from the shared window (the entering cursor's window is the
    // shared window — phase entry only happens synced), then apply
    // startPhase's anchor resize: dropTWPrefix(A), and for Slide move
    // Take = min(A, pre-slide CW length) elements across into the TW.
    S->K = SharedKernel;
    for (uint64_t I = N - CW - TW; I != Base; ++I)
      S->K.twRemove(Elements[I]);
    for (uint64_t I = 0; I != Take; ++I)
      S->K.moveCWToTW(Elements[N - CW + I]);
    S->Base = Base;
    S->TWLen = TW - A + Take;
    S->CWLen = CW - Take;
    S->LastPos = N;
    S->Refilling = Take != 0;
    S->Refs = 1;
    ActiveShards.push_back(S);
    return S;
  }

  /// Called once \p S, a Slide shard, has refilled its CW at \p N: a
  /// full shard with the same Base now holds the same windows, so the
  /// two merge and S's cursors move over.
  void mergeRefilled(Shard &S, uint64_t N) {
    S.Refilling = false;
    for (Shard *T : ActiveShards) {
      if (T == &S || T->Base != S.Base)
        continue;
      advanceShard(*T, N);
      if (T->CWLen != CW)
        continue;
      T->Refs += S.Refs;
      for (Cursor &C : Cursors)
        if (C.Sh == &S)
          C.Sh = T;
      S.Refs = 1; // The last reference, which the release drops.
      releaseShard(&S);
      return;
    }
  }

  void releaseShard(Shard *S) {
    assert(S->Refs > 0 && "releasing an unreferenced shard");
    if (--S->Refs != 0)
      return;
    // Swap-erase: shards are independent, order is irrelevant.
    auto It = std::find(ActiveShards.begin(), ActiveShards.end(), S);
    assert(It != ActiveShards.end() && "released shard not active");
    *It = ActiveShards.back();
    ActiveShards.pop_back();
    FreeShards.push_back(S);
  }

  /// Advances \p S to position \p N with the in-phase consume: the fill
  /// path while a Slide left the CW partial, then the InPhaseGrowth
  /// specialization (the TW grows on every rotation).
  void advanceShard(Shard &S, uint64_t N) {
    for (uint64_t Q = S.LastPos; Q != N; ++Q) {
      SiteIndex E = Elements[Q];
      if (S.CWLen < CW) {
        S.K.cwAdd(E);
        ++S.CWLen;
      } else {
        SiteIndex Y = Elements[S.Base + S.TWLen];
        S.K.cwReplace(E, Y);
        S.K.twAdd(Y);
        ++S.TWLen;
      }
    }
    S.LastPos = N;
  }

  /// Evaluates bucket \p B at \p N covering \p L elements and sets its
  /// next evaluation position.
  void evalBucket(Bucket &B, uint64_t N, uint64_t L) {
    if (CachePos != N) {
      CachePos = N;
      SimValid = false;
      AnchorValid[0] = AnchorValid[1] = false;
    }
    // Unpark the cursors whose windows have refilled, crediting their
    // pending Transition run with the evaluations they skipped.
    while (!B.Parked.empty() && B.Parked.front().ResyncAt <= N) {
      std::pop_heap(B.Parked.begin(), B.Parked.end());
      uint32_t Idx = B.Parked.back().Idx;
      B.Parked.pop_back();
      Cursor &C = Cursors[Idx];
      C.RunLen += (N - L) - C.ParkedFrom;
      B.Active.push_back(Idx);
    }
    // Evaluate; a cursor whose phase just ended parks until it resyncs.
    size_t Kept = 0;
    for (uint32_t Idx : B.Active) {
      Cursor &C = Cursors[Idx];
      evalCursor(C, N, L);
      if (C.State == PhaseState::Transition && C.ResyncAt > N) {
        C.ParkedFrom = N;
        B.Parked.push_back(ParkedCursor{C.ResyncAt, Idx});
        std::push_heap(B.Parked.begin(), B.Parked.end());
      } else {
        B.Active[Kept++] = Idx;
      }
    }
    B.Active.resize(Kept);
    // With nothing active, jump straight to the lattice point of the
    // first resync.
    if (!B.Active.empty())
      B.NextEval = N + B.Skip;
    else if (!B.Parked.empty())
      B.NextEval = roundUp(B.Parked.front().ResyncAt, B.Skip);
    else
      B.NextEval = UINT64_MAX;
  }

  /// One evaluation of \p C at position \p N covering \p L elements —
  /// the cursor replica of FastPhaseDetector::processBatchInline plus
  /// consumeTrace's run accumulation. Forced-Transition evaluations never
  /// get here: refilling cursors are parked (evalBucket).
  void evalCursor(Cursor &C, uint64_t N, uint64_t L) {
    assert((C.State == PhaseState::InPhase || N >= C.ResyncAt) &&
           "a refilling cursor must be parked");
    PhaseState New = PhaseState::Transition;
    double SimHere = 0.0;
    if (C.Sh) {
      // Adaptive, in phase: decide off the detached shard.
      advanceShard(*C.Sh, N);
      if (C.Sh->Refilling && C.Sh->CWLen == CW)
        mergeRefilled(*C.Sh, N);
      Shard &S = *C.Sh;
      if (S.TWLen == 0 || S.CWLen == 0) {
        // The in-phase windowsFull(): an anchor drop that emptied the
        // TW (Move) or a slide that emptied the CW forces a Transition.
        New = PhaseState::Transition;
      } else {
        switch (C.Analyzer) {
        case AnalyzerKind::Threshold:
          // Keep the kernel-side decision: the envelope defers dirty
          // recomputes the raw similarity would force.
          New = S.K.similarityAtLeast(C.P0) ? PhaseState::InPhase
                                            : PhaseState::Transition;
          break;
        case AnalyzerKind::Average:
          SimHere = S.K.similarity();
          New = averageDecide(C, SimHere);
          break;
        case AnalyzerKind::Hysteresis:
          New = hysteresisDecide(C, S.K.similarity());
          break;
        }
      }
    } else {
      // Synced (constant cursors in or out of phase; adaptive out of
      // phase): decide off the shared kernel, one similarity for all.
      switch (C.Analyzer) {
      case AnalyzerKind::Threshold:
        New = sharedSim() >= C.P0 ? PhaseState::InPhase
                                  : PhaseState::Transition;
        break;
      case AnalyzerKind::Average:
        SimHere = sharedSim();
        New = averageDecide(C, SimHere);
        break;
      case AnalyzerKind::Hysteresis:
        New = hysteresisDecide(C, sharedSim());
        break;
      }
    }

    // Phase edges, in processBatchInline's order.
    if (C.State == PhaseState::Transition && New == PhaseState::InPhase) {
      uint64_t A = anchor(C.Anchor, N);
      C.LastAnchor = N - CW - TW + A;
      if (C.Policy == TWPolicyKind::Adaptive)
        C.Sh = acquireShard(N, A, C.Resize);
      if (C.Analyzer == AnalyzerKind::Average)
        resetStats(C);
    } else if (C.State == PhaseState::InPhase &&
               New == PhaseState::InPhase &&
               C.Analyzer == AnalyzerKind::Average) {
      updateStats(C, SimHere);
    }
    if (C.State == PhaseState::InPhase && New == PhaseState::Transition) {
      // endPhase: the seed kept is min(skip, CWSize, window length);
      // refill completes (CWSize - Keep) + TWSize elements later.
      uint64_t WindowLen =
          C.Sh ? C.Sh->TWLen + C.Sh->CWLen : static_cast<uint64_t>(CW) + TW;
      uint64_t Keep = std::min<uint64_t>(
          std::min<uint64_t>(C.Skip, CW), WindowLen);
      C.ResyncAt = N + (CW - Keep) + TW;
      if (C.Sh) {
        releaseShard(C.Sh);
        C.Sh = nullptr;
      }
      if (C.Analyzer == AnalyzerKind::Average)
        resetStats(C);
    }

    // Run accumulation, exactly as consumeTrace.
    if (New == C.RunState) {
      C.RunLen += L;
    } else {
      if (C.RunState == PhaseState::Transition &&
          New == PhaseState::InPhase)
        C.Anchored->push_back(C.LastAnchor);
      if (C.RunLen != 0)
        C.Run->States.append(C.RunState, C.RunLen);
      C.RunState = New;
      C.RunLen = L;
    }
    C.State = New;
  }

  /// FastAverageAnalyzer::processValue over the cursor's stats (the
  /// sweep path never sets an entry threshold, so an empty-stats
  /// evaluation opens a phase unconditionally).
  static PhaseState averageDecide(const Cursor &C, double Similarity) {
    if (C.StatsN == 0)
      return PhaseState::InPhase;
    return Similarity >= C.StatsMean - C.P0 ? PhaseState::InPhase
                                            : PhaseState::Transition;
  }

  /// FastHysteresisAnalyzer::processValue over the cursor's state.
  static PhaseState hysteresisDecide(Cursor &C, double Similarity) {
    double Threshold =
        C.HystState == PhaseState::InPhase ? C.P1 : C.P0;
    C.HystState = Similarity >= Threshold ? PhaseState::InPhase
                                          : PhaseState::Transition;
    return C.HystState;
  }

  static void resetStats(Cursor &C) {
    C.StatsN = 0;
    C.StatsMean = 0.0;
  }

  /// FastMeanStats::push — the identical Welford mean update.
  static void updateStats(Cursor &C, double Similarity) {
    ++C.StatsN;
    C.StatsMean +=
        (Similarity - C.StatsMean) / static_cast<double>(C.StatsN);
  }

  // Shared free-running window.
  Kernel SharedKernel;
  SiteIndex Sites;
  uint64_t CW = 0;
  uint64_t TW = 0;
  uint64_t CWLen = 0;
  uint64_t TWLen = 0;

  // The trace being scanned (valid during run()).
  const SiteIndex *Elements = nullptr;
  size_t NumElements = 0;

  // Per-evaluation-position memoization.
  uint64_t CachePos = UINT64_MAX;
  double Sim = 0.0;
  bool SimValid = false;
  uint64_t AnchorVal[2] = {0, 0};
  bool AnchorValid[2] = {false, false};

  // Cursors and their stride buckets (rebuilt per group, capacity kept).
  std::vector<Cursor> Cursors;
  std::vector<Bucket> Buckets;
  std::vector<std::vector<uint64_t>> AnchoredPool;

  // Shard storage: ShardPool owns, Active/Free partition the pointers.
  std::vector<std::unique_ptr<Shard>> ShardPool;
  std::vector<Shard *> ActiveShards;
  std::vector<Shard *> FreeShards;
};

} // namespace

std::unique_ptr<SharedScanEngineBase>
opd::makeSharedScanEngine(ModelKind Model, SiteIndex NumSites) {
  switch (Model) {
  case ModelKind::UnweightedSet:
    return std::make_unique<SharedScanEngine<ModelKind::UnweightedSet>>(
        NumSites);
  case ModelKind::WeightedSet:
    return std::make_unique<SharedScanEngine<ModelKind::WeightedSet>>(
        NumSites);
  case ModelKind::ManhattanBBV:
    return std::make_unique<SharedScanEngine<ModelKind::ManhattanBBV>>(
        NumSites);
  }
  return nullptr;
}
