//===- core/FastDetector.h - Monomorphic fast-path detectors ----*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference PhaseDetector dispatches every kernel update through
/// SimilarityKernel's virtual interface and every decision through
/// Analyzer's — fine for one detector, but the evaluation streams the
/// same traces through thousands of configurations, and the per-element
/// virtual calls dominate.
///
/// makeFastDetector() instead picks one of NumFastShapes template
/// instantiations — one per (model x TW policy x analyzer kind) shape —
/// in which the kernel and analyzer are held by concrete final type, so
/// their per-element operations devirtualize and inline into the consume
/// loop, and consumeTrace() is overridden with a fully monomorphic loop:
/// a whole run costs a single virtual dispatch.
///
/// The fast path is an optimization, not a fork: it produces
/// bit-identical StateSequences, anchored phases, and scores to the
/// reference detector (tests/FastDetectorTest.cpp holds the two equal
/// across the entire sweep space). The reference PhaseDetector remains
/// the detector of record — it alone emits observer events, so observed
/// runs and stat collection stay on it.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_FASTDETECTOR_H
#define OPD_CORE_FASTDETECTOR_H

#include "core/DetectorConfig.h"

#include <memory>

namespace opd {

/// The old name of the fast detectors' base class. The fast detectors
/// are plain OnlineDetectors now; the alias stays only because the
/// repository benchmark (perfbench/src/Serve.cpp) spells it, and goes the
/// next time the benchmark changes.
using FastDetectorBase = OnlineDetector;

/// Number of distinct fast-path instantiations: model (3) x TW policy
/// (2) x analyzer kind (3).
constexpr size_t NumFastShapes = 18;

/// Index of \p Config's instantiation shape, in [0, NumFastShapes).
/// Configs with equal shape differ only in runtime parameters (window
/// sizes, skip factor, anchor/resize, analyzer parameter) and run the
/// same compiled code.
size_t fastShapeIndex(const DetectorConfig &Config);

/// Builds the monomorphic fast-path detector for \p Config, sized for
/// \p NumSites distinct profile elements. Output is bit-identical to
/// makeDetector(Config, NumSites)'s.
std::unique_ptr<OnlineDetector>
makeFastDetector(const DetectorConfig &Config, SiteIndex NumSites);

/// Builds the fast-path detector for \p Config with the
/// CheckedKernelArith-instrumented kernel: every kernel arithmetic step
/// is overflow-checked and its value recorded into \p Probe (which must
/// outlive the detector). This is the fast-path half of the KernelBounds
/// shadow mode (analysis/KernelBounds.h) — decision-identical to
/// makeFastDetector, plus observation.
std::unique_ptr<OnlineDetector>
makeCheckedFastDetector(const DetectorConfig &Config, SiteIndex NumSites,
                        KernelValueProbe &Probe);

} // namespace opd

#endif // OPD_CORE_FASTDETECTOR_H
