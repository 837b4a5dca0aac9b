//===- obs/TraceExport.h - RunTrace (de)serialization -----------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TraceIO-style writers and readers for RunTrace timelines. Two formats,
/// both specified field-by-field in docs/OBSERVABILITY.md:
///
///  * JSON — a self-describing document: a header (version, detector
///    description, trace/batch sizes), the aggregated counters, the
///    reconstructed phase intervals, and the full event timeline with
///    kind-specific field names. One event per line, so the file also
///    greps and diffs well.
///  * CSV — the event timeline only, one row per event with fixed
///    generic columns (event,offset,similarity,confidence,state,a,b,
///    policy); empty cells mean "not applicable to this kind".
///
/// Doubles are written with 17 significant digits, so a write/read
/// round-trip reproduces the recorded events exactly; readers rebuild
/// counters and phases by replaying events through RunTrace.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_OBS_TRACEEXPORT_H
#define OPD_OBS_TRACEEXPORT_H

#include "obs/RunTrace.h"
#include "trace/TraceIO.h"

#include <string>

namespace opd {

/// Renders \p Trace as a JSON document (the full schema).
std::string renderRunTraceJSON(const RunTrace &Trace);

/// Renders \p Trace's event timeline as CSV with a header row.
std::string renderRunTraceCSV(const RunTrace &Trace);

/// Writes the JSON document to \p Path.
IOStatus writeRunTraceJSON(const RunTrace &Trace, const std::string &Path);

/// Parses a JSON document produced by writeRunTraceJSON from \p Path into
/// \p Trace (replacing its contents; counters and phases are rebuilt by
/// replaying the events). A timeline whose phase begins and ends do not
/// pair up, or that ends with a phase open, is rejected and \p Trace is
/// left empty.
IOStatus readRunTraceJSON(const std::string &Path, RunTrace &Trace);

/// Writes the CSV timeline to \p Path.
IOStatus writeRunTraceCSV(const RunTrace &Trace, const std::string &Path);

/// Parses a CSV timeline produced by writeRunTraceCSV from \p Path into
/// \p Trace (replacing its contents). The CSV format carries no detector
/// description; the field is left empty. Phase edges are checked as by
/// readRunTraceJSON.
IOStatus readRunTraceCSV(const std::string &Path, RunTrace &Trace);

} // namespace opd

#endif // OPD_OBS_TRACEEXPORT_H
