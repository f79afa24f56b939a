/**
 * @file
 * Trace exporters: Chrome trace_event JSON (open in chrome://tracing or
 * https://ui.perfetto.dev) and a hierarchical plain-text dump.
 */

#ifndef CATALYZER_TRACE_EXPORT_H
#define CATALYZER_TRACE_EXPORT_H

#include <iosfwd>
#include <vector>

#include "trace/trace.h"

namespace catalyzer::trace {

/**
 * Write the tracer's spans as a Chrome trace_event JSON object
 * ({"traceEvents": [...]}): one "ph":"X" complete event per finished
 * span with ts/dur in virtual microseconds and attributes under "args".
 * Each event's pid is the span's machine id and its tid is the span's
 * distributed trace id (one request = one lane), so cross-machine spans
 * line up instead of collapsing onto a hardcoded pid 1 / tid 1; a
 * "process_name" metadata event labels each machine lane. Unfinished
 * spans are exported with zero duration and an "unfinished":"true" arg
 * so they remain visible.
 */
void exportChromeTrace(const Tracer &tracer, std::ostream &os);

/**
 * Same format for an already-merged span list (the fleet exporter in
 * src/obs/ concatenates per-machine snapshots and calls this).
 */
void exportChromeTrace(const std::vector<Span> &spans, std::ostream &os);

/**
 * Write the span forest as an indented text tree (children ordered by
 * start time), one line per span: name, start, duration, attributes.
 */
void exportText(const Tracer &tracer, std::ostream &os);

} // namespace catalyzer::trace

#endif // CATALYZER_TRACE_EXPORT_H
