// Telemetry exporters: a machine-readable JSON snapshot of every metric
// (schema "hlsprof-telemetry") and a Chrome trace-event JSON of spans and
// gauge samples, loadable in Perfetto / chrome://tracing. Both are
// sidecar formats — they never touch the canonical batch-report bytes.
#pragma once

#include <string>

#include "telemetry/telemetry.hpp"

namespace hlsprof::telemetry {

/// Full metrics snapshot as JSON: build info, counters, gauges,
/// histograms (bucket edges + counts), span/sample bookkeeping.
/// Deterministically ordered (names sorted) for diffable output.
std::string snapshot_json(const Snapshot& s);

/// Chrome trace-event JSON: one "X" (complete) event per span, one
/// counter ("C") event per gauge sample, plus thread_name metadata so
/// each registered track renders as a named row. Timestamps are µs since
/// the registry epoch.
std::string chrome_trace_json(const Snapshot& s);

/// Short human-readable digest of the headline metrics (one line per
/// subsystem) for CLI stdout.
std::string summary_text(const Snapshot& s);

/// Write `text` to `path` (truncating). Throws hlsprof::Error on failure.
void write_text_file(const std::string& path, const std::string& text);

}  // namespace hlsprof::telemetry
