// Execution trace export.
//
// Maps the runtime's profiled events onto obs::ChromeTrace (chrome://tracing
// / Perfetto), with one row per command queue plus a row for autorun
// kernels -- the visual counterpart of the paper's Figure 6.2 breakdown.
//
// Compile-phase spans (obs::Tracer), when given, merge into the same
// trace as a second process, so one Perfetto view shows the whole flow:
// wall-clock compilation on pid 1, simulated execution on pid 2. The
// clocks are unrelated; the process split keeps that explicit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "ocl/runtime.hpp"
#include "telemetry/slo.hpp"

namespace clflow::ocl {

/// Serializes the runtime's event pool as a Chrome trace. Timestamps are
/// the simulated clock in microseconds, exact to the picosecond at any
/// point of a run; queues map to thread ids (autorun = tid 0).
/// Channel-stall time renders as a separate "<label> [stall]"
/// slice (cat "stall") preceding the kernel slice, and two counter tracks
/// ("ph":"C") plot queue occupancy (concurrent commands) and outstanding
/// transfer bytes over time.
///
/// With no compile spans the trace is one process named `process_name`.
/// Non-empty compile spans add a second process ("compile, wall clock",
/// pid 1) ahead of the runtime (pid 2); span nesting renders via duration
/// containment on one track.
///
/// Events stamped with a request trace context (trace_id != 0)
/// additionally emit causal flow arrows (ph "s"/"t"/"f", flow id =
/// trace_id) chaining every command of one request across its queues, so
/// Perfetto draws each inference request as one connected path instead of
/// flat per-queue slices. Flow ids are the deterministic trace ids, so
/// the export is bit-stable across runs and thread counts.
[[nodiscard]] std::string ExportChromeTrace(
    const EventPool& events,
    const std::vector<obs::SpanRecord>& compile_spans = {},
    const std::string& process_name = "clflow");

/// Folds one request's events (those whose trace_id matches) into the
/// summary the SLO monitor consumes: latency spans first-enqueue to
/// last-completion, stall/queue-wait attribution, and the queue carrying
/// the dominant stall. `ok` is left true; the caller flips it when the
/// request faulted. Lives in ocl (not telemetry) so clflow_telemetry
/// never depends on the runtime layer.
[[nodiscard]] telemetry::RequestSummary SummarizeRequest(
    const EventPool& events, std::uint64_t trace_id);

}  // namespace clflow::ocl
