// Simulated OpenCL runtime for FPGA devices.
//
// Functionality and timing are deliberately separated:
//
//   * functional execution runs eagerly at enqueue time on host memory
//     (buffers expose a host view; kernel functors compute with the
//     verified reference operators) so results are real numbers checked
//     against the oracle;
//   * timing is a discrete-event schedule over the simulated clock,
//     reproducing the runtime semantics the paper's Chapter 4 host
//     optimizations exploit: in-order command queues serialize their
//     commands; one-queue-per-kernel enables concurrent execution (SS4.8);
//     channel dependencies chain producers to consumers (SS4.6); autorun
//     kernels dispatch without host involvement (SS4.7); enabling the
//     event profiler forces the host to wait on every command, which is
//     why the paper's Figure 6.2 warns that profiling inflates overheads.
//
// Commands must be enqueued in a topological order of their data
// dependencies (the planner guarantees this); out-of-order enqueue across
// channels would deadlock real hardware and is rejected here.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sim_time.hpp"
#include "fpga/synth.hpp"
#include "ir/analysis.hpp"
#include "obs/metrics.hpp"
#include "ocl/event_pool.hpp"
#include "resilience/fault.hpp"
#include "telemetry/context.hpp"

namespace clflow {
class RuntimeFaultError;
namespace telemetry {
class FlightRecorder;
}
}  // namespace clflow

namespace clflow::ocl {

/// A device global-memory object with a host-visible functional view.
class Buffer {
 public:
  explicit Buffer(std::int64_t num_floats);

  [[nodiscard]] std::span<float> view() { return view_; }
  [[nodiscard]] std::span<const float> view() const { return view_; }
  [[nodiscard]] std::int64_t size_bytes() const {
    return static_cast<std::int64_t>(view_.size()) * 4;
  }

 private:
  std::vector<float> storage_;
  std::span<float> view_;
};
using BufferPtr = std::shared_ptr<Buffer>;

// CommandKind and the event record live in ocl/event_pool.hpp; the
// include above keeps them visible to every user of this header.

/// A kernel launch: timing comes from the synthesized design + per-launch
/// dynamic stats; functionality from an optional functor over buffer views.
struct KernelLaunch {
  std::string name;                    ///< must exist in the bitstream
  ir::KernelStats stats;               ///< dynamic stats for this launch
  std::function<void()> functional;    ///< may be null (timing-only runs)
  std::vector<std::string> reads_channels;
  std::vector<std::string> writes_channels;
};

/// Hardening knobs for one Runtime instance, configurable per deployment
/// (DeployOptions::runtime) instead of the former hard-coded constants.
struct RuntimeOptions {
  /// Retry/backoff/reprogram parameters for fault recovery.
  resilience::RetryPolicy retry;
  /// Simulated-time bound the Finish() watchdog charges to a kernel
  /// blocked on a channel whose writer never arrives before declaring
  /// deadlock (CLF502).
  SimTime watchdog_timeout = SimTime::Ms(100.0);
};

/// Rejects non-positive knobs (watchdog_timeout <= 0, retry.max_attempts
/// <= 0, retry.backoff_multiplier <= 0, negative backoff_base /
/// reprogram_cost) with a structured RuntimeFaultError carrying CLF507.
void ValidateRuntimeOptions(const RuntimeOptions& options);

class Runtime {
 public:
  Runtime(fpga::Bitstream bitstream, fpga::CostModel cost_model = {},
          const RuntimeOptions& options = {});

  [[nodiscard]] const fpga::Bitstream& bitstream() const { return bitstream_; }
  [[nodiscard]] const fpga::BoardSpec& board() const {
    return bitstream_.board;
  }
  [[nodiscard]] double fmax_mhz() const { return bitstream_.fmax_mhz; }

  [[nodiscard]] BufferPtr CreateBuffer(std::int64_t num_floats);

  /// Creates an in-order command queue and returns its id. Queue 0 exists
  /// from construction.
  int CreateQueue();
  [[nodiscard]] int num_queues() const;

  /// When enabled, the host blocks on every command before enqueuing the
  /// next one (required to collect per-event profiles, SS5.2); this
  /// disables all cross-command concurrency, as in the paper.
  void set_profiling(bool enabled) { profiling_ = enabled; }
  [[nodiscard]] bool profiling() const { return profiling_; }

  // --- Resilience -----------------------------------------------------------

  /// Attaches a deterministic fault source consulted at every transfer
  /// attempt and kernel dispatch; nullptr (the default) runs fault-free.
  void set_fault_injector(
      std::shared_ptr<resilience::FaultInjector> injector) {
    injector_ = std::move(injector);
  }
  [[nodiscard]] const std::shared_ptr<resilience::FaultInjector>&
  fault_injector() const {
    return injector_;
  }

  /// Retry/backoff/reprogram parameters, fixed at construction
  /// (RuntimeOptions::retry).
  [[nodiscard]] const resilience::RetryPolicy& retry_policy() const {
    return retry_policy_;
  }

  /// Recovery counters, accumulated across batches.
  [[nodiscard]] std::int64_t xfer_retries() const { return xfer_retries_; }
  [[nodiscard]] std::int64_t kernel_reruns() const { return kernel_reruns_; }
  [[nodiscard]] std::int64_t reprograms() const { return reprograms_; }
  /// Total simulated time spent in retry backoff waits.
  [[nodiscard]] SimTime backoff_time() const { return backoff_time_; }

  /// Renders per-queue state (last command end, busy, idle) -- the
  /// snapshot RuntimeFaultError carries when the watchdog fires.
  [[nodiscard]] std::string DescribeQueues() const;

  // --- Telemetry ------------------------------------------------------------

  /// Installs the request context stamped into every recorded event (and
  /// flight-recorder entry) recorded until clear_trace_context().
  /// Deployment::Run brackets its command stream with these.
  void set_trace_context(const telemetry::TraceContext& ctx) {
    trace_ctx_ = ctx;
  }
  void clear_trace_context() { trace_ctx_ = {}; }

  /// Attaches a flight recorder that receives every command completion
  /// (including retry/rerun/hung slices) and every fault the runtime
  /// raises. Not owned; nullptr detaches. Recording never affects span-id
  /// assignment, so traces are identical with or without a recorder.
  void set_flight_recorder(telemetry::FlightRecorder* recorder) {
    flightrec_ = recorder;
  }

  void EnqueueWrite(int queue, const BufferPtr& buffer,
                    std::span<const float> src, std::string label = "write");
  void EnqueueRead(int queue, const BufferPtr& buffer, std::span<float> dst,
                   std::string label = "read");
  void EnqueueKernel(int queue, KernelLaunch launch);

  /// Registers an autorun kernel instance: it participates in channel
  /// dependency chains with no queue and no launch overhead. Call once per
  /// logical activation (e.g. per image).
  void RunAutorun(KernelLaunch launch);

  /// Blocks (in simulated time) until all queues drain; returns the
  /// makespan of everything enqueued since the previous Finish().
  SimTime Finish();

  /// Abandons the current batch after a RuntimeFaultError escaped
  /// mid-enqueue: clears per-batch channel/hang state and advances the
  /// batch boundary so the runtime is reusable (the HA dispatcher calls
  /// this before re-issuing the batch on a replica, and before half-open
  /// probes of this board). Accumulated metrics and recovery counters
  /// survive; the lost batch's events stay in the trace.
  void AbortBatch();

  [[nodiscard]] SimTime now() const { return clock_; }
  /// The live event stream as an indexable SoA pool (record order), read
  /// by the trace, prof and SLO consumers.
  [[nodiscard]] const EventPool& event_pool() const { return events_; }
  /// Recycles every live event's slot (ids are never reused; column
  /// capacity and the interned label pool are retained, so steady-state
  /// serving loops allocate nothing here).
  void ClearEvents() { events_.Clear(); }

  // --- Observability accessors (accumulated across batches; persist
  // --- through ClearEvents) ---

  /// Per-queue utilization: busy is the sum of command durations, idle the
  /// sum of gaps (host latency, launch overhead, channel stalls) between
  /// them. After Finish(), busy + idle equals the sum of batch makespans
  /// for every queue.
  struct QueueUsage {
    SimTime busy, idle;
  };
  [[nodiscard]] QueueUsage queue_usage(int queue) const;

  /// Total time kernels spent blocked on each channel (for autorun
  /// kernels: time from batch start until the channel's data arrived).
  [[nodiscard]] const std::map<std::string, SimTime>& channel_stall() const {
    return channel_stall_;
  }
  [[nodiscard]] SimTime total_channel_stall() const;

  [[nodiscard]] std::int64_t bytes_h2d() const { return bytes_h2d_; }
  [[nodiscard]] std::int64_t bytes_d2h() const { return bytes_d2h_; }

  /// Per-kernel accumulated execution time and launch count.
  struct KernelUsage {
    SimTime total;
    std::int64_t invocations = 0;
  };
  [[nodiscard]] const std::map<std::string, KernelUsage>& kernel_usage()
      const {
    return kernel_usage_;
  }

  /// Writes the accumulated runtime metrics (queue occupancy/idle, channel
  /// stalls, transfer volume/bandwidth, per-kernel time) into `registry`,
  /// merging `base_labels` into every series so several runtimes can share
  /// one registry.
  void ExportMetrics(obs::Registry& registry,
                     const obs::Labels& base_labels = {}) const;

 private:
  struct QueueState {
    SimTime last_end;
    SimTime busy, idle;
  };

  SimTime KernelReady(const KernelLaunch& launch, SimTime base);
  void RecordKernel(const KernelLaunch& launch, int queue, bool autorun);
  void EnqueueTransfer(int queue, bool is_write, std::int64_t num_floats,
                       const std::string& label,
                       const std::function<void()>& copy,
                       std::span<float> dest);
  /// The single event sink: stamps the current trace context and the next
  /// span id, mirrors the event into the flight recorder, and records it
  /// into the pool. Every record site goes through here. The label is
  /// interned by the pool; callers pass views of whatever they have.
  void RecordEvent(std::string_view label, CommandKind kind, int queue,
                   SimTime queued, SimTime start, SimTime end, SimTime stall,
                   std::int64_t bytes);
  /// Mirrors a fault into the flight recorder just before it is thrown.
  void RecordFault(const RuntimeFaultError& fault);

  fpga::Bitstream bitstream_;
  fpga::CostModel cost_model_;
  bool profiling_ = false;
  std::shared_ptr<resilience::FaultInjector> injector_;
  resilience::RetryPolicy retry_policy_;
  SimTime watchdog_timeout_ = SimTime::Ms(100.0);

  SimTime clock_;        ///< completion time of everything so far
  SimTime host_time_;    ///< host thread's enqueue cursor
  SimTime batch_start_;  ///< for Finish() makespan accounting
  std::vector<QueueState> queues_{1};
  /// Latest simulated completion of a writer per channel name.
  std::unordered_map<std::string, SimTime> channel_ready_;
  /// Channels written so far in this batch (deadlock detection).
  std::unordered_map<std::string, int> channel_writers_;
  EventPool events_;
  /// Cumulative blocked-on-channel time, per channel.
  std::map<std::string, SimTime> channel_stall_;
  std::map<std::string, KernelUsage> kernel_usage_;
  /// Per-event duration distribution (log-bucketed: the event stream is
  /// unbounded, so the hot path must not retain samples). Exported by
  /// ExportMetrics as idempotent duration-quantile gauges.
  obs::Histogram event_duration_us_;
  std::int64_t bytes_h2d_ = 0, bytes_d2h_ = 0;
  SimTime xfer_h2d_time_, xfer_d2h_time_;
  // Resilience state.
  std::int64_t xfer_retries_ = 0;
  std::int64_t kernel_reruns_ = 0;
  std::int64_t reprograms_ = 0;
  SimTime backoff_time_;
  /// Channels whose (injected-hung) writer will never deliver data.
  std::unordered_map<std::string, std::string> hung_channels_;  ///< ch->kernel
  /// First kernel that hung this batch ("" when none): Finish() deadlocks.
  std::string hung_kernel_;
  // Telemetry state.
  telemetry::TraceContext trace_ctx_;
  telemetry::FlightRecorder* flightrec_ = nullptr;  ///< not owned
  /// Next command span id; host enqueue order is single-threaded, so this
  /// numbering is deterministic across runs and thread counts.
  std::uint64_t next_span_id_ = 0;
};

}  // namespace clflow::ocl
