// The end-to-end compilation flow (paper Ch. 3).
//
// Deployment::Compile takes a network graph, applies operator fusion,
// plans either a pipelined or a folded execution (Ch. 3), builds scheduled
// kernels with the recipe's optimizations (Ch. 4/5), synthesizes them with
// the AOC model, and -- when the design fits and routes -- produces a
// runnable deployment whose Run() performs functional inference (verified
// numbers) under a simulated-time schedule.
//
// Compile once, instantiate many: as AOC compiles a design offline into
// one bitstream that the host then programs onto boards, the compile's
// product is an immutable CompiledDesign and a Deployment is one runtime
// instance over it. Compile is a fixed composition of explicit stages
// (Plan, Gate, Synthesize, instantiation); DSE composes the same stages
// without the gate, and ha::ReplicaSet instantiates one design per board.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/dataflow_checker.hpp"
#include "analysis/diag.hpp"
#include "core/recipes.hpp"
#include "fpga/synth.hpp"
#include "graph/graph.hpp"
#include "ir/op_kernels.hpp"
#include "obs/span.hpp"
#include "ocl/runtime.hpp"
#include "telemetry/flight_recorder.hpp"

namespace clflow::core {

class CompileCache;

/// Controls the static-analysis gate that runs inside Compile: the IR
/// verifier after every schedule primitive, then the dataflow checker,
/// perf linter and source lint (clflow::srclint, the CLF8xx family) on the
/// finished plan. Error-severity findings abort compilation with
/// VerifyError.
struct AnalysisOptions {
  /// Per-code severity overrides ("CLF301" -> kError promotes a lint to a
  /// compile failure; "CLF203" -> kWarning demotes a deadlock check for
  /// experiments that knowingly violate it on the simulator).
  std::map<std::string, analysis::Severity> severity_overrides;
};

struct DeployOptions {
  ExecutionMode mode = ExecutionMode::kPipelined;
  OptimizationRecipe recipe;
  fpga::BoardSpec board;
  fpga::CostModel cost_model;
  /// Threads used for functional (host-side oracle) execution.
  int functional_threads = 1;
  AnalysisOptions analysis;
  /// Optional content-hashed compile/synthesis cache (see
  /// core/compile_cache.hpp). When set, per-kernel lowering (folded conv
  /// kernels) and per-kernel synthesis results are memoized across Compile
  /// calls; `compile.cache.hits`/`compile.cache.misses` counters land in
  /// this deployment's telemetry. Null (the default) compiles everything
  /// from scratch.
  std::shared_ptr<CompileCache> compile_cache;
  /// Hardening knobs for the simulated runtime this deployment constructs
  /// (Finish() watchdog timeout, retry/backoff caps). Validated at the top
  /// of Compile: non-positive values are rejected with a structured
  /// CLF507 RuntimeFaultError rather than silently misbehaving.
  ocl::RuntimeOptions runtime;
  /// When non-empty, the flight recorder is dumped to this path whenever a
  /// RuntimeFaultError or VerifyError escapes Run()/Compile() (the
  /// "_flightrec.json" postmortem). Empty (the default) records but never
  /// writes a file -- tests that intentionally inject faults stay quiet.
  /// The second and later dumps of one deployment get a monotonic sequence
  /// suffix (telemetry::SequencedDumpPath) so no postmortem overwrites a
  /// previous one. This is the path of the instance Compile returns;
  /// Deployment::Instantiate takes its own.
  std::string flightrec_path;
  /// Ring capacity of the flight recorder (events retained at dump time).
  std::size_t flightrec_capacity = telemetry::FlightRecorder::kDefaultCapacity;
};

struct RunResult {
  Tensor output;    ///< undefined on timing-only runs
  SimTime latency;  ///< simulated end-to-end time for this image
  /// Deterministic request id of this Run (first call = 1); every
  /// event the request recorded carries it as trace_id.
  std::uint64_t trace_id = 0;
};

/// Per-operation-class profile row (Tables 6.8 / 6.16).
struct OpProfileEntry {
  std::string op_class;
  double flops = 0.0;          ///< per image
  SimTime kernel_time;         ///< per image, kernel execution only
  double runtime_share = 0.0;  ///< of total kernel time
  double gflops = 0.0;
};

/// Runtime breakdown by command kind (Figure 6.2).
struct EventBreakdown {
  SimTime write, kernel, read;
};

/// One synthesized kernel and the label used in profiles/tables.
struct PlannedKernel {
  ir::BuiltKernel built;
  std::string op_class;
  std::string tiling_desc;  ///< human-readable unroll/tile summary
  /// Schedule content key: serialization of the builder spec this kernel's
  /// IR is a pure function of (folded planner only; empty means "not
  /// content-addressable" and the CompileCache falls back to fingerprinting
  /// the generated source). Keys analysis and synthesis memoization.
  std::string content_key;
};

/// One runtime launch (a graph node executed by some kernel).
struct PlannedInvocation {
  int kernel_index = -1;
  graph::NodeId node = -1;
  ir::Bindings bindings;
  ir::KernelStats stats;
  bool autorun = false;
  std::vector<std::string> reads_channels;
  std::vector<std::string> writes_channels;
};

/// The immutable product of compilation, shared by every Deployment
/// instantiated from it.
struct CompiledDesign {
  DeployOptions options;
  graph::Graph fused;
  std::vector<PlannedKernel> kernels;
  std::vector<PlannedInvocation> invocations;
  /// Command-queue assignment per invocation (parallel to invocations);
  /// autorun invocations keep their planned id but never touch a queue.
  /// The profiler uses this to rebuild per-queue occupancy from the event
  /// stream.
  std::vector<int> invocation_queues;
  int num_queues = 1;
  /// Set by the synthesis stage; inspect it for why a design failed.
  fpga::Bitstream bitstream;
  /// What the analysis gate reported (empty when no gate ran).
  std::vector<analysis::Diagnostic> diagnostics;
  /// The compile's top-level phase spans (fusion .. synthesis).
  std::vector<obs::SpanRecord> phase_spans;

  [[nodiscard]] bool ok() const { return bitstream.ok(); }
  /// The launch plan as the dataflow checker sees it: one PlanStep per
  /// invocation in enqueue order with queue assignments, channel endpoints,
  /// and graph dependence edges.
  [[nodiscard]] analysis::Plan AnalysisPlan() const;
  /// The OpenCL C translation unit for the whole design.
  [[nodiscard]] std::string Source() const;
};

/// One runnable instance of a CompiledDesign: the simulated runtime, I/O
/// buffers, functional activations, flight recorder, runtime diagnostics,
/// request counter and run.* telemetry.
class Deployment {
 public:
  /// The full flow, a fixed composition of the stages below: Plan (under
  /// the IR pass verifier) -> Gate -> Synthesize -> a first instance. Its
  /// telemetry() holds the compile phase spans and metrics.
  [[nodiscard]] static Deployment Compile(const graph::Graph& g,
                                          const DeployOptions& options);

  // --- Compile stages. Plan and Synthesize record their spans and metrics
  // into the ambient obs::Registry/Tracer (see obs::ScopedTelemetry).

  /// Fusion, lowering (pipelined or folded planner) and queue assignment.
  [[nodiscard]] static CompiledDesign Plan(const graph::Graph& g,
                                           const DeployOptions& options);
  /// The static-analysis gate: IR verifier, dataflow checker and perf
  /// lints over the plan, then srclint's translation validation of the
  /// emitted `source` against it. Throws VerifyError when `diags` holds an
  /// error afterwards.
  static void Gate(const CompiledDesign& design, const std::string& source,
                   analysis::DiagnosticEngine& diags);
  /// Synthesizes every kernel with the AOC model into design.bitstream.
  static void Synthesize(CompiledDesign& design);

  /// The instantiation stage: a fresh instance over `design` (a runtime
  /// only when the design synthesized). Its flight recorder dumps to
  /// `flightrec_path` on an escaping fault; empty never writes a file.
  explicit Deployment(std::shared_ptr<const CompiledDesign> design,
                      std::string flightrec_path = {});
  /// A fresh instance over this deployment's design. Faults, events and
  /// counters of one instance never reach another.
  [[nodiscard]] Deployment Instantiate(std::string flightrec_path = {}) const;

  [[nodiscard]] const CompiledDesign& design() const { return *design_; }
  /// False when synthesis failed (fit/route); inspect bitstream() for why.
  [[nodiscard]] bool ok() const { return design_->ok(); }
  [[nodiscard]] const fpga::Bitstream& bitstream() const {
    return design_->bitstream;
  }
  [[nodiscard]] const graph::Graph& fused_graph() const {
    return design_->fused;
  }
  /// The options the design was compiled with (flightrec_path is per
  /// instance: see Instantiate).
  [[nodiscard]] const DeployOptions& options() const {
    return design_->options;
  }
  [[nodiscard]] const std::vector<PlannedKernel>& kernels() const {
    return design_->kernels;
  }
  [[nodiscard]] const std::vector<PlannedInvocation>& invocations() const {
    return design_->invocations;
  }
  [[nodiscard]] const std::vector<int>& invocation_queues() const {
    return design_->invocation_queues;
  }

  /// Runs one image. With functional=true the returned output holds real
  /// numbers computed by the verified reference operators; timing-only
  /// runs return an undefined tensor and are much faster.
  [[nodiscard]] RunResult Run(const Tensor& input, bool functional = true);

  /// Simulated frames per second (one functional warm-up run optional via
  /// `verify_against_reference`, which throws if FPGA output diverges from
  /// the graph oracle).
  [[nodiscard]] double EstimateFps(const Tensor& input,
                                   bool verify_against_reference = false);

  [[nodiscard]] std::vector<OpProfileEntry> ProfileOps();

  /// Per-command-kind breakdown with the event profiler enabled (which
  /// serializes the host, as on real hardware).
  [[nodiscard]] EventBreakdown ProfileEvents(const Tensor& input);

  /// The generated OpenCL C translation unit for the whole design, timed
  /// as a "codegen" span in telemetry().
  [[nodiscard]] std::string GeneratedSource() const;

  /// This instance's telemetry: run.* metrics and, on the instance Compile
  /// returns, the compile's per-phase wall-clock spans (fusion, lowering,
  /// every IR pass, gate, synthesis) and pass/synthesis metrics.
  [[nodiscard]] obs::Telemetry& telemetry() const { return *telemetry_; }

  /// The gate's findings (design().diagnostics) followed by this
  /// instance's runtime faults and recoveries.
  [[nodiscard]] analysis::DiagnosticEngine& diagnostics() const {
    return *diags_;
  }

  /// The flight recorder fed by the runtime's command/fault stream and the
  /// request boundaries of Run(); dumped to this instance's flight-recorder
  /// path (when set) on an escaping fault.
  [[nodiscard]] telemetry::FlightRecorder& flight_recorder() const {
    return *flightrec_;
  }

  /// design().AnalysisPlan(); exposed so external tools (flow_inspector
  /// --lint) can re-run or perturb the checks.
  [[nodiscard]] analysis::Plan AnalysisPlan() const {
    return design_->AnalysisPlan();
  }

  /// The live simulated runtime (valid when ok()); exposes the profiled
  /// event stream and accumulated queue/channel/transfer metrics.
  [[nodiscard]] ocl::Runtime& runtime() const;

  /// Exports runtime-side metrics into `registry`: everything
  /// ocl::Runtime::ExportMetrics emits plus, per kernel, the synthesis-time
  /// static estimate, the scheduled mean per invocation and their ratio
  /// (perf.kernel.{static_estimate_us,scheduled_us,static_estimate_ratio}).
  void ExportRuntimeMetrics(obs::Registry& registry,
                            const obs::Labels& base_labels = {}) const;

 private:
  /// Per-instance state without a design or runtime yet.
  Deployment(const DeployOptions& options, std::string flightrec_path);

  void PrepareRuntime();
  /// Mirrors accumulated diagnostics into the recorder and writes it to
  /// flightrec_path_ (no-op when the path is empty). Reports CLF703 when
  /// the ring dropped events. Never throws (runs in catches).
  void DumpFlightRecorder() const;
  [[nodiscard]] ocl::KernelLaunch MakeLaunch(const PlannedInvocation& inv,
                                             bool functional);

  std::shared_ptr<const CompiledDesign> design_;
  std::string flightrec_path_;
  std::shared_ptr<obs::Telemetry> telemetry_;
  std::shared_ptr<analysis::DiagnosticEngine> diags_;
  std::shared_ptr<telemetry::FlightRecorder> flightrec_;
  /// Dumps written so far; sequences the postmortem filenames (mutable:
  /// DumpFlightRecorder runs inside const catch paths).
  mutable std::uint64_t flightrec_dumps_ = 0;
  /// Request counter backing RunResult::trace_id (first Run = 1).
  std::uint64_t next_trace_id_ = 0;

  // Runtime state (valid when ok()).
  std::unique_ptr<ocl::Runtime> runtime_;
  ocl::BufferPtr input_buffer_;
  ocl::BufferPtr output_buffer_;
  /// Functional activation map, rebuilt per functional run.
  std::unordered_map<graph::NodeId, Tensor> acts_;
};

}  // namespace clflow::core
