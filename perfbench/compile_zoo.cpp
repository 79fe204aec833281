// compile_zoo: what a user pays per design. One op compiles a fixed
// 12-config zoo cold (no CompileCache), emits each design's OpenCL source,
// and runs EstimateFps on every config that fits. Most of the host time
// sits in srclint / codegen / ir / fpga, so a compile-path gain shows here
// and nowhere else.
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "core/deployment.hpp"
#include "core/recipes.hpp"
#include "fpga/board.hpp"
#include "nets/nets.hpp"
#include "prof/prof.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace clflow;

struct ZooConfig {
  std::string name;
  const graph::Graph* net = nullptr;
  const Tensor* input = nullptr;
  core::DeployOptions options;
  fpga::SynthStatus expected = fpga::SynthStatus::kOk;
};

struct Zoo {
  graph::Graph lenet, mobilenet, resnet18;
  Tensor mnist, imagenet;
  std::vector<ZooConfig> configs;
};

/// Builds the nets and inputs from `seed` and the zoo over them. The
/// expected statuses are the pinned fit/route table: ResNet-18 does not
/// fit the Arria 10 (Table 6.14: not enough BRAM); every other config
/// fits and routes.
void BuildZoo(Zoo& zoo, std::uint64_t seed) {
  Rng rng(seed);
  zoo.lenet = nets::BuildLeNet5(rng);
  zoo.mobilenet = nets::BuildMobileNetV1(rng);
  zoo.resnet18 = nets::BuildResNet(18, rng);
  zoo.mnist = nets::SyntheticMnistImage(rng);
  zoo.imagenet = nets::SyntheticImagenetImage(rng);
  zoo.configs.clear();
  auto add = [&](std::string name, const graph::Graph& net,
                 const Tensor& input, core::ExecutionMode mode,
                 core::OptimizationRecipe recipe, const std::string& board,
                 fpga::SynthStatus expected = fpga::SynthStatus::kOk) {
    ZooConfig c;
    c.name = std::move(name);
    c.net = &net;
    c.input = &input;
    c.options.mode = mode;
    c.options.recipe = std::move(recipe);
    c.options.board = fpga::BoardByKey(board);
    c.expected = expected;
    zoo.configs.push_back(std::move(c));
  };
  const char* rungs[] = {"base", "unrolling", "channels", "autorun",
                         "tvm_autorun"};
  const auto ladder = core::PipelineLadder();
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    add("lenet_" + std::string(rungs[i]) + "_s10sx", zoo.lenet, zoo.mnist,
        core::ExecutionMode::kPipelined, ladder[i], "s10sx");
  }
  add("lenet_folded_base_s10sx", zoo.lenet, zoo.mnist,
      core::ExecutionMode::kFolded, core::FoldedBase(), "s10sx");
  for (const char* board : {"a10", "s10sx", "s10mx"}) {
    add(std::string("mobilenet_") + board, zoo.mobilenet, zoo.imagenet,
        core::ExecutionMode::kFolded, core::FoldedMobileNet(board), board);
  }
  for (const char* board : {"a10", "s10sx", "s10mx"}) {
    add(std::string("resnet18_") + board, zoo.resnet18, zoo.imagenet,
        core::ExecutionMode::kFolded, core::FoldedResNet(), board,
        std::string(board) == "a10" ? fpga::SynthStatus::kFitError
                                    : fpga::SynthStatus::kOk);
  }
}

/// What one config produced in one round.
struct ConfigResult {
  fpga::SynthStatus status = fpga::SynthStatus::kOk;
  std::uint64_t source_hash = 0;
  std::size_t source_bytes = 0;
  std::size_t kernels = 0, invocations = 0;
  double sim_fps = 0.0;
};

/// Compile phases as Deployment's tracer names them, and the layer
/// metric each one feeds.
const std::map<std::string, std::string>& PhaseMetrics() {
  static const std::map<std::string, std::string> m = {
      {"fusion", "graph.fusion_ms"},
      {"lowering", "ir.lowering_ms"},
      {"verify", "analysis.verify_ms"},
      {"lint", "analysis.lint_ms"},
      {"srclint", "srclint.ms"},
      {"codegen", "codegen.ms"},
      {"synthesis", "fpga.synthesis_ms"},
      {"prepare_runtime", "ocl.prepare_runtime_ms"},
  };
  return m;
}

/// One config: cold compile, emitted source, and (when it fits) one
/// timing-only EstimateFps. With a trace, the Compile and
/// GeneratedSource spans get the deployment's phase spans as children.
ConfigResult RunOneConfig(const ZooConfig& c, Trace* trace) {
  ConfigResult r;
  std::optional<core::Deployment> d;
  std::size_t compile_spans = 0;
  {
    ScopedSpan span(trace, "Compile:" + c.name);
    d.emplace(core::Deployment::Compile(*c.net, c.options));
    if (trace != nullptr) {
      const std::int64_t tracer_now = d->telemetry().tracer.NowUs();
      trace->Import(d->telemetry().tracer, span.index(), tracer_now,
                    NowUs());
      compile_spans = d->telemetry().tracer.spans().size();
    }
  }
  std::string source;
  {
    ScopedSpan span(trace, "GeneratedSource:" + c.name);
    source = d->GeneratedSource();
    if (trace != nullptr) {
      const std::int64_t tracer_now = d->telemetry().tracer.NowUs();
      trace->Import(d->telemetry().tracer, span.index(), tracer_now, NowUs(),
                    compile_spans);
    }
  }
  r.status = d->bitstream().status;
  r.source_hash = common::FnvHash(source);
  r.source_bytes = source.size();
  r.kernels = d->kernels().size();
  r.invocations = d->invocations().size();
  if (d->ok()) {
    ScopedSpan span(trace, "EstimateFps:" + c.name);
    r.sim_fps = d->EstimateFps(*c.input);
  }
  return r;
}

}  // namespace

Report RunCompileZoo(const RunConfig& cfg) {
  Report report;
  Zoo zoo;
  std::vector<ConfigResult> pinned;
  // Set-up: nets, inputs, and one warm round whose source hashes and
  // sizes every later round must reproduce.
  const double setup_s = MedianSetupSeconds(3, [&] {
    BuildZoo(zoo, cfg.seed);
    pinned.clear();
    for (const ZooConfig& c : zoo.configs) {
      pinned.push_back(RunOneConfig(c, nullptr));
    }
  });

  // One round = one op. Checks: pinned fit/route status, identical
  // source hash and size to the warm round, positive simulated FPS.
  std::vector<ConfigResult> last(zoo.configs.size());
  auto round = [&](Trace* trace) {
    bool ok = true;
    for (std::size_t i = 0; i < zoo.configs.size(); ++i) {
      const ZooConfig& c = zoo.configs[i];
      ConfigResult r;
      try {
        r = RunOneConfig(c, trace);
      } catch (const std::exception& e) {
        report.Fail(c.name + " threw: " + e.what());
        ok = false;
        continue;
      }
      if (r.status != c.expected) {
        report.Fail(c.name + " synthesized as " +
                    std::string(fpga::SynthStatusName(r.status)) +
                    ", pinned " +
                    std::string(fpga::SynthStatusName(c.expected)));
        ok = false;
      }
      if (r.source_hash != pinned[i].source_hash ||
          r.source_bytes != pinned[i].source_bytes) {
        report.Fail(c.name + " emitted different source across rounds");
        ok = false;
      }
      if (r.status == fpga::SynthStatus::kOk && !(r.sim_fps > 0.0)) {
        report.Fail(c.name + " has no simulated FPS");
        ok = false;
      }
      last[i] = r;
    }
    report.Attempt(ok);
  };

  if (!cfg.trace) {
    const std::vector<double> op_ms =
        TimedLoop(cfg.seconds, 3, [&] { round(nullptr); });
    ReportOpTimes(report, op_ms);
    std::vector<double> fps;
    for (const ConfigResult& r : last) {
      if (r.sim_fps > 0.0) fps.push_back(r.sim_fps);
    }
    report.Set("sim_fps_geomean", Geomean(fps), "fps");
  } else {
    // Traced rounds alternate with untraced ones so trace.overhead
    // compares the two under the same conditions.
    std::vector<double> untraced_ms, traced_ms;
    std::map<std::string, std::vector<double>> per_round;
    std::vector<double> phase_share;
    Trace trace;
    const double start = NowUs();
    while (traced_ms.size() < 3 || NowUs() - start < cfg.seconds * 1e6) {
      double t0 = NowUs();
      round(nullptr);
      untraced_ms.push_back((NowUs() - t0) * 1e-3);

      trace.Clear();
      t0 = NowUs();
      round(&trace);
      traced_ms.push_back((NowUs() - t0) * 1e-3);

      // Per-round layer totals from the trace.
      std::map<std::string, double> sums;
      double wall_us = 0.0, srclint_bytes = 0.0;
      for (int i = 0; i < static_cast<int>(trace.spans().size()); ++i) {
        const Trace::Span& s = trace.spans()[static_cast<std::size_t>(i)];
        const bool compile_root = s.parent < 0 &&
                                  (s.name.rfind("Compile:", 0) == 0 ||
                                   s.name.rfind("GeneratedSource:", 0) == 0);
        if (compile_root) {
          wall_us += trace.DurUs(i);
          continue;
        }
        if (s.parent < 0 ||
            trace.spans()[static_cast<std::size_t>(s.parent)].parent >= 0) {
          continue;  // only the phases directly under a compile root
        }
        const auto it = PhaseMetrics().find(s.name);
        if (it == PhaseMetrics().end()) continue;
        sums[it->second] += trace.DurUs(i);
        if (s.name == "srclint") {
          sums["srclint.self"] += trace.SelfUs(i);
          for (const auto& [k, v] : s.args) {
            if (k == "bytes") srclint_bytes += std::stod(v);
          }
        }
      }
      double phases_us = 0.0;
      for (const auto& [name, metric] : PhaseMetrics()) {
        phases_us += sums[metric];
        if (name != "srclint") per_round[metric].push_back(sums[metric] / 1e3);
      }
      const double srclint_self_us = sums["srclint.self"];
      per_round["srclint.ms"].push_back(srclint_self_us / 1e3);
      per_round["core.compile_wall_ms"].push_back(wall_us / 1e3);
      per_round["core.glue_ms"].push_back((wall_us - phases_us) / 1e3);
      per_round["srclint.share"].push_back(srclint_self_us / wall_us);
      per_round["srclint.kb_per_ms"].push_back(
          srclint_self_us > 0.0 ? (srclint_bytes / 1024.0) /
                                      (srclint_self_us / 1e3)
                                : 0.0);
      phase_share.push_back(phases_us / wall_us);
      if (phases_us > wall_us + 1.0) {
        report.Fail("compile phases exceed the compile wall");
      }
    }
    for (const auto& [metric, values] : per_round) {
      const bool is_ratio = metric == "srclint.share";
      const bool is_rate = metric == "srclint.kb_per_ms";
      report.Set(metric, Median(values),
                 is_ratio ? "ratio" : (is_rate ? "KiB/ms" : "ms"));
    }
    report.Set("trace.overhead",
               TraceOverhead(Median(traced_ms), Median(untraced_ms)),
               "ratio");
    char line[160];
    std::snprintf(line, sizeof(line),
                  "compile wall = phase spans + core.glue_ms; the phase "
                  "spans cover %.1f%% of it (median over %zu rounds)",
                  100.0 * Median(phase_share), phase_share.size());
    report.Note(line);
    double bytes = 0.0, kernels = 0.0, invocations = 0.0;
    for (std::size_t i = 0; i < last.size(); ++i) {
      bytes += static_cast<double>(last[i].source_bytes);
      kernels += static_cast<double>(last[i].kernels);
      invocations += static_cast<double>(last[i].invocations);
      if (last[i].sim_fps > 0.0) {
        report.Set("fpga.sim_fps." + zoo.configs[i].name, last[i].sim_fps,
                   "fps");
      }
    }
    report.Set("codegen.bytes", bytes, "bytes");
    report.Set("ir.kernels", kernels, "count");
    report.Set("ir.invocations", invocations, "count");

    // k_pad* share of the folded MobileNet S10SX makespan (prof).
    for (const ZooConfig& c : zoo.configs) {
      if (c.name != "mobilenet_s10sx") continue;
      core::Deployment d = core::Deployment::Compile(*c.net, c.options);
      const prof::Profile p = prof::BuildProfile(d, *c.input);
      double pad_us = 0.0;
      for (const prof::KernelProfile& k : p.kernels) {
        if (k.name.rfind("k_pad", 0) == 0) pad_us += k.total_us;
      }
      report.Set("prof.pad_share.mobilenet_s10sx", pad_us / p.makespan_us,
                 "ratio");
    }
  }
  report.setup_s = setup_s;
  report.Note("zoo: " + std::to_string(zoo.configs.size()) +
              " configs, compiled cold (no CompileCache) each round");
  return report;
}

}  // namespace perfbench
