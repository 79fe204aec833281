// Flow inspector: compiles a network for a board and writes every
// artifact the real flow would produce -- the OpenCL kernels (.cl), the
// custom host program (SS5.2), and the fit report -- so the whole
// compilation can be inspected file by file.
//
// With --report it additionally runs one image and prints the
// observability layer's view of the flow: per-phase compile timings,
// IR-pass statistics, synthesis area, per-queue occupancy/stall metrics,
// per-kernel static-estimate-vs-schedule ratio, and the perfmodel
// comparison. With --trace-out FILE it writes a merged Chrome/Perfetto
// trace (compile-phase spans on one process row, the simulated runtime
// schedule on another).
//
// With --lint it prints the static-analysis diagnostics (IR verifier,
// dataflow checker, perf lints) as a table and exits nonzero when any
// error-severity finding remains. --lint-promote CODE / --lint-demote CODE
// adjust a code's severity before the gate runs; --break-channel injects a
// bogus channel read into the launch plan to demonstrate the checker
// rejecting statically what previously only failed at runtime.
//
// With --lint-src the emitted OpenCL source is re-parsed and validated
// against the plan by clflow::srclint (the CLF8xx family: translation
// validation, loop-carried dependences, provable OOB indices, hygiene
// lints). Diagnostics print as a table and land in <base>_srclint.json;
// any error-severity finding exits nonzero. --srclint-inject MODE
// demonstrates each code firing deterministically: modes parse/sig/
// chan-endpoint/unroll/chan-type/restrict corrupt the real emission
// before linting (CLF800/801/802/803/804/807), while loop-dep/oob/
// dead-store/uninit lint a built-in defective kernel plan-free
// (CLF805/806/808/809).
//
// With --inject-fault SPEC (repeatable; see resilience/fault.hpp for the
// spec grammar, e.g. xfer-fail:write:0:2 or hang:k_conv1) it runs one
// functional image under a deterministic fault plan (--fault-seed N, 17
// by default), checks the recovered output bit-exactly against the graph
// oracle, and prints the injected-fault log plus the runtime's recovery
// counters; unrecovered faults print the structured CLF5xx error and exit
// nonzero. With --fallback the compile goes through
// core::CompileWithFallback and prints the degradation ladder;
// --over-tile first inflates the 1x1 tiling to a config known to fail
// routing on s10sx, demonstrating the recovery.
//
// With --profile it runs one timing image through the profiler
// (prof::BuildProfile): per-kernel bottleneck attribution (II / memory-BW
// / channel-stall / fmax / launch-overhead), the roofline view, queue
// busy/idle, and predicted-vs-observed drift. The report is printed as
// text and written as <base>_profile.txt/.json/.html (the HTML embeds the
// timeline and attribution bars, no external assets); drift and
// conservation violations surface as CLF6xx diagnostics.
//
// With --dse the folded tiling explorer (core::ExploreFoldedTilings) runs
// first and the compile uses its best recipe; the ranked table, every
// rejection counter (divisibility/bandwidth/bound/dominated/fit/route),
// the top_k truncation line (worst kept vs. best dropped fps), and the
// compile-cache hit statistics are printed. --dse-jobs N compiles
// candidates on N worker threads (the result is identical for any N);
// --dse-dominance enables the heuristic dominance filter.
//
// With --monitor it drives a batch of timing requests through the
// telemetry::SloMonitor (p50/p95/p99 latency, goodput, error-budget burn
// rate against a budget anchored 5% above the first request) and writes
// <base>_monitor.json plus a Prometheus text exposition of every runtime
// metric as <base>_metrics.prom. Every run also arms the flight recorder:
// when a RuntimeFaultError or VerifyError escapes, the recent structured
// event ring is dumped to <base>_flightrec.json for postmortem debugging.
//
// With --replicas N the faulted image (or a clean one) is routed through
// an ha::ReplicaSet of N boards, each an instance of the compiled design,
// instead of a single deployment: any
// --inject-fault plan lands on board 0, the dispatcher fails the batch
// over, and the per-board health table plus the ha.* gauges are printed.
// With --observatory a deterministic open-loop load generator
// (serve::RunLoadCampaign) drives the compiled deployment -- or a replica
// set when --replicas N is also given, with any --inject-fault plan armed
// on board 0 -- under a pinned-seed Poisson trace and a bursty trace
// (--obs-requests N, --obs-seed N). It writes the self-contained
// observatory dashboards (<base>_observatory[_bursty].html), the combined
// machine-readable report (<base>_observatory.json), and a Chrome-trace
// counter file (<base>_observatory_trace.json), then prints per-campaign
// summaries and a final `observatory-digest:` line the CI smoke diffs
// across runs.
//
// With --chaos a deterministic ha::ChaosCampaign sweeps seeded fault
// plans (--chaos-scenarios N, --chaos-seed N) across fresh replica sets
// and asserts the four recovery invariants per scenario; the summary
// prints, any violation exits nonzero, and --chaos-report additionally
// writes the per-scenario JSON table to <base>_chaos.json.
//
// usage: example_flow_inspector [lenet|mobilenet|resnet18|resnet34]
//                               [a10|s10sx|s10mx] [pipelined|folded]
//                               [outdir] [--report] [--profile]
//                               [--monitor] [--trace-out FILE]
//                               [--lint] [--lint-promote CODE]
//                               [--lint-demote CODE] [--break-channel]
//                               [--lint-src] [--srclint-inject MODE]
//                               [--inject-fault SPEC] [--fault-seed N]
//                               [--fallback] [--over-tile]
//                               [--dse] [--dse-jobs N] [--dse-dominance]
//                               [--replicas N] [--chaos]
//                               [--chaos-scenarios N] [--chaos-seed N]
//                               [--chaos-report] [--observatory]
//                               [--obs-requests N] [--obs-seed N]
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataflow_checker.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "ha/chaos.hpp"
#include "ha/replica_set.hpp"
#include "core/dse.hpp"
#include "core/fallback.hpp"
#include "core/host_codegen.hpp"
#include "fpga/report.hpp"
#include "nets/nets.hpp"
#include "obs/json.hpp"
#include "ocl/trace.hpp"
#include "perfmodel/reference.hpp"
#include "prof/prof.hpp"
#include "prof/report.hpp"
#include "resilience/fault.hpp"
#include "serve/loadgen.hpp"
#include "serve/observatory.hpp"
#include "srclint/inject.hpp"
#include "srclint/srclint.hpp"

namespace {

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << contents;
  std::printf("wrote %-28s (%zu bytes)\n", path.c_str(), contents.size());
}

/// Parses the value of numeric flag argv[i] from argv[i + 1], advancing
/// `i` past it. The value must be a non-negative decimal integer that
/// fits in T; a missing, non-numeric, negative or out-of-range value (or
/// trailing garbage) prints why and exits 1.
template <typename T>
T ParseCount(int& i, int argc, char** argv) {
  const char* flag = argv[i];
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s requires an integer argument\n", flag);
    std::exit(1);
  }
  const std::string text = argv[++i];
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  const char* why = nullptr;
  if (text.starts_with('-')) {
    why = "must not be negative";
  } else if (ec == std::errc::result_out_of_range) {
    why = "is out of range";
  } else if (ec != std::errc() || end != text.data() + text.size()) {
    why = "is not a non-negative integer";
  }
  if (why != nullptr) {
    std::fprintf(stderr, "%s: '%s' %s\n", flag, text.c_str(), why);
    std::exit(1);
  }
  return value;
}

/// Builds the --inject-fault plan; a malformed spec prints why and exits 1.
clflow::resilience::FaultPlan ParseFaultPlan(
    const std::vector<std::string>& specs, std::uint64_t seed) {
  clflow::resilience::FaultPlan plan;
  plan.seed = seed;
  try {
    for (const auto& spec : specs) {
      plan.specs.push_back(clflow::resilience::ParseFaultSpec(spec));
    }
  } catch (const clflow::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(1);
  }
  return plan;
}

/// True when `output` equals the graph oracle's result on `image` bit for
/// bit.
bool MatchesOracle(const clflow::core::Deployment& d,
                   const clflow::Tensor& image, const clflow::Tensor& output) {
  const clflow::Tensor expected =
      clflow::graph::Execute(d.fused_graph(), image, 1);
  const clflow::Tensor got = output.Reshaped(expected.shape());
  const auto g_span = got.data();
  const auto e_span = expected.data();
  return std::equal(g_span.begin(), g_span.end(), e_span.begin());
}

/// Per-phase compile timings from the tracer: top-level phases plus one
/// indented level, with the IR-pass spam left to the aggregated pass table.
/// Gate diagnostics mirrored into the tracer (category "diag") are not
/// phases; they print in the diagnostics table.
void PrintCompilePhases(const clflow::obs::Tracer& tracer) {
  clflow::Table table({"Phase", "Wall us", "Detail"});
  for (const auto& span : tracer.spans()) {
    if (span.depth > 1 || span.category == "diag") continue;
    std::string detail;
    for (const auto& [key, value] : span.args) {
      if (!detail.empty()) detail += " ";
      detail += key + "=" + value;
    }
    table.AddRow({std::string(static_cast<std::size_t>(span.depth) * 2, ' ') +
                      span.name,
                  clflow::Table::Num(static_cast<double>(span.dur_us), 0),
                  detail});
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace clflow;
  std::vector<std::string> positional;
  bool report = false;
  bool profile = false;
  bool monitor = false;
  bool lint = false;
  bool lint_src = false;
  std::string srclint_inject;
  bool break_channel = false;
  bool use_fallback = false;
  bool over_tile = false;
  bool run_dse = false;
  bool dse_dominance = false;
  int dse_jobs = 1;
  std::vector<std::string> fault_specs;
  std::uint64_t fault_seed = 17;
  int replicas = 0;
  bool observatory = false;
  int obs_requests = 240;
  std::uint64_t obs_seed = 2021;
  bool chaos = false;
  bool chaos_report = false;
  int chaos_scenarios = 200;
  std::uint64_t chaos_seed = 2021;
  std::vector<std::pair<std::string, analysis::Severity>> overrides;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--report") {
      report = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--monitor") {
      monitor = true;
    } else if (arg == "--fallback") {
      use_fallback = true;
    } else if (arg == "--over-tile") {
      over_tile = true;
    } else if (arg == "--dse") {
      run_dse = true;
    } else if (arg == "--dse-jobs") {
      run_dse = true;
      dse_jobs = ParseCount<int>(i, argc, argv);
    } else if (arg == "--dse-dominance") {
      run_dse = true;
      dse_dominance = true;
    } else if (arg == "--inject-fault") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--inject-fault requires a spec argument\n");
        return 1;
      }
      fault_specs.emplace_back(argv[++i]);
    } else if (arg == "--fault-seed") {
      fault_seed = ParseCount<std::uint64_t>(i, argc, argv);
    } else if (arg == "--replicas") {
      replicas = ParseCount<int>(i, argc, argv);
    } else if (arg == "--observatory") {
      observatory = true;
    } else if (arg == "--obs-requests") {
      observatory = true;
      obs_requests = ParseCount<int>(i, argc, argv);
    } else if (arg == "--obs-seed") {
      observatory = true;
      obs_seed = ParseCount<std::uint64_t>(i, argc, argv);
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--chaos-report") {
      chaos = true;
      chaos_report = true;
    } else if (arg == "--chaos-scenarios") {
      chaos = true;
      chaos_scenarios = ParseCount<int>(i, argc, argv);
    } else if (arg == "--chaos-seed") {
      chaos = true;
      chaos_seed = ParseCount<std::uint64_t>(i, argc, argv);
    } else if (arg == "--lint") {
      lint = true;
    } else if (arg == "--lint-src") {
      lint_src = true;
    } else if (arg == "--srclint-inject") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--srclint-inject requires a mode argument\n");
        return 1;
      }
      lint_src = true;
      srclint_inject = argv[++i];
    } else if (arg == "--break-channel") {
      lint = true;
      break_channel = true;
    } else if (arg == "--lint-promote" || arg == "--lint-demote") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a CLF code argument\n", arg.c_str());
        return 1;
      }
      overrides.emplace_back(argv[++i], arg == "--lint-promote"
                                            ? analysis::Severity::kError
                                            : analysis::Severity::kWarning);
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace-out requires a file argument\n");
        return 1;
      }
      trace_out = argv[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else {
      positional.push_back(arg);
    }
  }
  const std::string net_name = positional.size() > 0 ? positional[0] : "lenet";
  const std::string board_key = positional.size() > 1 ? positional[1]
                                                      : "s10sx";
  const std::string mode_name = positional.size() > 2 ? positional[2] : "";
  const std::string outdir = positional.size() > 3 ? positional[3] : ".";

  Rng rng(17);
  graph::Graph net;
  if (net_name == "lenet") {
    net = nets::BuildLeNet5(rng);
  } else if (net_name == "mobilenet") {
    net = nets::BuildMobileNetV1(rng);
  } else if (net_name == "resnet18") {
    net = nets::BuildResNet(18, rng);
  } else if (net_name == "resnet34") {
    net = nets::BuildResNet(34, rng);
  } else {
    std::fprintf(stderr, "unknown network %s\n", net_name.c_str());
    return 1;
  }

  const std::string base = outdir + "/" + net.name() + "_" + board_key;

  core::DeployOptions opts;
  opts.board = fpga::BoardByKey(board_key);
  // Arm the flight recorder: a RuntimeFaultError/VerifyError escaping
  // Compile or Run dumps the recent-event ring here for postmortems.
  opts.flightrec_path = base + "_flightrec.json";
  const bool pipelined =
      mode_name.empty() ? net_name == "lenet" : mode_name == "pipelined";
  if (pipelined) {
    opts.mode = core::ExecutionMode::kPipelined;
    opts.recipe = core::PipelineTvmAutorun();
    opts.recipe.concurrent_execution = true;
  } else {
    opts.mode = core::ExecutionMode::kFolded;
    if (net_name == "mobilenet") {
      opts.recipe = core::FoldedMobileNet(board_key);
    } else if (net_name == "lenet") {
      opts.recipe = core::FoldedBase();
    } else {
      opts.recipe = core::FoldedResNet();
    }
  }

  if (over_tile) {
    // The Table 6.6 sweep's known routing casualty on Stratix 10 SX:
    // C1/W2/C2 = 8/7/16 synthesizes but fails to route. With --fallback
    // the ladder walks it back to a routable configuration.
    opts.recipe.conv1x1 = core::ConvTiling{8, 7, 16, true};
    opts.recipe.name += "+overtile";
  }

  for (const auto& [code, severity] : overrides) {
    opts.analysis.severity_overrides[code] = severity;
  }

  std::optional<core::DseResult> dse;
  if (run_dse) {
    if (pipelined) {
      std::fprintf(stderr, "--dse applies to folded execution only\n");
      return 1;
    }
    core::DseOptions dopts;
    dopts.jobs = dse_jobs;
    dopts.dominance_prune = dse_dominance;
    std::printf("exploring folded tilings for %s on %s (%d job(s))...\n",
                net.name().c_str(), opts.board.name.c_str(),
                dopts.jobs);
    dse = core::ExploreFoldedTilings(net, opts.board, dopts, opts.cost_model);
    std::printf(
        "\n--- DSE: %zu considered | rejected %zu divisibility, %zu "
        "bandwidth, %zu bound, %zu dominated, %zu fit, %zu route ---\n",
        dse->considered, dse->rejected_divisibility, dse->rejected_bandwidth,
        dse->rejected_bound, dse->rejected_dominated, dse->rejected_fit,
        dse->rejected_route);
    Table ranked({"Rank", "C1/W2/C2", "FPS", "fmax MHz", "DSPs", "ALUT %"});
    for (std::size_t i = 0; i < dse->ranked.size(); ++i) {
      const core::DseCandidate& c = dse->ranked[i];
      ranked.AddRow({std::to_string(i + 1),
                     std::to_string(c.conv1x1.c1) + "/" +
                         std::to_string(c.conv1x1.w2) + "/" +
                         std::to_string(c.conv1x1.c2),
                     Table::Num(c.predicted_fps, 1),
                     Table::Num(c.fmax_mhz, 0),
                     std::to_string(c.dsps), Table::Pct(c.alut_frac)});
    }
    ranked.Print();
    if (dse->truncated()) {
      std::printf(
          "top_k truncated: kept %zu of %zu feasible; worst kept %.2f fps, "
          "best dropped %.2f fps\n",
          dse->ranked.size(), dse->feasible_total, dse->worst_kept_fps,
          dse->best_dropped_fps);
    } else {
      std::printf("all %zu feasible candidates kept (worst %.2f fps)\n",
                  dse->feasible_total, dse->worst_kept_fps);
    }
    std::printf(
        "compile cache: %lld hits / %lld misses (%.0f%% hit rate), %lld "
        "entries, %.1f KiB\n",
        static_cast<long long>(dse->cache_stats.hits()),
        static_cast<long long>(dse->cache_stats.misses()),
        dse->cache_stats.hit_rate() * 100.0,
        static_cast<long long>(dse->cache_stats.entries),
        static_cast<double>(dse->cache_stats.bytes) / 1024.0);
    if (dse->ranked.empty()) {
      std::fprintf(stderr, "DSE found no feasible configuration\n");
      return 1;
    }
    opts.recipe = dse->BestRecipe(board_key);
  }

  std::printf("compiling %s for %s (%s)...\n", net.name().c_str(),
              opts.board.name.c_str(), pipelined ? "pipelined" : "folded");
  std::optional<core::Deployment> compiled;
  if (use_fallback) {
    core::FallbackResult fb = core::CompileWithFallback(net, opts);
    std::printf("\n--- fallback ladder (%zu attempt(s)) ---\n",
                fb.attempts.size());
    for (const auto& a : fb.attempts) {
      std::printf("%s\n", a.ToString().c_str());
    }
    if (!fb.ok()) {
      std::fprintf(stderr,
                   "fallback: ladder exhausted without a synthesizable "
                   "design\n");
      return 1;
    }
    if (fb.recovered()) {
      std::printf("recovered after %zu attempts\n", fb.attempts.size());
    }
    compiled.emplace(std::move(*fb.deployment));
  } else {
    try {
      compiled = core::Deployment::Compile(net, opts);
    } catch (const VerifyError& e) {
      std::fprintf(stderr, "static analysis failed:\n%s", e.what());
      std::fprintf(stderr, "flight recorder dumped to %s\n",
                   opts.flightrec_path.c_str());
      return 1;
    }
  }
  core::Deployment& d = *compiled;

  if (lint) {
    auto& diags = d.diagnostics();
    if (break_channel) {
      // Perturb the plan: a consumer of a channel nothing writes. Before
      // the dataflow checker existed this configuration compiled fine and
      // deadlocked inside ocl::Runtime; now it is a static CLF201.
      analysis::Plan plan = d.AnalysisPlan();
      analysis::PlanStep bogus;
      bogus.kernel = "k_injected_consumer";
      bogus.reads.push_back("ch_nonexistent");
      plan.steps.push_back(std::move(bogus));
      analysis::CheckDataflow(plan, diags);
    }
    std::printf("\n--- static analysis (%d error(s), %d warning(s)) ---\n",
                diags.error_count(), diags.warning_count());
    if (!diags.diagnostics().empty()) diags.SummaryTable().Print();
    if (diags.HasErrors()) {
      std::fprintf(stderr, "lint: %d error(s)\n", diags.error_count());
      return 1;
    }
  }

  if (lint_src) {
    // A fresh engine: the compile gate already ran srclint once; this is
    // the offline view of the same check (optionally over a corrupted
    // emission or a built-in defective kernel).
    analysis::DiagnosticEngine sdiags;
    for (const auto& [code, severity] : overrides) {
      sdiags.OverrideSeverity(code, severity);
    }
    std::string source;
    if (const char* snippet =
            srclint_inject.empty()
                ? nullptr
                : srclint::SyntheticDefectSnippet(srclint_inject)) {
      source = snippet;
      srclint::LintSource(source, sdiags);
      std::printf("\nsrclint: built-in '%s' kernel, linted plan-free\n",
                  srclint_inject.c_str());
    } else {
      source = d.GeneratedSource();
      if (!srclint_inject.empty()) {
        auto corrupted =
            srclint::InjectDefect(srclint_inject, std::move(source));
        if (!corrupted) {
          std::fprintf(stderr,
                       "--srclint-inject %s: unknown mode or no anchor text "
                       "in this design's emission\n",
                       srclint_inject.c_str());
          return 1;
        }
        source = std::move(*corrupted);
        std::printf("\nsrclint: emission corrupted with mode '%s'\n",
                    srclint_inject.c_str());
      }
      std::vector<const ir::Kernel*> planned;
      planned.reserve(d.kernels().size());
      for (const auto& pk : d.kernels()) {
        planned.push_back(&pk.built.kernel);
      }
      srclint::LintProgram(source, planned, sdiags);
    }
    std::printf("\n--- srclint (%d error(s), %d warning(s)) ---\n",
                sdiags.error_count(), sdiags.warning_count());
    if (!sdiags.diagnostics().empty()) sdiags.SummaryTable().Print();
    WriteFile(base + "_srclint.json", sdiags.ToJson());
    if (sdiags.HasErrors()) {
      std::fprintf(stderr, "srclint: %d error(s)\n", sdiags.error_count());
      return 1;
    }
  }

  WriteFile(base + "_fit_report.txt", fpga::WriteFitReport(d.bitstream()));
  if (!d.ok()) {
    std::printf("design does not synthesize: %s\n",
                d.bitstream().status_detail.c_str());
    if (report) {
      std::printf("\n--- compile phases (wall clock) ---\n");
      PrintCompilePhases(d.telemetry().tracer);
      std::printf("\n--- compile metrics ---\n");
      d.telemetry().registry.SummaryTable().Print();
    }
    return 0;
  }
  WriteFile(base + ".cl", d.GeneratedSource());
  WriteFile(base + "_host.cpp", core::EmitHostProgram(d));
  WriteFile(base + "_graph.txt", d.fused_graph().ToString());

  std::printf("\nfmax %.0f MHz, %zu kernels, %zu invocations/pass\n",
              d.bitstream().fmax_mhz, d.kernels().size(),
              d.invocations().size());

  const Shape& in_shape = net.node(net.input_id()).output_shape;
  Tensor image = Tensor::Random(in_shape, rng, 0.0f, 1.0f);

  if (observatory) {
    // Pinned-seed load campaigns: a Poisson trace (steady state) and a
    // bursty one (queueing under overload) through the same target. Each
    // campaign gets a fresh target so health state never leaks between
    // them -- that is what makes the digests reproducible.
    std::optional<resilience::FaultPlan> plan;
    if (!fault_specs.empty()) plan = ParseFaultPlan(fault_specs, fault_seed);
    auto campaign = [&](serve::TraceShape shape) {
      serve::LoadgenOptions lo;
      lo.seed = obs_seed;
      lo.requests = obs_requests;
      lo.shape = shape;
      if (replicas > 0) {
        ha::HaOptions haopts;
        haopts.replicas = replicas;
        ha::ReplicaSet rs(d, haopts);
        if (plan) {
          rs.set_fault_injector(
              0, std::make_shared<resilience::FaultInjector>(*plan));
        }
        return serve::RunLoadCampaign(rs, image, lo);
      }
      return serve::RunLoadCampaign(d, image, lo);
    };
    const std::string target_note =
        replicas > 0 ? ", " + std::to_string(replicas) + " replica(s)" : "";
    std::printf("\n--- observatory: %d request(s)/campaign, seed %llu%s "
                "---\n",
                obs_requests, static_cast<unsigned long long>(obs_seed),
                target_note.c_str());
    const serve::LoadgenReport poisson =
        campaign(serve::TraceShape::kPoisson);
    const serve::LoadgenReport bursty = campaign(serve::TraceShape::kBursty);
    const serve::Observatory obs_p =
        serve::BuildObservatory(poisson, net.name() + " @ " + board_key);
    const serve::Observatory obs_b =
        serve::BuildObservatory(bursty, net.name() + " @ " + board_key);
    Table summary({"Campaign", "p50 us", "p99 us", "Goodput", "Achieved rps",
                   "Peak occ", "Failovers", "Errors"});
    for (const serve::Observatory* o : {&obs_p, &obs_b}) {
      summary.AddRow({o->shape, Table::Num(o->p50_us, 1),
                      Table::Num(o->p99_us, 1), Table::Pct(o->goodput),
                      Table::Num(o->achieved_rps, 1),
                      Table::Pct(o->peak_occupancy),
                      std::to_string(o->failovers),
                      std::to_string(o->errors)});
    }
    summary.Print();
    WriteFile(base + "_observatory.html", obs_p.ToHtml());
    WriteFile(base + "_observatory_bursty.html", obs_b.ToHtml());
    WriteFile(base + "_observatory.json", "{\"poisson\":" + obs_p.ToJson() +
                                              ",\"bursty\":" +
                                              obs_b.ToJson() + "}");
    WriteFile(base + "_observatory_trace.json", obs_p.ToChromeTrace());
    std::printf("observatory-digest: poisson %016llx bursty %016llx\n",
                static_cast<unsigned long long>(obs_p.digest),
                static_cast<unsigned long long>(obs_b.digest));
    return 0;
  }

  if (chaos) {
    ha::ChaosOptions copts;
    copts.scenarios = chaos_scenarios;
    copts.seed = chaos_seed;
    copts.replicas = replicas > 0 ? replicas : 2;
    copts.jobs = HardwareThreads();
    // Scenario postmortems (quarantine + escaping-fault dumps) land next
    // to the other artifacts as <base>_chaos_s<i>_board<j>_*.json.
    copts.flightrec_prefix = base + "_chaos_";
    std::printf(
        "\n--- chaos campaign: %d scenario(s), seed %llu, %d replica(s), "
        "%d job(s) ---\n",
        copts.scenarios, static_cast<unsigned long long>(copts.seed),
        copts.replicas, copts.jobs);
    const ha::ChaosReport rep = ha::RunChaosCampaign(net, opts, copts);
    std::printf("%s", rep.SummaryTable().c_str());
    std::printf("digest %016llx\n",
                static_cast<unsigned long long>(rep.Digest()));
    if (chaos_report) WriteFile(base + "_chaos.json", rep.ToJson());
    if (!rep.ok()) {
      std::fprintf(stderr, "chaos: %d scenario(s) violated an invariant\n",
                   rep.failed);
      return 3;
    }
    return 0;
  }

  if (replicas > 0) {
    ha::HaOptions haopts;
    haopts.replicas = replicas;
    haopts.flightrec_prefix = base + "_ha_";
    std::printf("\n--- replica set: %d board(s) ---\n", replicas);
    ha::ReplicaSet rs(d, haopts);
    if (!fault_specs.empty()) {
      const resilience::FaultPlan plan =
          ParseFaultPlan(fault_specs, fault_seed);
      rs.set_fault_injector(
          0, std::make_shared<resilience::FaultInjector>(plan));
      std::printf("fault plan (seed %llu, %zu spec(s)) armed on board 0\n",
                  static_cast<unsigned long long>(fault_seed),
                  plan.specs.size());
    }
    const ha::HaRunResult r = rs.Run(image, /*functional=*/true);
    const bool exact = MatchesOracle(d, image, r.output);
    const std::string served_by =
        r.used_fallback ? "the folded fallback"
                        : "board " + std::to_string(r.board);
    std::printf(
        "batch served by %s after %d failover(s): latency %.1f us, "
        "recovery %.1f us, output %s the oracle\n",
        served_by.c_str(), r.failovers(), r.latency.us(),
        r.recovery_time.us(),
        exact ? "bit-exactly matches" : "DIVERGES from");
    Table health({"Board", "Health", "Dispatched", "Completed", "Faults",
                  "Quarantines", "Probes"});
    for (int b = 0; b < rs.num_replicas(); ++b) {
      const ha::BoardState& st = rs.board_state(b);
      health.AddRow({std::to_string(b),
                     std::string(ha::BoardHealthName(st.health)),
                     std::to_string(st.dispatched),
                     std::to_string(st.completed),
                     std::to_string(st.faults),
                     std::to_string(st.quarantines),
                     std::to_string(st.probes)});
    }
    health.Print();
    obs::Registry hareg;
    rs.ExportMetrics(hareg);
    std::printf("\n--- ha metrics ---\n");
    hareg.SummaryTable().Print();
    if (!rs.diagnostics().diagnostics().empty()) {
      rs.diagnostics().SummaryTable().Print();
    }
    return exact ? 0 : 2;
  }

  if (!fault_specs.empty()) {
    const resilience::FaultPlan plan =
        ParseFaultPlan(fault_specs, fault_seed);
    auto injector = std::make_shared<resilience::FaultInjector>(plan);
    auto& rt = d.runtime();
    rt.set_fault_injector(injector);
    std::printf("\n--- fault injection (seed %llu, %zu spec(s)) ---\n",
                static_cast<unsigned long long>(fault_seed),
                plan.specs.size());
    int fault_rc = 0;
    try {
      const auto faulted = d.Run(image, /*functional=*/true);
      const bool exact = MatchesOracle(d, image, faulted.output);
      std::printf("recovered run: latency %.1f us, output %s the oracle\n",
                  faulted.latency.us(),
                  exact ? "bit-exactly matches" : "DIVERGES from");
      if (!exact) fault_rc = 2;
    } catch (const RuntimeFaultError& e) {
      std::fprintf(stderr,
                   "unrecovered runtime fault: %s\n  code=%s kernel=%s "
                   "channel=%s attempts=%d\n  %s\n",
                   e.what(), e.code().c_str(), e.kernel().c_str(),
                   e.channel().c_str(), e.attempts(),
                   e.queue_snapshot().c_str());
      std::fprintf(stderr, "flight recorder dumped to %s\n",
                   opts.flightrec_path.c_str());
      fault_rc = 2;
    }
    for (const auto& f : injector->injected()) {
      std::printf("injected: %s\n", f.ToString().c_str());
    }
    std::printf(
        "recovery: %lld transfer retries, %lld kernel reruns, %lld "
        "reprograms, %.1f us backoff\n",
        static_cast<long long>(rt.xfer_retries()),
        static_cast<long long>(rt.kernel_reruns()),
        static_cast<long long>(rt.reprograms()), rt.backoff_time().us());
    if (!d.diagnostics().diagnostics().empty()) {
      d.diagnostics().SummaryTable().Print();
    }
    // Detach so the report/trace runs below are fault-free; the faulted
    // run's events stay in the trace.
    rt.set_fault_injector(nullptr);
    if (fault_rc != 0) return fault_rc;
  }

  if (!report && !profile && !monitor && trace_out.empty()) return 0;

  // One timing-only image drives the runtime-side metrics and the trace.
  const auto run = d.Run(image, /*functional=*/false);
  const double fps = 1.0 / run.latency.seconds();

  if (report) {
    std::printf("\n--- compile phases (wall clock) ---\n");
    PrintCompilePhases(d.telemetry().tracer);

    std::printf("\n--- compile & pass metrics ---\n");
    d.telemetry().registry.SummaryTable().Print();

    std::printf("\n--- runtime metrics (one image, simulated) ---\n");
    std::printf("latency %.1f us (%.1f fps)\n", run.latency.us(), fps);
    Table queues({"Queue", "Busy us", "Idle us", "Occupancy"});
    auto& rt = d.runtime();
    for (int q = 0; q < rt.num_queues(); ++q) {
      const auto usage = rt.queue_usage(q);
      const SimTime span = usage.busy + usage.idle;
      queues.AddRow({std::to_string(q), Table::Num(usage.busy.us(), 1),
                     Table::Num(usage.idle.us(), 1),
                     Table::Pct(span > kSimTimeZero
                                    ? usage.busy.seconds() / span.seconds()
                                    : 0.0)});
    }
    queues.Print();
    if (!rt.channel_stall().empty()) {
      std::printf("\n");
      Table stalls({"Channel", "Stall us"});
      for (const auto& [chan, t] : rt.channel_stall()) {
        stalls.AddRow({chan, Table::Num(t.us(), 1)});
      }
      stalls.Print();
    }

    obs::Registry runtime_registry;
    d.ExportRuntimeMetrics(runtime_registry);
    if (dse) dse->ExportMetrics(runtime_registry);
    runtime_registry.gauge("perf.fps").Set(fps);
    runtime_registry.gauge("perf.ref.tf_cpu_fps")
        .Set(perfmodel::TensorflowCpuFps(net));
    runtime_registry.gauge("perf.ref.tvm4_fps")
        .Set(perfmodel::TvmCpuFps(net, 4));
    runtime_registry.gauge("perf.ref.tf_gpu_fps")
        .Set(perfmodel::TensorflowGpuFps(net));
    runtime_registry.gauge("perf.speedup_vs_tf_cpu")
        .Set(fps / perfmodel::TensorflowCpuFps(net));
    std::printf("\n--- runtime & perfmodel metrics ---\n");
    runtime_registry.SummaryTable().Print();

    WriteFile(base + "_metrics.json",
              "{\"compile\":" + d.telemetry().registry.ToJson() +
                  ",\"runtime\":" + runtime_registry.ToJson() +
                  ",\"diagnostics\":" + d.diagnostics().ToJson() + "}");
  }

  if (profile) {
    prof::ProfileOptions popts;
    const prof::Profile p = prof::BuildProfile(d, image, popts);
    prof::EmitDiagnostics(p, d.diagnostics(), popts);
    std::printf("\n%s", prof::ToText(p).c_str());
    if (!d.diagnostics().diagnostics().empty()) {
      std::printf("\n--- profiler diagnostics ---\n");
      d.diagnostics().SummaryTable().Print();
    }
    WriteFile(base + "_profile.txt", prof::ToText(p));
    WriteFile(base + "_profile.json", prof::ToJson(p));
    WriteFile(base + "_profile.html", prof::ToHtml(p));
  }

  if (monitor) {
    // A batch of timing requests through the SLO monitor. The simulated
    // clock is deterministic, so a healthy deployment shows zero
    // violations against a budget 5% above the first request; faults and
    // fmax droop push requests over it and burn the error budget.
    telemetry::SloSpec spec;
    spec.latency_objective_us = run.latency.us() * 1.05;
    spec.window = 16;
    telemetry::SloMonitor slo(spec);
    auto& rt = d.runtime();
    constexpr int kRequests = 24;
    for (int i = 0; i < kRequests; ++i) {
      const auto r = d.Run(image, /*functional=*/false);
      slo.ObserveRequest(ocl::SummarizeRequest(rt.event_pool(), r.trace_id),
                         &d.diagnostics());
    }
    std::printf("\n--- SLO monitor (%d requests) ---\n%s", kRequests,
                slo.ToText().c_str());
    obs::Registry reg;
    slo.ExportMetrics(reg);
    d.ExportRuntimeMetrics(reg);
    if (dse) dse->ExportMetrics(reg);
    WriteFile(base + "_monitor.json", slo.ToJson());
    WriteFile(base + "_metrics.prom", reg.ToPrometheus());
  }

  if (!trace_out.empty()) {
    WriteFile(trace_out,
              ocl::ExportChromeTrace(d.runtime().event_pool(),
                                     d.telemetry().tracer.spans(),
                                     net.name() + "@" + board_key));
  }
  return 0;
}
