// Tests for the profiler layer: the attribution conservation invariant
// on real deployments, bottleneck classification, fmax-droop showing up
// as CLF601 drift, the CLF602/CLF603 invariant diagnostics, report
// generation, and the bench-snapshot diff semantics bench_diff gates CI
// with.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "nets/nets.hpp"
#include "obs/json.hpp"
#include "prof/bench_compare.hpp"
#include "prof/prof.hpp"
#include "prof/report.hpp"
#include "resilience/fault.hpp"

namespace clflow {
namespace {

core::Deployment CompileFoldedLenet() {
  Rng rng(7);
  graph::Graph lenet = nets::BuildLeNet5(rng);
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kFolded;
  o.recipe = core::FoldedBase();
  o.board = fpga::Stratix10SX();
  return core::Deployment::Compile(lenet, o);
}

core::Deployment CompilePipelinedLenet() {
  Rng rng(7);
  graph::Graph lenet = nets::BuildLeNet5(rng);
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kPipelined;
  o.recipe = core::PipelineTvmAutorun();
  o.recipe.concurrent_execution = true;
  o.board = fpga::Stratix10SX();
  return core::Deployment::Compile(lenet, o);
}

Tensor LenetImage() {
  Rng rng(8);
  return nets::SyntheticMnistImage(rng);
}

// ------------------------------------------------- attribution invariants

TEST(Prof, FoldedLenetAttributionConserves) {
  auto d = CompileFoldedLenet();
  ASSERT_TRUE(d.ok());
  const prof::Profile p = prof::BuildProfile(d, LenetImage());

  EXPECT_EQ(p.unmatched_events, 0u);
  EXPECT_LT(p.conservation_error_us, 1e-6);
  ASSERT_FALSE(p.events.empty());
  for (const auto& e : p.events) {
    // The decomposition sums to the event duration exactly, each term
    // nonnegative.
    EXPECT_NEAR(e.compute_us + e.memory_us + e.fmax_us, e.duration_us, 1e-9)
        << e.kernel;
    EXPECT_GE(e.compute_us, 0.0);
    EXPECT_GE(e.memory_us, 0.0);
    EXPECT_GE(e.fmax_us, 0.0);
  }

  // Per-kernel aggregates conserve too, and shares sum to one.
  double share = 0.0;
  for (const auto& k : p.kernels) {
    EXPECT_NEAR(k.compute_us + k.memory_us + k.fmax_us, k.total_us, 1e-6)
        << k.name;
    share += k.share;
  }
  EXPECT_NEAR(share, 1.0, 1e-9);

  // Makespan-level conservation: per queue, busy + idle == the batch
  // makespan (where transfers and launch overhead live).
  ASSERT_FALSE(p.queues.empty());
  for (const auto& q : p.queues) {
    EXPECT_NEAR(q.busy_us + q.idle_us, p.makespan_us, 1e-3)
        << "queue " << q.queue;
  }
}

TEST(Prof, FoldedLenetMatchesSynthesisModelAtBitstreamClock) {
  auto d = CompileFoldedLenet();
  ASSERT_TRUE(d.ok());
  const prof::Profile p = prof::BuildProfile(d, LenetImage());
  // The simulated runtime uses the same cost model the profiler predicts
  // with, so a fault-free run has ~zero drift everywhere.
  for (const auto& k : p.kernels) {
    EXPECT_LT(std::abs(k.drift), 1e-6) << k.name;
  }
  // And the achieved clock is below the base clock, so part of every
  // compute-bound launch is attributed to fmax, never negative.
  EXPECT_LE(p.fmax_mhz, p.base_fmax_mhz);
}

TEST(Prof, PipelinedLenetSeesChannelStalls) {
  auto d = CompilePipelinedLenet();
  ASSERT_TRUE(d.ok());
  const prof::Profile p = prof::BuildProfile(d, LenetImage());
  EXPECT_EQ(p.unmatched_events, 0u);

  double stall = 0.0;
  for (const auto& k : p.kernels) stall += k.stall_us;
  EXPECT_GT(stall, 0.0);  // downstream kernels block on channel producers

  bool stall_slice = false;
  for (const auto& s : p.timeline) {
    if (s.kind == "stall") stall_slice = true;
  }
  EXPECT_TRUE(stall_slice);
  // Transfers were profiled alongside the kernels.
  EXPECT_GT(p.write_us, 0.0);
  EXPECT_GT(p.read_us, 0.0);
}

TEST(Prof, RooflineUsesBoardCeilings) {
  auto d = CompileFoldedLenet();
  ASSERT_TRUE(d.ok());
  const prof::Profile p = prof::BuildProfile(d, LenetImage());
  const auto& board = fpga::Stratix10SX();
  EXPECT_NEAR(p.peak_gflops,
              2.0 * static_cast<double>(board.dsps) * p.fmax_mhz / 1e3,
              1e-6);
  for (const auto& k : p.kernels) {
    EXPECT_NEAR(k.roof_gflops,
                std::min(p.peak_gflops, k.intensity * board.ext_bw_gbps),
                1e-9)
        << k.name;
    // Achieved throughput can never beat its own roof.
    EXPECT_LE(k.achieved_gflops, k.roof_gflops + 1e-9) << k.name;
  }
}

// ------------------------------------------------------ drift diagnostics

TEST(Prof, FmaxDroopTriggersDriftDiagnostic) {
  auto d = CompileFoldedLenet();
  ASSERT_TRUE(d.ok());

  // Clean run first: no CLF601.
  {
    const prof::Profile p = prof::BuildProfile(d, LenetImage());
    analysis::DiagnosticEngine diags;
    prof::EmitDiagnostics(p, diags);
    EXPECT_TRUE(diags.ByCode("CLF601").empty());
    EXPECT_TRUE(diags.ByCode("CLF602").empty());
  }

  // Thermal droop to 0.8x: kernels run ~25% longer than the synthesis
  // model predicts at the bitstream clock.
  resilience::FaultPlan plan;
  plan.specs.push_back(resilience::ParseFaultSpec("fmax-droop:0.8"));
  auto injector = std::make_shared<resilience::FaultInjector>(plan);
  d.runtime().set_fault_injector(injector);

  const prof::Profile p = prof::BuildProfile(d, LenetImage());
  ASSERT_FALSE(p.kernels.empty());
  bool drifted = false;
  for (const auto& k : p.kernels) {
    if (k.drift > 0.10) drifted = true;
  }
  EXPECT_TRUE(drifted);

  analysis::DiagnosticEngine diags;
  prof::EmitDiagnostics(p, diags);
  const auto clf601 = diags.ByCode("CLF601");
  ASSERT_FALSE(clf601.empty());
  EXPECT_EQ(clf601[0].severity, analysis::Severity::kWarning);
  EXPECT_FALSE(clf601[0].location.kernel.empty());
  // The droop is a runtime effect the event stream still matches, so the
  // conservation invariant holds: no CLF602.
  EXPECT_TRUE(diags.ByCode("CLF602").empty());
}

TEST(Prof, BrokenInvariantRaisesClf602) {
  prof::Profile p;
  p.makespan_us = 100.0;
  p.unmatched_events = 3;
  analysis::DiagnosticEngine diags;
  prof::EmitDiagnostics(p, diags);
  const auto clf602 = diags.ByCode("CLF602");
  ASSERT_EQ(clf602.size(), 1u);
  EXPECT_EQ(clf602[0].severity, analysis::Severity::kError);
}

TEST(Prof, OverheadDominatedMakespanRaisesClf603) {
  prof::Profile p;
  p.makespan_us = 100.0;
  p.kernels.emplace_back();
  prof::QueueProfile q;
  q.queue = 0;
  q.busy_us = 20.0;
  q.idle_us = 80.0;
  p.queues.push_back(q);
  analysis::DiagnosticEngine diags;
  prof::EmitDiagnostics(p, diags);
  EXPECT_EQ(diags.ByCode("CLF603").size(), 1u);

  // Raising the threshold above the idle fraction silences it.
  analysis::DiagnosticEngine lax;
  prof::ProfileOptions opts;
  opts.overhead_fraction = 0.90;
  prof::EmitDiagnostics(p, lax, opts);
  EXPECT_TRUE(lax.ByCode("CLF603").empty());
}

// ---------------------------------------------------------------- reports

TEST(Prof, ReportsRenderInAllFormats) {
  auto d = CompileFoldedLenet();
  ASSERT_TRUE(d.ok());
  const prof::Profile p = prof::BuildProfile(d, LenetImage());

  const std::string text = prof::ToText(p);
  EXPECT_NE(text.find("Bottleneck"), std::string::npos);
  EXPECT_NE(text.find(p.kernels[0].name), std::string::npos);

  const auto parsed = obs::json::Parse(prof::ToJson(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("net")->str, "lenet5");
  ASSERT_EQ(parsed->Find("kernels")->array.size(), p.kernels.size());
  EXPECT_NE(parsed->Find("kernels")->array[0].Find("bottleneck"), nullptr);

  const std::string html = prof::ToHtml(p);
  EXPECT_NE(html.find("<svg"), std::string::npos);   // embedded timeline
  EXPECT_NE(html.find("<style"), std::string::npos); // self-contained
  // No external assets: nothing fetched by script/link/src (the SVG
  // xmlns attribute is a namespace identifier, not a fetch).
  EXPECT_EQ(html.find("<script src"), std::string::npos);
  EXPECT_EQ(html.find("<link "), std::string::npos);
  EXPECT_EQ(html.find("src=\"http"), std::string::npos);
  EXPECT_EQ(html.find("href=\"http"), std::string::npos);
}

/// The data rows of the ToText table whose header starts with `first`
/// and `second`, as trimmed cells.
std::vector<std::vector<std::string>> TextTableRows(const std::string& text,
                                                    const std::string& first,
                                                    const std::string& second) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(text);
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    if (line.rfind("| ", 0) != 0) {
      if (line.rfind("|-", 0) != 0) inside = false;  // blank line ends it
      continue;
    }
    std::vector<std::string> cells;
    std::istringstream cols(line.substr(1));
    std::string cell;
    while (std::getline(cols, cell, '|')) {
      const auto b = cell.find_first_not_of(' ');
      const auto e = cell.find_last_not_of(' ');
      cells.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
    }
    if (cells.size() >= 2 && cells[0] == first && cells[1] == second) {
      inside = true;
    } else if (inside) {
      rows.push_back(std::move(cells));
    }
  }
  return rows;
}

TEST(Prof, HtmlCarriesEveryRooflineAndQueueRowOfText) {
  auto d = CompilePipelinedLenet();
  ASSERT_TRUE(d.ok());
  const prof::Profile p = prof::BuildProfile(d, LenetImage());
  const std::string text = prof::ToText(p);
  const std::string html = prof::ToHtml(p);

  const auto roofline = TextTableRows(text, "Kernel", "Flops");
  const auto queues = TextTableRows(text, "Queue", "Busy us");
  EXPECT_EQ(roofline.size(), p.kernels.size());
  ASSERT_FALSE(queues.empty());
  EXPECT_EQ(queues.back()[0], "autorun");  // autorun kernels get a row
  for (const auto* table : {&roofline, &queues}) {
    for (const auto& cells : *table) {
      std::string row = "<tr>";
      for (const auto& cell : cells) {
        row.append("<td>").append(obs::HtmlEscape(cell)).append("</td>");
      }
      row += "</tr>";
      EXPECT_NE(html.find(row), std::string::npos) << row;
    }
  }
}

TEST(Prof, StaticEstimateRatioIsNamedApartFromDrift) {
  // Folded MobileNet on s10sx: k_pad1 runs at many layer shapes, so the
  // synthesis-time estimate (one representative binding) misjudges its
  // mean launch, while prof re-analyzes every invocation and matches the
  // schedule. The two numbers measure different things under different
  // names.
  Rng rng(78);
  const graph::Graph net = nets::BuildMobileNetV1(rng);
  const Tensor image = nets::SyntheticImagenetImage(rng);
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kFolded;
  o.recipe = core::FoldedMobileNet("s10sx");
  o.board = fpga::Stratix10SX();
  auto d = core::Deployment::Compile(net, o);
  ASSERT_TRUE(d.ok());
  const prof::Profile p = prof::BuildProfile(d, image);
  obs::Registry reg;
  d.ExportRuntimeMetrics(reg);
  const obs::Labels pad = {{"kernel", "k_pad1"}};
  EXPECT_GT(reg.gauge("perf.kernel.static_estimate_us", pad).value(), 0.0);
  EXPECT_GT(reg.gauge("perf.kernel.static_estimate_ratio", pad).value(),
            1.5);
  bool found = false;
  for (const auto& k : p.kernels) {
    if (k.name != "k_pad1") continue;
    found = true;
    EXPECT_LT(std::abs(k.drift), 1e-6);
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------- bench diff

prof::BenchSnapshot Snap(std::map<std::string, double> metrics) {
  return {.bench = "t", .git_describe = "", .metrics = std::move(metrics)};
}

TEST(BenchDiff, ParseRoundTrip) {
  const auto s = prof::ParseBenchSnapshot(
      "{\"bench\":\"lenet\",\"git_describe\":\"v1-3-gabc\","
      "\"metrics\":{\"s10sx.opt_fps\":4917.5,\"a10.opt_fps\":2653},"
      "\"registries\":{}}");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->bench, "lenet");
  EXPECT_EQ(s->git_describe, "v1-3-gabc");
  ASSERT_EQ(s->metrics.size(), 2u);
  EXPECT_DOUBLE_EQ(s->metrics.at("s10sx.opt_fps"), 4917.5);
}

TEST(BenchDiff, ParseRejectsMalformed) {
  EXPECT_FALSE(prof::ParseBenchSnapshot("not json").has_value());
  EXPECT_FALSE(prof::ParseBenchSnapshot("{\"metrics\":{}}").has_value());
  EXPECT_FALSE(prof::ParseBenchSnapshot("{\"bench\":\"x\"}").has_value());
  EXPECT_FALSE(
      prof::ParseBenchSnapshot(
          "{\"bench\":\"x\",\"metrics\":{\"k\":\"string\"}}")
          .has_value());
}

TEST(BenchDiff, IdenticalSnapshotsAreClean) {
  const auto base = Snap({{"fps", 100.0}, {"wall_us", 50.0}});
  const auto r = prof::DiffSnapshots(base, base);
  EXPECT_FALSE(r.regressed);
  for (const auto& d : r.deltas) {
    EXPECT_EQ(d.status, prof::MetricStatus::kOk) << d.key;
  }
}

TEST(BenchDiff, TwentyPercentFpsDropRegresses) {
  const auto r = prof::DiffSnapshots(Snap({{"s10sx.opt_fps", 100.0}}),
                                     Snap({{"s10sx.opt_fps", 80.0}}));
  EXPECT_TRUE(r.regressed);
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0].status, prof::MetricStatus::kRegressed);
  EXPECT_NEAR(r.deltas[0].rel_change, -0.20, 1e-9);
}

TEST(BenchDiff, DirectionHeuristics) {
  // fps up = improvement, not a regression.
  EXPECT_FALSE(prof::DiffSnapshots(Snap({{"fps", 100.0}}),
                                   Snap({{"fps", 150.0}}))
                   .regressed);
  // _us down = improvement; _us up = regression.
  EXPECT_FALSE(prof::DiffSnapshots(Snap({{"lat_us", 100.0}}),
                                   Snap({{"lat_us", 50.0}}))
                   .regressed);
  EXPECT_TRUE(prof::DiffSnapshots(Snap({{"lat_us", 100.0}}),
                                  Snap({{"lat_us", 120.0}}))
                  .regressed);
  // Unclassified keys are two-sided.
  EXPECT_TRUE(prof::DiffSnapshots(Snap({{"dsp_frac", 0.5}}),
                                  Snap({{"dsp_frac", 0.6}}))
                  .regressed);
}

TEST(BenchDiff, MissingMetricRegressesNewDoesNot) {
  const auto r = prof::DiffSnapshots(Snap({{"a", 1.0}, {"b", 2.0}}),
                                     Snap({{"b", 2.0}, {"c", 3.0}}));
  EXPECT_TRUE(r.regressed);
  for (const auto& d : r.deltas) {
    if (d.key == "a") {
      EXPECT_EQ(d.status, prof::MetricStatus::kMissing);
    }
    if (d.key == "c") {
      EXPECT_EQ(d.status, prof::MetricStatus::kNew);
    }
  }
}

TEST(BenchDiff, PrefixToleranceAndIgnore) {
  prof::DiffOptions opts;
  opts.prefix_tolerances.emplace_back("noisy.", 0.50);
  opts.ignore_prefixes.push_back("wall.");
  const auto r = prof::DiffSnapshots(
      Snap({{"noisy.fps", 100.0}, {"wall.total_us", 10.0}}),
      Snap({{"noisy.fps", 70.0}, {"wall.total_us", 99.0}}), opts);
  EXPECT_FALSE(r.regressed);  // -30% within 50%; wall.* ignored
  for (const auto& d : r.deltas) {
    if (d.key == "wall.total_us") {
      EXPECT_EQ(d.status, prof::MetricStatus::kIgnored);
    }
  }
}

TEST(BenchDiff, CliExitCodes) {
  const std::string base = testing::TempDir() + "clf_base.json";
  const std::string same = testing::TempDir() + "clf_same.json";
  const std::string reg = testing::TempDir() + "clf_reg.json";
  std::ofstream(base) << "{\"bench\":\"t\",\"metrics\":{\"fps\":100}}";
  std::ofstream(same) << "{\"bench\":\"t\",\"metrics\":{\"fps\":100}}";
  std::ofstream(reg) << "{\"bench\":\"t\",\"metrics\":{\"fps\":80}}";

  std::ostringstream out;
  EXPECT_EQ(prof::RunBenchDiff({base, same}, out), 0);
  EXPECT_EQ(prof::RunBenchDiff({base, reg}, out), 1);
  // Regression forgiven by a wider tolerance.
  EXPECT_EQ(prof::RunBenchDiff({base, reg, "--tol", "0.25"}, out), 0);
  // Usage / IO errors.
  EXPECT_EQ(prof::RunBenchDiff({base}, out), 2);
  EXPECT_EQ(prof::RunBenchDiff({base, "/nonexistent.json"}, out), 2);
  std::remove(base.c_str());
  std::remove(same.c_str());
  std::remove(reg.c_str());
}

TEST(BenchDiff, NonFiniteValuesAreInvalidNotImprovements) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A NaN current value used to slip through: it fails the tolerance
  // check AND both direction checks, landing in kImproved.
  auto r = prof::DiffSnapshots(Snap({{"fps", 100.0}}), Snap({{"fps", nan}}));
  EXPECT_TRUE(r.invalid);
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0].status, prof::MetricStatus::kInvalid);

  // Inf on either side, and NaN in the *baseline*, are equally invalid.
  EXPECT_TRUE(prof::DiffSnapshots(Snap({{"lat_us", 10.0}}),
                                  Snap({{"lat_us", inf}}))
                  .invalid);
  EXPECT_TRUE(prof::DiffSnapshots(Snap({{"fps", nan}}),
                                  Snap({{"fps", 100.0}}))
                  .invalid);
  // Invalid is orthogonal to regression: a clean metric next to a NaN
  // one doesn't regress, but the result still fails.
  r = prof::DiffSnapshots(Snap({{"fps", 100.0}, {"x", 1.0}}),
                          Snap({{"fps", nan}, {"x", 1.0}}));
  EXPECT_TRUE(r.invalid);
  EXPECT_FALSE(r.regressed);
}

TEST(BenchDiff, CliFailsHardOnNonFiniteAndNamesBadKeys) {
  const std::string base = testing::TempDir() + "clf_nan_base.json";
  const std::string naninf = testing::TempDir() + "clf_nan_cur.json";
  const std::string nonnum = testing::TempDir() + "clf_nan_str.json";
  std::ofstream(base) << "{\"bench\":\"t\",\"metrics\":{\"fps\":100}}";
  // 1e999 overflows to +inf in the JSON parser's strtod.
  std::ofstream(naninf) << "{\"bench\":\"t\",\"metrics\":{\"fps\":1e999}}";
  std::ofstream(nonnum)
      << "{\"bench\":\"t\",\"metrics\":{\"fps\":\"oops\"}}";

  std::ostringstream out;
  EXPECT_EQ(prof::RunBenchDiff({base, naninf}, out), 2);
  EXPECT_NE(out.str().find("non-finite"), std::string::npos) << out.str();

  out.str("");
  EXPECT_EQ(prof::RunBenchDiff({base, nonnum}, out), 2);
  EXPECT_NE(out.str().find("metric \"fps\" is not a number"),
            std::string::npos)
      << out.str();

  std::remove(base.c_str());
  std::remove(naninf.c_str());
  std::remove(nonnum.c_str());
}

TEST(BenchDiff, ParseErrorNamesTheReason) {
  std::string error;
  EXPECT_FALSE(prof::ParseBenchSnapshot("not json", &error).has_value());
  EXPECT_EQ(error, "not a JSON object");
  EXPECT_FALSE(
      prof::ParseBenchSnapshot("{\"metrics\":{}}", &error).has_value());
  EXPECT_EQ(error, "missing string \"bench\" key");
  EXPECT_FALSE(
      prof::ParseBenchSnapshot(
          "{\"bench\":\"x\",\"metrics\":{\"bad.key\":\"s\"}}", &error)
          .has_value());
  EXPECT_EQ(error, "metric \"bad.key\" is not a number");
}

}  // namespace
}  // namespace clflow
