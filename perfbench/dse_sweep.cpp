// dse_sweep: the only multi-threaded host path. One op runs
// ExploreFoldedTilings(MobileNet) on each of the three boards at jobs=1;
// sweeps at jobs = nproc follow the timed ops (see below). Every sweep has
// a fresh CompileCache and every other DseOptions field at its default.
// Candidates compile without the analysis gate (verify_candidates =
// false), so srclint and codegen are bypassed here: a gain there must show
// on compile_zoo, not on this workload.
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/compile_cache.hpp"
#include "core/dse.hpp"
#include "fpga/board.hpp"
#include "nets/nets.hpp"
#include "obs/timeseries.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace clflow;

/// FNV-1a over every DseResult field the jobs-invariance contract covers
/// (the ranking and the rejection counters; not cache or wall figures).
std::uint64_t RankedDigest(const core::DseResult& r) {
  std::uint64_t h = obs::detail::kFnvOffset;
  auto mix = [&h](std::uint64_t v) { obs::detail::FnvMix(h, v); };
  auto mix_double = [&](double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    mix(u);
  };
  for (std::size_t v : {r.considered, r.rejected_divisibility,
                        r.rejected_bandwidth, r.rejected_bound,
                        r.rejected_dominated, r.rejected_fit,
                        r.rejected_route, r.feasible_total}) {
    mix(v);
  }
  mix_double(r.worst_kept_fps);
  mix_double(r.best_dropped_fps);
  for (const core::DseCandidate& c : r.ranked) {
    for (const core::ConvTiling* t : {&c.conv1x1, &c.conv3x3, &c.conv_dw}) {
      mix(static_cast<std::uint64_t>(t->c1));
      mix(static_cast<std::uint64_t>(t->w2));
      mix(static_cast<std::uint64_t>(t->c2));
    }
    mix_double(c.predicted_fps);
    mix_double(c.fmax_mhz);
    mix(static_cast<std::uint64_t>(c.dsps));
    for (char ch : c.status_detail) mix(static_cast<std::uint64_t>(ch));
  }
  return h;
}

core::DseResult Sweep(const graph::Graph& net, const fpga::BoardSpec& board,
                      int jobs) {
  core::DseOptions opts;
  opts.jobs = jobs;
  opts.cache = std::make_shared<core::CompileCache>();
  return core::ExploreFoldedTilings(net, board, opts);
}

const char* const kBoards[] = {"a10", "s10sx", "s10mx"};

}  // namespace

Report RunDseSweep(const RunConfig& cfg) {
  Report report;
  graph::Graph mobilenet;
  std::vector<std::uint64_t> serial_digest;
  // Set-up: the net and the jobs=1 ranked digest of every board, which
  // every later sweep, serial or parallel, must reproduce.
  const double setup_s = MedianSetupSeconds(3, [&] {
    Rng rng(cfg.seed);
    mobilenet = nets::BuildMobileNetV1(rng);
    serial_digest.clear();
    for (const char* b : kBoards) {
      serial_digest.push_back(
          RankedDigest(Sweep(mobilenet, fpga::BoardByKey(b), 1)));
    }
  });

  // The three sweeps at `jobs`, each checked against the set-up digest.
  auto sweeps = [&](int jobs, Trace* trace, bool& ok) {
    std::vector<core::DseResult> results;
    for (std::size_t i = 0; i < std::size(kBoards); ++i) {
      ScopedSpan span(trace, std::string("ExploreFoldedTilings:") +
                                 kBoards[i]);
      try {
        results.push_back(
            Sweep(mobilenet, fpga::BoardByKey(kBoards[i]), jobs));
      } catch (const std::exception& e) {
        report.Fail(std::string(kBoards[i]) + " sweep threw: " + e.what());
        ok = false;
        continue;
      }
      if (RankedDigest(results.back()) != serial_digest[i]) {
        report.Fail(std::string(kBoards[i]) + " ranked digest at jobs=" +
                    std::to_string(jobs) + " differs from jobs=1");
        ok = false;
      } else if (results.back().ranked.empty()) {
        report.Fail(std::string(kBoards[i]) + " has no feasible design");
        ok = false;
      }
    }
    return results;
  };

  // One op is the jobs=1 sweep of the three boards. The jobs=nproc sweeps
  // run after all serial ones, never between them: on a shared 4-core
  // host the parallel wall moves by 30% between processes as other
  // tenants take cores, and a serial sweep that follows a parallel one
  // runs about 40% slower than one that follows a serial one. The serial
  // sweep alone repeats within a few percent. The parallel sweeps are
  // checked against the same digests; the traced run reports their wall
  // and its ratio to the serial wall, both measured in this process.
  std::vector<double> serial_ms, traced_ms, parallel_ms;
  std::vector<core::DseResult> serial, parallel;
  std::map<std::string, std::vector<double>> per_op;
  Trace trace;
  auto serial_op = [&](bool traced) {
    bool ok = true;
    trace.Clear();
    const double t0 = NowUs();
    serial = sweeps(1, traced ? &trace : nullptr, ok);
    (traced ? traced_ms : serial_ms).push_back((NowUs() - t0) * 1e-3);
    report.Attempt(ok);
  };
  auto parallel_op = [&](Trace* t) {
    bool ok = true;
    const double t0 = NowUs();
    parallel = sweeps(cfg.jobs, t, ok);
    parallel_ms.push_back((NowUs() - t0) * 1e-3);
    report.Attempt(ok);
  };
  auto ratio = [](std::int64_t hits, std::int64_t misses) {
    return hits + misses > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0;
  };

  // The traced run splits its time: serial ops (untraced and traced in
  // turn) first, then parallel ops.
  const double serial_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  double start = NowUs();
  while (serial_ms.size() < 3 || NowUs() - start < serial_s * 1e6) {
    serial_op(false);
    if (!cfg.trace) continue;
    serial_op(true);
    // Cache and candidate figures of the serial sweeps (what op_ms pays).
    core::CompileCacheStats cache;
    double candidates = 0.0, bound = 0.0, fit = 0.0, route = 0.0,
           compiled = 0.0, feasible = 0.0;
    for (const core::DseResult& r : serial) {
      const core::CompileCacheStats& c = r.cache_stats;
      cache.design_hits += c.design_hits;
      cache.design_misses += c.design_misses;
      cache.lower_hits += c.lower_hits;
      cache.lower_misses += c.lower_misses;
      cache.stats_hits += c.stats_hits;
      cache.stats_misses += c.stats_misses;
      cache.entries += c.entries;
      cache.bytes += c.bytes;
      candidates += static_cast<double>(r.considered);
      bound += static_cast<double>(r.rejected_bound);
      fit += static_cast<double>(r.rejected_fit);
      route += static_cast<double>(r.rejected_route);
      compiled += static_cast<double>(
          r.considered - r.rejected_divisibility - r.rejected_bandwidth -
          r.rejected_bound - r.rejected_dominated);
      feasible += static_cast<double>(r.feasible_total);
    }
    per_op["core.cache.hit_rate"].push_back(cache.hit_rate());
    per_op["core.cache.design_hit_rate"].push_back(
        ratio(cache.design_hits, cache.design_misses));
    per_op["core.cache.stats_hit_rate"].push_back(
        ratio(cache.stats_hits, cache.stats_misses));
    per_op["core.cache.entries"].push_back(static_cast<double>(cache.entries));
    per_op["core.cache.bytes"].push_back(static_cast<double>(cache.bytes));
    per_op["dse.candidates"].push_back(candidates);
    per_op["dse.rejected_bound"].push_back(bound);
    per_op["dse.rejected_fit"].push_back(fit);
    per_op["dse.rejected_route"].push_back(route);
    per_op["dse.feasible_ratio"].push_back(
        compiled > 0.0 ? feasible / compiled : 0.0);
  }
  if (!cfg.trace) {
    parallel_op(nullptr);  // the jobs=nproc digest check, untimed
  } else {
    start = NowUs();
    while (parallel_ms.size() < 3 || NowUs() - start < serial_s * 1e6) {
      trace.Clear();
      parallel_op(&trace);
      ParallelStats par;
      double prewarm_us = 0.0;
      for (const core::DseResult& r : parallel) {
        par += r.parallel;
        prewarm_us += r.prewarm.wall_us;
      }
      per_op["dse.prewarm_ms"].push_back(prewarm_us / 1e3);
      per_op["common.parallel.busy_ms"].push_back(par.busy_us / 1e3);
      per_op["common.parallel.imbalance_wait_ms"].push_back(
          par.imbalance_wait_us / 1e3);
      per_op["common.parallel.workers"].push_back(par.workers);
    }
  }

  if (!cfg.trace) {
    ReportOpTimes(report, serial_ms);
    std::vector<double> best_fps;
    for (const core::DseResult& r : serial) {
      if (!r.ranked.empty()) best_fps.push_back(r.best().predicted_fps);
    }
    if (best_fps.size() == std::size(kBoards)) {
      report.Set("sim_fps_geomean", Geomean(best_fps), "fps");
    }
  } else {
    const std::map<std::string, std::string> units = {
        {"core.cache.hit_rate", "ratio"},
        {"core.cache.design_hit_rate", "ratio"},
        {"core.cache.stats_hit_rate", "ratio"},
        {"core.cache.entries", "count"},
        {"core.cache.bytes", "bytes"},
        {"dse.prewarm_ms", "ms"},
        {"common.parallel.busy_ms", "ms"},
        {"common.parallel.imbalance_wait_ms", "ms"},
        {"common.parallel.workers", "count"},
        {"dse.candidates", "count"},
        {"dse.rejected_bound", "count"},
        {"dse.rejected_fit", "count"},
        {"dse.rejected_route", "count"},
        {"dse.feasible_ratio", "ratio"},
    };
    for (const auto& [metric, values] : per_op) {
      report.Set(metric, Median(values), units.at(metric));
    }
    report.Set("dse.parallel_ms", Median(parallel_ms), "ms");
    report.Set("dse.parallel_speedup",
               Median(serial_ms) / Median(parallel_ms), "ratio");
    report.Set("trace.overhead",
               TraceOverhead(Median(traced_ms), Median(serial_ms)), "ratio");
  }
  report.setup_s = setup_s;
  report.Note("dse: MobileNet on a10, s10sx, s10mx, fresh CompileCache per "
              "sweep, DseOptions defaults; op_ms times jobs=1, and jobs=" +
              std::to_string(cfg.jobs) +
              " sweeps run after the timed ops, checked for the same digest");
  return report;
}

}  // namespace perfbench
