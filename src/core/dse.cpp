#include "core/dse.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <sstream>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"

namespace clflow::core {

const DseCandidate& DseResult::best() const {
  CLFLOW_CHECK_MSG(!ranked.empty(), "DSE found no feasible configuration");
  return ranked.front();
}

OptimizationRecipe DseResult::BestRecipe(const std::string& tag) const {
  const DseCandidate& b = best();
  OptimizationRecipe r;
  r.name = "Folded-DSE-" + tag;
  r.fuse_and_cache = true;
  r.unroll = true;
  r.parameterized = true;
  r.conv1x1 = b.conv1x1;
  r.conv3x3 = b.conv3x3;
  r.conv_dw = b.conv_dw;
  return r;
}

void DseResult::ExportMetrics(obs::Registry& registry) const {
  auto set = [&registry](const char* name, double v) {
    registry.gauge(name).Set(v);
  };
  set("dse.considered", static_cast<double>(considered));
  set("dse.rejected.divisibility", static_cast<double>(rejected_divisibility));
  set("dse.rejected.bandwidth", static_cast<double>(rejected_bandwidth));
  set("dse.rejected.bound", static_cast<double>(rejected_bound));
  set("dse.rejected.dominated", static_cast<double>(rejected_dominated));
  set("dse.rejected.fit", static_cast<double>(rejected_fit));
  set("dse.rejected.route", static_cast<double>(rejected_route));
  set("dse.feasible", static_cast<double>(feasible_total));
  set("dse.ranked", static_cast<double>(ranked.size()));
  set("dse.truncated", truncated() ? 1.0 : 0.0);
  set("dse.best_fps", ranked.empty() ? 0.0 : ranked.front().predicted_fps);
  set("dse.worst_kept_fps", worst_kept_fps);
  set("dse.best_dropped_fps", best_dropped_fps);
  set("dse.cache.hits", static_cast<double>(cache_stats.hits()));
  set("dse.cache.misses", static_cast<double>(cache_stats.misses()));
  set("dse.cache.hit_rate", cache_stats.hit_rate());
  set("dse.cache.design.hits", static_cast<double>(cache_stats.design_hits));
  set("dse.cache.design.misses",
      static_cast<double>(cache_stats.design_misses));
  set("dse.cache.lower.hits", static_cast<double>(cache_stats.lower_hits));
  set("dse.cache.lower.misses", static_cast<double>(cache_stats.lower_misses));
  set("dse.cache.stats.hits", static_cast<double>(cache_stats.stats_hits));
  set("dse.cache.stats.misses", static_cast<double>(cache_stats.stats_misses));
  set("dse.cache.entries", static_cast<double>(cache_stats.entries));
  set("dse.cache.bytes", static_cast<double>(cache_stats.bytes));
  set("dse.cache.prewarm.compiles", static_cast<double>(prewarm.compiles));
  set("dse.cache.prewarm.hits", static_cast<double>(prewarm.hits));
  set("dse.cache.prewarm.misses", static_cast<double>(prewarm.misses));
  set("dse.cache.prewarm.entries",
      static_cast<double>(prewarm.entries_after));
  // Wall-clock series: machine-dependent, reported for attribution only
  // (bench gates ignore the wall. prefix).
  set("dse.wall.parallel_us", parallel.wall_us);
  set("dse.wall.thread_wait_us", parallel.imbalance_wait_us);
  set("dse.wall.prewarm_us", prewarm.wall_us);
}

FoldedBound BoundFoldedCandidate(const ConvTiling& conv1x1,
                                 const fpga::BoardSpec& board,
                                 const fpga::CostModel& model) {
  FoldedBound b;
  // The tiled pointwise body multiplies one input lane per unrolled
  // (c1, w2, c2) position per cycle: at least c1*w2*c2 spatial MACs, each
  // costing 1/ops_per_dsp of a DSP block. Control logic can never go
  // below the per-kernel base. Both are floors of what synthesis reports,
  // so the checks below only fire when AssembleBitstream must fail too.
  const std::int64_t macs = conv1x1.c1 * conv1x1.w2 * conv1x1.c2;
  b.min_kernel_dsps = (macs + model.ops_per_dsp - 1) / model.ops_per_dsp;
  b.min_aluts = model.kernel_base_alut;

  std::ostringstream os;
  if (b.min_aluts > board.usable_aluts()) {
    os << "bound: kernel control floor " << b.min_aluts << " ALUTs > usable "
       << board.usable_aluts();
  } else if (b.min_kernel_dsps > board.dsps) {
    os << "bound: pointwise unroll needs >= " << b.min_kernel_dsps
       << " DSPs > board " << board.dsps;
  } else {
    // Same expression as AssembleBitstream's concentration check so the
    // bound and the model agree on the boundary.
    const double frac = static_cast<double>(b.min_kernel_dsps) /
                        static_cast<double>(board.dsps);
    if (frac > board.max_kernel_dsp_frac) {
      os << "bound: pointwise kernel concentrates >= " << b.min_kernel_dsps
         << " DSPs (" << static_cast<int>(frac * 100)
         << "% of chip) > board limit "
         << static_cast<int>(board.max_kernel_dsp_frac * 100) << "%";
    }
  }
  b.reject_reason = os.str();
  return b;
}

namespace {

using graph::OpKind;

/// Collects, per convolution family, the divisibility constraints of
/// every layer: tile_c1 | C1, tile_w2 | W2, tile_c2 | K.
struct FamilyDims {
  std::vector<std::int64_t> c1s, w2s, ks;
  [[nodiscard]] bool Accepts(const ConvTiling& t) const {
    auto divides_all = [](std::int64_t f,
                          const std::vector<std::int64_t>& vals) {
      return std::all_of(vals.begin(), vals.end(),
                         [f](std::int64_t v) { return v % f == 0; });
    };
    return divides_all(t.c1, c1s) && divides_all(t.w2, w2s) &&
           divides_all(t.c2, ks);
  }
};

[[nodiscard]] std::int64_t UnrollVolume(const ConvTiling& t) {
  return t.c1 * t.w2 * t.c2;
}

/// t strictly inside f's unroll box: <= everywhere, < somewhere.
[[nodiscard]] bool DominatedBy(const ConvTiling& t, const ConvTiling& f) {
  const bool le = t.c1 <= f.c1 && t.w2 <= f.w2 && t.c2 <= f.c2;
  const bool lt = t.c1 < f.c1 || t.w2 < f.w2 || t.c2 < f.c2;
  return le && lt;
}

/// Per-family divisibility constraints plus the fixed non-pointwise
/// tilings the sweep (and the prewarm) use for a fused graph.
struct SweepFamilies {
  FamilyDims pw, std3, dw;
  ConvTiling conv3x3{.c1 = 1, .w2 = 1, .c2 = 1};
  ConvTiling conv_dw{.c1 = 1, .w2 = 1, .c2 = 1};
  [[nodiscard]] bool has_pointwise() const { return !pw.ks.empty(); }
};

SweepFamilies AnalyzeFamilies(const graph::Graph& fused) {
  SweepFamilies fams;
  for (const auto& n : fused.nodes()) {
    if (n.kind == OpKind::kConv2d) {
      const auto& in = fused.node(n.inputs[0]).output_shape;
      FamilyDims& fam = n.window == 1 ? fams.pw : fams.std3;
      fam.c1s.push_back(in.channels());
      fam.w2s.push_back(n.output_shape.width());
      fam.ks.push_back(n.filters);
    } else if (n.kind == OpKind::kDepthwiseConv2d) {
      fams.dw.w2s.push_back(n.output_shape.width());
    }
  }
  // Non-pointwise families keep the paper's fixed minimal tilings, picked
  // to satisfy divisibility for this network.
  for (std::int64_t c1 : {8, 4, 3, 2}) {
    ConvTiling t{.c1 = c1, .w2 = 1, .c2 = 1};
    if (fams.std3.Accepts(t)) {
      fams.conv3x3 = t;
      break;
    }
  }
  if (fams.dw.Accepts({.c1 = 1, .w2 = 7, .c2 = 1})) fams.conv_dw.w2 = 7;
  return fams;
}

DeployOptions CandidateDeployOptions(const DseCandidate& cand,
                                     const fpga::BoardSpec& board,
                                     const fpga::CostModel& model,
                                     std::shared_ptr<CompileCache> cache) {
  OptimizationRecipe recipe;
  recipe.name = "dse-cand";
  recipe.fuse_and_cache = true;
  recipe.unroll = true;
  recipe.parameterized = true;
  recipe.conv1x1 = cand.conv1x1;
  recipe.conv3x3 = cand.conv3x3;
  recipe.conv_dw = cand.conv_dw;

  DeployOptions dep;
  dep.mode = ExecutionMode::kFolded;
  dep.recipe = std::move(recipe);
  dep.board = board;
  dep.cost_model = model;
  dep.compile_cache = std::move(cache);
  return dep;
}

/// Plan -> Synthesize -> instance: candidates are ranked by synthesis
/// alone, so they skip the analysis gate (the winning recipe gets it when
/// the caller compiles it). As in Deployment::Compile, the candidate's IR
/// goes to its own arena and its spans and metrics to its own telemetry,
/// never the caller's.
Deployment EvaluateCandidate(const graph::Graph& fused,
                             const DeployOptions& options) {
  std::shared_ptr<CompiledDesign> design;
  {
    obs::Telemetry telemetry;
    obs::ScopedTelemetry scoped(&telemetry);
    common::ArenaScope arena_scope(std::make_shared<common::Arena>());
    design =
        std::make_shared<CompiledDesign>(Deployment::Plan(fused, options));
    Deployment::Synthesize(*design);
  }
  return Deployment(std::move(design));
}

/// Evaluates `cand` purely for its cache side effects and accounts the
/// hit/miss deltas. The Deployment is discarded.
DsePrewarmStats PrewarmCandidate(const graph::Graph& fused,
                                 const DseCandidate& cand,
                                 const fpga::BoardSpec& board,
                                 const fpga::CostModel& model,
                                 const std::shared_ptr<CompileCache>& cache) {
  DsePrewarmStats stats;
  const CompileCacheStats before = cache->stats();
  const auto t0 = std::chrono::steady_clock::now();
  (void)EvaluateCandidate(
      fused, CandidateDeployOptions(cand, board, model, cache));
  const auto t1 = std::chrono::steady_clock::now();
  stats.wall_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  stats.compiles = 1;
  const CompileCacheStats delta = cache->stats().Since(before);
  stats.hits = static_cast<std::size_t>(delta.hits());
  stats.misses = static_cast<std::size_t>(delta.misses());
  stats.entries_after = static_cast<std::size_t>(cache->stats().entries);
  return stats;
}

}  // namespace

DseResult ExploreFoldedTilings(const graph::Graph& g,
                               const fpga::BoardSpec& board,
                               const DseOptions& options,
                               const fpga::CostModel& model) {
  const graph::Graph fused = graph::FuseOperators(g);

  const SweepFamilies fams = AnalyzeFamilies(fused);
  const FamilyDims& pw = fams.pw;
  const ConvTiling conv3x3 = fams.conv3x3;
  const ConvTiling conv_dw = fams.conv_dw;

  // The DSP floors of BoundFoldedCandidate describe the pointwise kernel;
  // on a network without pointwise convs (LeNet) no such kernel is built
  // and the floors are vacuous, so only the control-logic floor applies.
  const bool has_pointwise = fams.has_pointwise();

  std::shared_ptr<CompileCache> cache;
  if (options.use_cache) {
    cache = options.cache ? options.cache : CompileCache::SharedPtr();
  }
  const CompileCacheStats cache_base =
      cache ? cache->stats() : CompileCacheStats{};

  DseResult result;
  const Tensor probe =
      Tensor::Full(fused.node(fused.input_id()).output_shape, 0.0f);

  // Phase 1 (serial, deterministic): enumerate and run every cheap filter.
  // Only candidates that need a full compile survive to phase 2.
  std::vector<DseCandidate> survivors;
  bool capped = false;
  for (std::int64_t c1 : options.c1_factors) {
    for (std::int64_t w2 : options.w2_factors) {
      for (std::int64_t c2 : options.c2_factors) {
        if (result.considered >= options.max_candidates) {
          capped = true;
          break;
        }
        ++result.considered;
        DseCandidate cand;
        cand.conv1x1 = {.c1 = c1, .w2 = w2, .c2 = c2};
        cand.conv3x3 = conv3x3;
        cand.conv_dw = conv_dw;

        if (!pw.Accepts(cand.conv1x1)) {
          ++result.rejected_divisibility;
          continue;
        }
        // SS4.11 requirement 1: the unroll factor of the streamed (non-
        // cached) reduction dimension must not exceed the board's peak
        // bytes/cycle -- the paper's "should not exceed 32 for the Arria
        // 10" rule. Input/output accesses amortize through caches and
        // wide bursts; the weight stream is the fresh traffic.
        const double demand_bytes = 4.0 * static_cast<double>(c1 * w2);
        if (demand_bytes > board.BytesPerCycle(board.base_fmax_mhz)) {
          ++result.rejected_bandwidth;
          continue;
        }
        if (options.prune_bound) {
          const FoldedBound bound =
              BoundFoldedCandidate(cand.conv1x1, board, model);
          const bool alut_reject = bound.min_aluts > board.usable_aluts();
          if (alut_reject || (has_pointwise && bound.rejected())) {
            ++result.rejected_bound;
            continue;
          }
        }
        survivors.push_back(std::move(cand));
      }
      if (capped) break;
    }
    if (capped) break;
  }

  // Phase 2: compile the survivors. Evaluation order is enumeration
  // order, or descending unroll volume when dominance pruning is on (so
  // large feasible designs are found before the candidates they shadow);
  // either way it is a pure function of the option values, never of
  // `jobs` -- each compile lands in its own slot and the merge below
  // walks slots in enumeration order.
  std::vector<std::size_t> order(survivors.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (options.dominance_prune) {
    std::stable_sort(order.begin(), order.end(),
                     [&survivors](std::size_t a, std::size_t b) {
                       return UnrollVolume(survivors[a].conv1x1) >
                              UnrollVolume(survivors[b].conv1x1);
                     });
  }
  const std::size_t window =
      options.dominance_prune
          ? std::max<std::size_t>(1, options.dominance_window)
          : std::max<std::size_t>(1, order.size());
  // Clamped to the machine: extra workers beyond the core count only add
  // spawn/contention overhead, and thread count never changes the result.
  const int jobs =
      std::min(std::max(1, options.jobs), std::max(1, HardwareThreads()));

  struct Eval {
    bool compiled = false;
    bool feasible = false;
    DseCandidate cand;
  };
  std::vector<Eval> evals(survivors.size());
  std::vector<ConvTiling> feasible_tilings;

  // Multi-worker sweeps over a cold cache stampede: the whole first batch
  // misses on the same backbone designs at once and compiles them
  // redundantly. Seed the cache with one representative candidate first
  // (serially); the counters and ranking are untouched -- the prewarmed
  // candidate is still evaluated below, now against a warm cache.
  if (cache && jobs > 1 && !order.empty()) {
    result.prewarm = PrewarmCandidate(fused, survivors[order.front()], board,
                                      model, cache);
  }

  for (std::size_t start = 0; start < order.size(); start += window) {
    const std::size_t stop = std::min(order.size(), start + window);
    std::vector<std::size_t> batch;
    batch.reserve(stop - start);
    for (std::size_t i = start; i < stop; ++i) {
      const std::size_t s = order[i];
      if (options.dominance_prune &&
          std::any_of(feasible_tilings.begin(), feasible_tilings.end(),
                      [&](const ConvTiling& f) {
                        return DominatedBy(survivors[s].conv1x1, f);
                      })) {
        ++result.rejected_dominated;
      } else {
        batch.push_back(s);
      }
    }
    ParallelStats batch_stats;
    ParallelFor(0, static_cast<std::int64_t>(batch.size()), jobs,
                [&](std::int64_t bi) {
                  const std::size_t s = batch[static_cast<std::size_t>(bi)];
                  Eval& e = evals[s];
                  e.cand = survivors[s];
                  auto d = EvaluateCandidate(
                      fused,
                      CandidateDeployOptions(e.cand, board, model, cache));
                  e.cand.status = d.bitstream().status;
                  e.cand.status_detail = d.bitstream().status_detail;
                  if (e.cand.status == fpga::SynthStatus::kOk) {
                    e.cand.fmax_mhz = d.bitstream().fmax_mhz;
                    e.cand.dsps = d.bitstream().totals.dsps;
                    e.cand.alut_frac = d.bitstream().totals.alut_frac;
                    e.cand.predicted_fps = d.EstimateFps(probe);
                    e.feasible = true;
                  }
                  e.compiled = true;
                },
                &batch_stats);
    result.parallel += batch_stats;
    for (std::size_t s : batch) {
      const Eval& e = evals[s];
      if (e.cand.status == fpga::SynthStatus::kFitError) {
        ++result.rejected_fit;
      } else if (e.cand.status == fpga::SynthStatus::kRouteError) {
        ++result.rejected_route;
      } else {
        feasible_tilings.push_back(e.cand.conv1x1);
      }
    }
  }

  // Phase 3 (serial): merge feasible candidates in enumeration order and
  // rank. stable_sort keeps enumeration order among exact fps ties.
  std::vector<DseCandidate> feasible;
  for (Eval& e : evals) {
    if (e.compiled && e.feasible) feasible.push_back(std::move(e.cand));
  }
  result.feasible_total = feasible.size();
  std::stable_sort(feasible.begin(), feasible.end(),
                   [](const DseCandidate& a, const DseCandidate& b) {
                     return a.predicted_fps > b.predicted_fps;
                   });
  if (feasible.size() > options.top_k) {
    result.best_dropped_fps = feasible[options.top_k].predicted_fps;
    feasible.resize(options.top_k);
  }
  if (!feasible.empty()) result.worst_kept_fps = feasible.back().predicted_fps;
  result.ranked = std::move(feasible);

  if (cache) result.cache_stats = cache->stats().Since(cache_base);
  result.ExportMetrics(*obs::Registry::Current());
  return result;
}

DsePrewarmStats PrewarmFoldedCache(const graph::Graph& g,
                                   const fpga::BoardSpec& board,
                                   const DseOptions& options,
                                   const fpga::CostModel& model) {
  std::shared_ptr<CompileCache> cache =
      options.cache ? options.cache : CompileCache::SharedPtr();
  const graph::Graph fused = graph::FuseOperators(g);
  const SweepFamilies fams = AnalyzeFamilies(fused);

  // The minimal candidate: every sweep shares its conv3x3/depthwise/pad/
  // dense backbone, and a fully-folded 1/1/1 pointwise kernel always
  // satisfies divisibility and bandwidth.
  DseCandidate cand;
  cand.conv1x1 = {.c1 = 1, .w2 = 1, .c2 = 1};
  cand.conv3x3 = fams.conv3x3;
  cand.conv_dw = fams.conv_dw;

  const DsePrewarmStats stats =
      PrewarmCandidate(fused, cand, board, model, cache);
  obs::Registry& reg = *obs::Registry::Current();
  reg.gauge("dse.cache.prewarm.compiles")
      .Set(static_cast<double>(stats.compiles));
  reg.gauge("dse.cache.prewarm.hits").Set(static_cast<double>(stats.hits));
  reg.gauge("dse.cache.prewarm.misses")
      .Set(static_cast<double>(stats.misses));
  reg.gauge("dse.cache.prewarm.entries")
      .Set(static_cast<double>(stats.entries_after));
  reg.gauge("dse.wall.prewarm_us").Set(stats.wall_us);
  return stats;
}

}  // namespace clflow::core
