// Design-space exploration for folded tiling configurations.
//
// SS4.11 of the paper selects unroll/tile factors by hand under three
// requirements -- (1) the widened LSUs must not exceed the board's
// theoretical external bandwidth, (2) factors must divide every layer's
// trip counts (no epilogues), (3) the design must fit -- and explicitly
// leaves "resource modeling and exploration for a DSE" to future work.
// This module implements that explorer on top of the synthesis model:
// enumerate candidate tilings satisfying (1) and (2), synthesize each
// candidate (cheap here: the model is analytical), discard non-fitting /
// non-routing designs, and rank the rest by predicted whole-network
// throughput rather than single-kernel throughput -- the paper notes a
// DSE should "maximize overall network performance ... rather than the
// performance of individual layers".
//
// DSE v2 makes the sweep itself fast without changing what it finds:
//
//   * candidates are enumerated and cheap-filtered serially, then the
//     survivors compile on `jobs` worker threads and merge back in
//     enumeration order, so DseResult is bit-identical for any `jobs`
//     (ranking, rejection counters, status strings);
//   * each candidate runs Deployment's Plan and Synthesize stages without
//     the analysis gate (a candidate is ranked by synthesis alone; the
//     winning recipe gets the gate when the caller compiles it);
//   * a CompileCache (content-hashed lowering + synthesis memoization,
//     core/compile_cache.hpp) is threaded through every candidate's
//     stages, so the conv3x3/conv_dw/pad/dense kernels every candidate
//     shares are compiled once per sweep;
//   * a closed-form DSP/ALUT lower bound (BoundFoldedCandidate) rejects
//     hopeless candidates before any IR is built (`rejected_bound`), and
//     an optional dominance filter skips candidates whose unroll widths
//     are pointwise below an already-feasible design's.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/compile_cache.hpp"
#include "core/deployment.hpp"

namespace clflow::core {

struct DseCandidate {
  ConvTiling conv1x1;
  ConvTiling conv3x3;
  ConvTiling conv_dw;
  /// Predicted frames per second for the whole network.
  double predicted_fps = 0.0;
  /// Synthesis outcome for this candidate.
  fpga::SynthStatus status = fpga::SynthStatus::kOk;
  std::string status_detail;
  double fmax_mhz = 0.0;
  std::int64_t dsps = 0;
  double alut_frac = 0.0;
};

/// Closed-form resource lower bound for a folded candidate, computed from
/// the pointwise unroll widths alone -- no IR is built. Sound: it only
/// claims infeasibility when the full synthesis model is guaranteed to
/// reject (the real kernel's resources are >= these floors and the checks
/// mirror AssembleBitstream's fit/DSP-concentration rules), so pruning on
/// it never changes the feasible set. The DSP floors presume the network
/// actually builds a pointwise kernel; ExploreFoldedTilings only applies
/// them when one exists.
struct FoldedBound {
  /// DSPs the pointwise kernel cannot avoid: one MAC per unrolled
  /// c1*w2*c2 spatial lane, ops_per_dsp lanes per block.
  std::int64_t min_kernel_dsps = 0;
  /// Control-logic floor of a single kernel.
  std::int64_t min_aluts = 0;
  /// Why the candidate cannot work; empty when the bound is inconclusive
  /// (the candidate still goes through full compile + synthesis).
  std::string reject_reason;

  [[nodiscard]] bool rejected() const { return !reject_reason.empty(); }
};

[[nodiscard]] FoldedBound BoundFoldedCandidate(const ConvTiling& conv1x1,
                                               const fpga::BoardSpec& board,
                                               const fpga::CostModel& model = {});

struct DseOptions {
  /// Factors considered per tiling dimension (filtered by divisibility).
  std::vector<std::int64_t> c1_factors = {1, 2, 4, 8, 16};
  std::vector<std::int64_t> w2_factors = {1, 7};
  std::vector<std::int64_t> c2_factors = {1, 2, 4, 8, 16, 32, 64};
  /// Keep at most this many fully-evaluated candidates (best first).
  std::size_t top_k = 8;
  /// Upper bound on candidates to enumerate (safety valve).
  std::size_t max_candidates = 512;
  /// Worker threads compiling surviving candidates concurrently (<=1 runs
  /// inline). Thread count never changes the result: enumeration and
  /// filtering happen serially first, compiles land in per-candidate
  /// slots, and the merge walks them in enumeration order.
  /// With more than one job and a cache, one representative candidate is
  /// first evaluated serially so the backbone kernels every candidate
  /// shares are cache-resident before the workers start; otherwise the
  /// first parallel batch stampedes the cold cache, every worker missing
  /// on the same conv3x3/depthwise/dense designs (racing misses may
  /// compute a design twice). The prewarmed candidate is still evaluated
  /// and counted like any other, so this never changes the result.
  int jobs = 1;
  /// Memoize per-kernel lowering and synthesis across candidates. Uses
  /// `cache` when set, else the process-wide CompileCache::Shared() (so
  /// the fallback ladder and repeated sweeps share entries).
  bool use_cache = true;
  std::shared_ptr<CompileCache> cache;
  /// Apply BoundFoldedCandidate before compiling (`rejected_bound`).
  bool prune_bound = true;
  /// Skip candidates whose unroll widths are <= an already-feasible
  /// candidate's in every dimension (and < in at least one), charged as
  /// `rejected_dominated`. Heuristic, off by default: it assumes fps is
  /// monotone in unroll volume, which the fmax/routing-pressure model can
  /// break (a smaller tiling at higher fmax may outrank a larger one).
  bool dominance_prune = false;
  /// Candidates evaluated per batch between dominance re-checks. Fixed --
  /// deliberately NOT derived from `jobs` -- so dominance decisions (and
  /// with them the result) do not depend on thread count.
  std::size_t dominance_window = 16;
};

/// What a cache prewarm pass did: one representative candidate compiled
/// through the sweep's CompileCache so the board-independent backbone
/// kernels (conv3x3 / depthwise / pad / dense) are resident before any
/// worker races to compile them.
struct DsePrewarmStats {
  double wall_us = 0.0;
  std::size_t compiles = 0;  ///< candidate compiles issued by the prewarm
  std::size_t hits = 0;      ///< cache hits during the prewarm
  std::size_t misses = 0;    ///< cache misses (entries seeded)
  std::size_t entries_after = 0;  ///< cache entries once prewarmed

  [[nodiscard]] bool ran() const { return compiles > 0; }
};

struct DseResult {
  /// Feasible candidates, best predicted FPS first (size <= top_k).
  std::vector<DseCandidate> ranked;
  /// How many candidates each filter removed.
  std::size_t considered = 0;
  std::size_t rejected_divisibility = 0;
  std::size_t rejected_bandwidth = 0;
  std::size_t rejected_bound = 0;
  std::size_t rejected_dominated = 0;
  std::size_t rejected_fit = 0;
  std::size_t rejected_route = 0;
  /// Feasible candidates found before top_k truncation.
  std::size_t feasible_total = 0;
  /// predicted_fps of the worst candidate that survived truncation and of
  /// the best one it dropped -- callers can tell whether BestRecipe hides
  /// near-ties past the top_k cut (0.0 when not applicable).
  double worst_kept_fps = 0.0;
  double best_dropped_fps = 0.0;
  /// Cache activity during this sweep. Informational only: hit/miss
  /// counts are NOT part of the jobs-invariance contract (racing misses
  /// may compute a design twice) -- every other field above is.
  CompileCacheStats cache_stats;
  /// In-sweep prewarm activity (zeros when the sweep ran with one job or
  /// without a cache).
  DsePrewarmStats prewarm;
  /// Wall-clock accounting accumulated over the candidate-compile
  /// ParallelFor batches. Machine-dependent ("wall." semantics -- never
  /// gated); `imbalance_wait_us` is the worker idle time lost to static
  /// chunk skew, the figure that explains why a cache-cold parallel sweep
  /// can trail a cache-warm serial one (see EXPERIMENTS.md, s10mx).
  ParallelStats parallel;

  [[nodiscard]] bool truncated() const {
    return feasible_total > ranked.size();
  }

  [[nodiscard]] const DseCandidate& best() const;
  /// A folded recipe configured with the best candidate's tilings.
  [[nodiscard]] OptimizationRecipe BestRecipe(const std::string& tag) const;

  /// Writes the sweep's `dse.*` gauges (counters, fps figures) and the
  /// `dse.cache.*` series into `registry`. ExploreFoldedTilings also
  /// writes them into the ambient obs::Registry::Current().
  void ExportMetrics(obs::Registry& registry) const;
};

/// Explores tiling configurations for a folded deployment of `g` on
/// `board`. The divisibility requirement is checked against every layer
/// of the fused graph; the bandwidth requirement (SS4.11 req. 1) bounds
/// the total unroll width of global-memory-facing dimensions by the
/// board's bytes-per-cycle at its base clock.
[[nodiscard]] DseResult ExploreFoldedTilings(const graph::Graph& g,
                                             const fpga::BoardSpec& board,
                                             const DseOptions& options = {},
                                             const fpga::CostModel& model = {});

/// Seeds the sweep's CompileCache (options.cache, else the process-wide
/// CompileCache::Shared()) with the backbone kernels of a minimal folded
/// candidate, without running a sweep. Callers that amortize one shared
/// cache across sweeps (the fallback ladder, repeated/parallel DSE over
/// several boards) prewarm once so the first sweep starts from a warm
/// cache, the same steady state later sweeps enjoy. Writes the
/// `dse.cache.prewarm.*` gauges into the ambient obs::Registry::Current().
DsePrewarmStats PrewarmFoldedCache(const graph::Graph& g,
                                   const fpga::BoardSpec& board,
                                   const DseOptions& options = {},
                                   const fpga::CostModel& model = {});

}  // namespace clflow::core
