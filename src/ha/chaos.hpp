// Deterministic chaos-campaign harness for the HA execution layer.
//
// A campaign sweeps seeded resilience::FaultPlan scenarios -- each a
// random mix of transfer failures/corruptions, kernel hangs/corruptions,
// fmax droop, and device resets, scattered across the replicas of a fresh
// ReplicaSet over the campaign's one compiled design -- and asserts four
// recovery invariants on every scenario:
//
//   1. bit-exactness: every recovered batch matches the CPU graph oracle
//      exactly (std::equal on the raw floats, not AllClose);
//   2. conservation: no batch is lost or duplicated -- requested ==
//      completed, and per board dispatched == completed + faults;
//   3. bounded recovery: the simulated time burned by failed attempts of
//      any one batch stays under `recovery_bound` (the watchdog converts
//      hangs into structured faults, so detection cannot be unbounded);
//   4. observable accounting: the ha.* gauges exported after the scenario
//      re-derive the same conservation sums (what the operator sees is
//      what happened).
//
// Scenario generation derives only from (campaign seed, scenario index),
// and scenario execution forces one functional thread, so the report --
// including its order-insensitive Digest() -- is identical across reruns
// and at any `jobs` setting. A digest mismatch between two runs means
// nondeterminism crept into the runtime, which is itself a bug.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "core/deployment.hpp"

namespace clflow::ha {

struct ChaosOptions {
  int scenarios = 200;
  std::uint64_t seed = 2021;
  int replicas = 2;
  /// Client batches issued per scenario (each checked against the oracle).
  int batches_per_scenario = 3;
  /// Fault specs per scenario are drawn uniformly from [1, max_faults].
  int max_faults = 3;
  /// Worker threads running scenarios (results are aggregated in index
  /// order, so the report is identical at any setting).
  int jobs = 1;
  /// Invariant 3: max simulated time a single batch may burn in failed
  /// attempts before completing.
  SimTime recovery_bound = SimTime::Ms(150.0);
  /// Watchdog for the scenario runtimes (kept tight so hang scenarios are
  /// detected in bounded simulated time).
  SimTime watchdog_timeout = SimTime::Ms(5.0);
  /// Per-scenario flight-recorder prefix: scenario i dumps under
  /// "<prefix>s<i>_...". Empty disables dumps (the fast path for tests).
  std::string flightrec_prefix;
};

struct ChaosScenario {
  int index = 0;
  std::string fault_desc;  ///< FaultPlan::ToString per board, "|"-joined
  int batches = 0;
  int failovers = 0;
  int fallback_runs = 0;
  int quarantines = 0;
  double detection_us = 0.0;  ///< max single failed-attempt cost
  double recovery_us = 0.0;   ///< total failed-attempt cost
  /// Strongest recovery mechanism the scenario exercised:
  /// "none" < "retry" < "failover" < "fallback".
  std::string recovery_action = "none";
  bool ok = false;
  std::string outcome;  ///< "pass" or the violated invariant
};

struct ChaosReport {
  std::vector<ChaosScenario> scenarios;
  int passed = 0;
  int failed = 0;

  [[nodiscard]] bool ok() const { return failed == 0 && passed > 0; }
  /// FNV-1a over every scenario's fault spec, counters, and outcome, in
  /// index order. Equal seeds must yield equal digests at any jobs count.
  [[nodiscard]] std::uint64_t Digest() const;
  /// Per-scenario JSON table (the flow_inspector --chaos-report payload).
  [[nodiscard]] std::string ToJson() const;
  /// Human-readable pass/fail summary with per-action counts.
  [[nodiscard]] std::string SummaryTable() const;
};

/// Runs a chaos campaign for `g`, compiled once (full analysis gate) from
/// `base_options` with functional threading forced to 1 (determinism) and
/// the runtime watchdog set to `options.watchdog_timeout`. Throws
/// clflow::Error when the design itself does not compile.
[[nodiscard]] ChaosReport RunChaosCampaign(const graph::Graph& g,
                                           const core::DeployOptions& base_options,
                                           const ChaosOptions& options = {});

}  // namespace clflow::ha
