// Tests for the high-availability execution layer: the ReplicaSet health
// state machine and circuit breaker, bit-exact failover, graceful
// degradation to the folded fallback, the ha.* accounting gauges, and the
// deterministic chaos campaign with its four recovery invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/compile_cache.hpp"
#include "graph/graph.hpp"
#include "ha/chaos.hpp"
#include "ha/replica_set.hpp"
#include "nets/nets.hpp"
#include "obs/metrics.hpp"

namespace clflow {
namespace {

using ha::BoardHealth;
using ha::ChaosOptions;
using ha::HaOptions;
using ha::HaRunResult;
using ha::ReplicaSet;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::ParseFaultSpec;

core::DeployOptions LenetOptions() {
  core::DeployOptions opts;
  opts.mode = core::ExecutionMode::kPipelined;
  opts.recipe = core::PipelineAutorun();
  opts.recipe.concurrent_execution = true;
  opts.board = fpga::Stratix10SX();
  // A tight watchdog keeps hang scenarios cheap in simulated time.
  opts.runtime.watchdog_timeout = SimTime::Ms(5.0);
  return opts;
}

std::shared_ptr<FaultInjector> Plan(std::vector<std::string> specs,
                                    std::uint64_t seed = 17) {
  FaultPlan plan;
  plan.seed = seed;
  for (const auto& s : specs) plan.specs.push_back(ParseFaultSpec(s));
  return std::make_shared<FaultInjector>(plan);
}

/// A plan that hangs k_conv1 on its first `n` invocations: the board
/// faults on its first n batches (CLF502 each time).
std::shared_ptr<FaultInjector> DeadBoard(int n = 64) {
  std::vector<std::string> specs;
  specs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    specs.push_back("hang:k_conv1:" + std::to_string(i));
  }
  return Plan(std::move(specs));
}

Tensor Oracle(const ReplicaSet& rs, const graph::Graph& fused,
              const Tensor& input) {
  (void)rs;
  return graph::Execute(fused, input, 1);
}

void ExpectBitExact(const Tensor& got, const Tensor& expected) {
  const Tensor g = got.Reshaped(expected.shape());
  const auto gs = g.data();
  const auto es = expected.data();
  ASSERT_EQ(gs.size(), es.size());
  EXPECT_TRUE(std::equal(gs.begin(), gs.end(), es.begin()));
}

TEST(Ha, FailoverReissuesBatchBitExactly) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  ReplicaSet rs(net, LenetOptions(), {.replicas = 2});
  rs.set_fault_injector(0, Plan({"hang:k_conv1:0"}));

  Tensor image = Tensor::Random(net.node(net.input_id()).output_shape, rng,
                                0.0f, 1.0f);
  const HaRunResult r = rs.Run(image, /*functional=*/true);

  EXPECT_EQ(r.board, 1);  // board 0 faulted, board 1 served
  EXPECT_EQ(r.failovers(), 1);
  EXPECT_FALSE(r.used_fallback);
  ASSERT_EQ(r.failed_attempts.size(), 1u);
  EXPECT_EQ(r.failed_attempts[0].board, 0);
  EXPECT_EQ(r.failed_attempts[0].code, "CLF502");
  EXPECT_GT(r.recovery_time, kSimTimeZero);
  ExpectBitExact(r.output,
                 Oracle(rs, rs.replica(1).fused_graph(), image));

  // One CLF509 failover note landed in the diagnostics.
  EXPECT_EQ(rs.diagnostics().ByCode("CLF509").size(), 1u);
  // The fault degraded board 0; one more fault would quarantine it.
  EXPECT_EQ(rs.health(0), BoardHealth::kDegraded);
  EXPECT_EQ(rs.health(1), BoardHealth::kHealthy);
}

TEST(Ha, EventIdsStayUniqueAcrossFailoverReplays) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  ReplicaSet rs(net, LenetOptions(), {.replicas = 2});
  rs.set_fault_injector(0, Plan({"hang:k_conv1:0", "hang:k_conv1:2"}));

  Tensor image = Tensor::Random(net.node(net.input_id()).output_shape, rng,
                                0.0f, 1.0f);
  // Three requests: two fault on board 0 (abort + failover to board 1),
  // one serves on board 0 cleanly in between.
  for (int i = 0; i < 3; ++i) (void)rs.Run(image, /*functional=*/true);

  for (int b = 0; b < rs.num_replicas(); ++b) {
    const auto& pool = rs.replica(b).runtime().event_pool();
    // Aborted batches recycle slots, but every recorded event -- kept or
    // abandoned -- got its own id: ids are strictly increasing in record
    // order and the total covers live plus discarded events.
    std::uint64_t prev = 0;
    for (const auto view : pool) {
      EXPECT_GT(view.id, prev);
      prev = view.id;
    }
    EXPECT_GE(pool.total_recorded(), pool.size());
    EXPECT_LE(prev, pool.total_recorded());
  }
}

TEST(Ha, CircuitBreakerQuarantinesAndHalfOpenProbeRecovers) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  HaOptions ha;
  ha.replicas = 2;
  ha.quarantine_after = 2;
  ha.cooldown_batches = 2;
  ReplicaSet rs(net, LenetOptions(), ha);
  // Two hard faults on board 0's first two served batches, then clean.
  rs.set_fault_injector(0, Plan({"hang:k_conv1:0", "hang:k_conv1:1"}));

  Tensor image = Tensor::Random(net.node(net.input_id()).output_shape, rng,
                                0.0f, 1.0f);
  // Batch 1: board 0 faults (degraded), board 1 serves.
  (void)rs.Run(image, false);
  EXPECT_EQ(rs.health(0), BoardHealth::kDegraded);
  // Batch 2: round-robin sends it to board 0 again; second consecutive
  // fault trips the breaker.
  (void)rs.Run(image, false);
  EXPECT_EQ(rs.health(0), BoardHealth::kQuarantined);
  EXPECT_EQ(rs.board_state(0).quarantines, 1);
  EXPECT_EQ(rs.diagnostics().ByCode("CLF508").size(), 1u);

  // The quarantine batch itself ticked the cooldown once; one more batch
  // from board 1 runs it out and the breaker goes half-open.
  (void)rs.Run(image, false);
  EXPECT_EQ(rs.health(0), BoardHealth::kRecovering);

  // The next batch is board 0's half-open probe; its plan is exhausted so
  // the probe succeeds and the breaker closes.
  const HaRunResult probe = rs.Run(image, false);
  EXPECT_EQ(probe.board, 0);
  EXPECT_EQ(rs.health(0), BoardHealth::kHealthy);
  EXPECT_GE(rs.board_state(0).probes, 1);
}

TEST(Ha, FailedProbeReopensBreaker) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  HaOptions ha;
  ha.replicas = 2;
  ha.quarantine_after = 1;
  ha.cooldown_batches = 2;
  ReplicaSet rs(net, LenetOptions(), ha);
  rs.set_fault_injector(0, DeadBoard(8));

  Tensor image = Tensor::Random(net.node(net.input_id()).output_shape, rng,
                                0.0f, 1.0f);
  (void)rs.Run(image, false);  // board 0 faults -> quarantined immediately
  EXPECT_EQ(rs.health(0), BoardHealth::kQuarantined);
  (void)rs.Run(image, false);  // cooldown expires -> recovering
  EXPECT_EQ(rs.health(0), BoardHealth::kRecovering);
  (void)rs.Run(image, false);  // probe fails -> quarantined again
  EXPECT_EQ(rs.health(0), BoardHealth::kQuarantined);
  EXPECT_EQ(rs.board_state(0).quarantines, 2);
}

TEST(Ha, AllQuarantinedDegradesToFoldedFallback) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  HaOptions ha;
  ha.replicas = 2;
  ha.quarantine_after = 1;
  ha.cooldown_batches = 64;  // nobody comes back during the test
  ReplicaSet rs(net, LenetOptions(), ha);
  rs.set_fault_injector(0, DeadBoard());
  rs.set_fault_injector(1, DeadBoard());

  Tensor image = Tensor::Random(net.node(net.input_id()).output_shape, rng,
                                0.0f, 1.0f);
  const HaRunResult r = rs.Run(image, /*functional=*/true);
  EXPECT_TRUE(r.used_fallback);
  EXPECT_EQ(r.board, -1);
  EXPECT_EQ(r.failovers(), 2);  // both boards failed first
  ASSERT_TRUE(rs.fallback().has_value());
  ExpectBitExact(r.output,
                 graph::Execute(rs.fallback()->fused_graph(), image, 1));
  EXPECT_EQ(rs.diagnostics().ByCode("CLF510").size(), 1u);

  // Later batches keep completing from the fallback without recompiling.
  const HaRunResult r2 = rs.Run(image, /*functional=*/true);
  EXPECT_TRUE(r2.used_fallback);
  EXPECT_EQ(rs.fallback_runs(), 2);
  EXPECT_EQ(rs.batches_completed(), 2);
}

TEST(Ha, AllowFallbackFalseRethrowsLastFault) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  HaOptions ha;
  ha.replicas = 2;
  ha.quarantine_after = 1;
  ha.cooldown_batches = 64;
  ha.allow_fallback = false;
  ReplicaSet rs(net, LenetOptions(), ha);
  rs.set_fault_injector(0, DeadBoard());
  rs.set_fault_injector(1, DeadBoard());

  Tensor image = Tensor::Random(net.node(net.input_id()).output_shape, rng,
                                0.0f, 1.0f);
  EXPECT_THROW((void)rs.Run(image, false), RuntimeFaultError);
}

TEST(Ha, AccountingBalancesAndGaugesAgree) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  HaOptions ha;
  ha.replicas = 3;
  ha.quarantine_after = 2;
  ha.cooldown_batches = 2;
  ReplicaSet rs(net, LenetOptions(), ha);
  rs.set_fault_injector(0, Plan({"hang:k_conv1:0", "xfer-fail:write:1:8"}));
  rs.set_fault_injector(2, Plan({"corrupt:k_conv1:0:8"}));

  Tensor image = Tensor::Random(net.node(net.input_id()).output_shape, rng,
                                0.0f, 1.0f);
  constexpr int kBatches = 9;
  for (int i = 0; i < kBatches; ++i) (void)rs.Run(image, false);

  EXPECT_EQ(rs.batches_requested(), kBatches);
  EXPECT_EQ(rs.batches_completed(), kBatches);
  std::int64_t dispatched = 0, completed = 0, faults = 0;
  for (int b = 0; b < rs.num_replicas(); ++b) {
    const ha::BoardState& st = rs.board_state(b);
    EXPECT_EQ(st.dispatched, st.completed + st.faults) << "board " << b;
    dispatched += st.dispatched;
    completed += st.completed;
    faults += st.faults;
  }
  EXPECT_EQ(dispatched, rs.attempts());
  EXPECT_EQ(completed + rs.fallback_runs(), rs.batches_completed());
  EXPECT_EQ(faults, rs.failovers());

  obs::Registry reg;
  rs.ExportMetrics(reg);
  EXPECT_DOUBLE_EQ(reg.gauge("ha.replicas").value(), 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge("ha.batches.requested").value(),
                   static_cast<double>(kBatches));
  EXPECT_DOUBLE_EQ(reg.gauge("ha.batches.completed").value(),
                   static_cast<double>(kBatches));
  EXPECT_DOUBLE_EQ(reg.gauge("ha.attempts").value(),
                   static_cast<double>(rs.attempts()));
  double gauge_dispatched = 0.0;
  for (int b = 0; b < rs.num_replicas(); ++b) {
    // Boards export under their BoardLabel ("s10sx0"), not a bare index.
    gauge_dispatched +=
        reg.gauge("ha.board.dispatched", {{"board", rs.BoardLabel(b)}})
            .value();
  }
  EXPECT_DOUBLE_EQ(gauge_dispatched, static_cast<double>(rs.attempts()));
}

TEST(Ha, HeartbeatProbesFeedHealthAndCooldowns) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  HaOptions ha;
  ha.replicas = 2;
  ha.quarantine_after = 1;
  ha.cooldown_batches = 2;
  ReplicaSet rs(net, LenetOptions(), ha);
  rs.set_fault_injector(0, Plan({"hang:k_conv1:0"}));

  Tensor image = Tensor::Random(net.node(net.input_id()).output_shape, rng,
                                0.0f, 1.0f);
  rs.Heartbeat(image);  // board 0's probe faults -> quarantined
  EXPECT_EQ(rs.health(0), BoardHealth::kQuarantined);
  EXPECT_EQ(rs.health(1), BoardHealth::kHealthy);
  rs.Heartbeat(image);  // quarantined board skipped; cooldown expires
  EXPECT_EQ(rs.health(0), BoardHealth::kRecovering);
  rs.Heartbeat(image);  // recovering board probes clean -> healthy
  EXPECT_EQ(rs.health(0), BoardHealth::kHealthy);
  // Heartbeats never touch the client-batch ledger.
  EXPECT_EQ(rs.batches_requested(), 0);
  EXPECT_EQ(rs.batches_completed(), 0);
  EXPECT_GE(rs.board_state(1).probes, 3);
}

TEST(Ha, QuarantineDumpsAreSequencedPerBoard) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  HaOptions ha;
  ha.replicas = 2;
  ha.quarantine_after = 1;
  ha.cooldown_batches = 1;
  ha.flightrec_prefix = "test_ha_q_";
  ReplicaSet rs(net, LenetOptions(), ha);
  rs.set_fault_injector(0, DeadBoard(8));

  Tensor image = Tensor::Random(net.node(net.input_id()).output_shape, rng,
                                0.0f, 1.0f);
  // Quarantine board 0 twice: the first fault quarantines it, the one-batch
  // cooldown half-opens it immediately, and the failed probe re-quarantines.
  (void)rs.Run(image, false);
  (void)rs.Run(image, false);
  ASSERT_EQ(rs.board_state(0).quarantines, 2);

  const std::string first = "test_ha_q_board0_quarantine_flightrec.json";
  const std::string second = "test_ha_q_board0_quarantine_flightrec.1.json";
  std::ifstream f1(first), f2(second);
  EXPECT_TRUE(f1.good()) << first;
  EXPECT_TRUE(f2.good()) << second;
  f1.close();
  f2.close();
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(Ha, RejectsDegenerateOptions) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  EXPECT_THROW(ReplicaSet(net, LenetOptions(), {.replicas = 0}), Error);
  HaOptions bad;
  bad.quarantine_after = 0;
  EXPECT_THROW(ReplicaSet(net, LenetOptions(), bad), Error);
}

TEST(Ha, BoardsShareOneCompiledDesign) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  // The cache counts synthesis lookups: one per kernel per compile.
  auto cache = std::make_shared<core::CompileCache>();
  core::DeployOptions opts = LenetOptions();
  opts.compile_cache = cache;
  HaOptions ha;
  ha.replicas = 3;
  ReplicaSet rs(net, opts, ha);
  for (int b = 1; b < rs.num_replicas(); ++b) {
    EXPECT_EQ(&rs.replica(0).kernels(), &rs.replica(b).kernels());
    EXPECT_NE(&rs.replica(0).runtime(), &rs.replica(b).runtime());
  }
  const core::CompileCacheStats stats = cache->stats();
  EXPECT_EQ(stats.design_hits + stats.design_misses,
            static_cast<std::int64_t>(rs.replica(0).kernels().size()));

  // The compiled-design constructor instantiates without compiling, and
  // leaves the deployment it was given alone.
  const core::Deployment compiled = core::Deployment::Compile(net, opts);
  const core::CompileCacheStats before = cache->stats();
  ReplicaSet again(compiled, ha);
  EXPECT_EQ(&again.replica(2).kernels(), &compiled.kernels());
  const Tensor image = nets::SyntheticMnistImage(rng);
  ExpectBitExact(again.Run(image).output,
                 Oracle(again, compiled.fused_graph(), image));
  EXPECT_EQ(cache->stats().design_hits, before.design_hits);
  EXPECT_EQ(cache->stats().design_misses, before.design_misses);
  EXPECT_EQ(compiled.runtime().now(), kSimTimeZero);
}

// --- Chaos campaign ---------------------------------------------------------

TEST(Chaos, TwoHundredSeededScenariosHoldAllInvariants) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  ChaosOptions copts;
  copts.scenarios = 200;
  copts.jobs = HardwareThreads();
  const ha::ChaosReport rep =
      ha::RunChaosCampaign(net, LenetOptions(), copts);
  EXPECT_TRUE(rep.ok()) << rep.SummaryTable();
  EXPECT_EQ(rep.passed, 200);
  EXPECT_EQ(rep.failed, 0);
  // The sweep must actually exercise the recovery machinery, not just
  // pass vacuously.
  int failover_scenarios = 0, faulted_scenarios = 0;
  for (const auto& s : rep.scenarios) {
    if (s.failovers > 0) ++failover_scenarios;
    if (s.recovery_action != "none") ++faulted_scenarios;
  }
  EXPECT_GT(failover_scenarios, 10);
  EXPECT_GT(faulted_scenarios, 50);
}

TEST(Chaos, CampaignCompilesTheDesignOnce) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  auto cache = std::make_shared<core::CompileCache>();
  core::DeployOptions opts = LenetOptions();
  opts.compile_cache = cache;
  ChaosOptions copts;
  copts.scenarios = 12;
  copts.jobs = 2;
  const ha::ChaosReport rep = ha::RunChaosCampaign(net, opts, copts);
  EXPECT_TRUE(rep.ok()) << rep.SummaryTable();
  // Synthesis lookups: one per kernel for the campaign's one compile, plus
  // one folded-fallback compile per scenario that needed the fallback
  // (never one compile per scenario and board).
  const auto kernels =
      core::Deployment::Compile(net, LenetOptions()).kernels().size();
  core::DeployOptions fallback = LenetOptions();
  fallback.mode = core::ExecutionMode::kFolded;
  fallback.recipe = core::FoldedBase();
  const auto fallback_kernels =
      core::Deployment::Compile(net, fallback).kernels().size();
  std::size_t fallback_scenarios = 0;
  for (const auto& s : rep.scenarios) {
    if (s.fallback_runs > 0) ++fallback_scenarios;
  }
  const core::CompileCacheStats stats = cache->stats();
  EXPECT_EQ(stats.design_hits + stats.design_misses,
            static_cast<std::int64_t>(kernels +
                                      fallback_scenarios * fallback_kernels));
}

TEST(Chaos, DigestIsIdenticalAcrossRerunsAndThreadCounts) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  ChaosOptions copts;
  copts.scenarios = 40;
  copts.jobs = 1;
  const auto serial = ha::RunChaosCampaign(net, LenetOptions(), copts);
  const auto serial2 = ha::RunChaosCampaign(net, LenetOptions(), copts);
  copts.jobs = 4;
  const auto parallel = ha::RunChaosCampaign(net, LenetOptions(), copts);
  EXPECT_TRUE(serial.ok()) << serial.SummaryTable();
  EXPECT_EQ(serial.Digest(), serial2.Digest());
  EXPECT_EQ(serial.Digest(), parallel.Digest());
}

TEST(Chaos, DifferentSeedsProduceDifferentSweeps) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  ChaosOptions copts;
  copts.scenarios = 10;
  const auto a = ha::RunChaosCampaign(net, LenetOptions(), copts);
  copts.seed = 777;
  const auto b = ha::RunChaosCampaign(net, LenetOptions(), copts);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(Chaos, ReportSerializesScenarioTable) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  ChaosOptions copts;
  copts.scenarios = 5;
  const auto rep = ha::RunChaosCampaign(net, LenetOptions(), copts);
  ASSERT_EQ(rep.scenarios.size(), 5u);
  const std::string json = rep.ToJson();
  EXPECT_NE(json.find("\"scenarios\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery_action\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\": \"pass\""), std::string::npos);
  for (const auto& s : rep.scenarios) {
    EXPECT_FALSE(s.fault_desc.empty());
    EXPECT_NE(json.find(std::string("\"index\": ") + std::to_string(s.index)),
              std::string::npos);
  }
  const std::string summary = rep.SummaryTable();
  EXPECT_NE(summary.find("5 passed"), std::string::npos);
}

}  // namespace
}  // namespace clflow
