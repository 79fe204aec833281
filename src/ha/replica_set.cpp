#include "ha/replica_set.hpp"

#include <exception>
#include <utility>

#include "common/error.hpp"
#include "telemetry/flight_recorder.hpp"

namespace clflow::ha {

std::string_view BoardHealthName(BoardHealth health) {
  switch (health) {
    case BoardHealth::kHealthy: return "healthy";
    case BoardHealth::kDegraded: return "degraded";
    case BoardHealth::kQuarantined: return "quarantined";
    case BoardHealth::kRecovering: return "recovering";
  }
  return "?";
}

namespace {

std::string BoardTag(int board) {
  return board < 0 ? std::string("fallback")
                   : "board" + std::to_string(board);
}

}  // namespace

ReplicaSet::ReplicaSet(const graph::Graph& g,
                       const core::DeployOptions& options, HaOptions ha)
    : ReplicaSet(core::Deployment::Compile(g, options), std::move(ha)) {}

ReplicaSet::ReplicaSet(const core::Deployment& compiled, HaOptions ha)
    : ha_(std::move(ha)),
      telemetry_(std::make_shared<obs::Telemetry>()),
      diags_(std::make_shared<analysis::DiagnosticEngine>(
          &telemetry_->registry)) {
  CLFLOW_CHECK_MSG(ha_.replicas >= 1, "ReplicaSet needs >= 1 replica");
  CLFLOW_CHECK_MSG(ha_.quarantine_after >= 1,
                   "quarantine_after must be >= 1");
  CLFLOW_CHECK_MSG(ha_.cooldown_batches >= 1,
                   "cooldown_batches must be >= 1");
  if (!compiled.ok()) {
    throw Error("ReplicaSet: design does not synthesize: " +
                compiled.bitstream().status_detail);
  }
  // Every board programs the same bitstream: one compiled design, one
  // fresh runtime instance per board.
  replicas_.reserve(static_cast<std::size_t>(ha_.replicas));
  for (int b = 0; b < ha_.replicas; ++b) {
    replicas_.push_back(compiled.Instantiate(
        ha_.flightrec_prefix.empty()
            ? std::string()
            : ha_.flightrec_prefix + BoardTag(b) + "_flightrec.json"));
  }
  boards_.resize(replicas_.size());
  baselines_.resize(replicas_.size());
  quarantine_dumps_.resize(replicas_.size(), 0);
}

std::string ReplicaSet::BoardLabel(int board) const {
  if (board < 0) return "fallback";
  return replicas_[static_cast<std::size_t>(board)].options().board.key +
         std::to_string(board);
}

void ReplicaSet::set_fault_injector(
    int board, std::shared_ptr<resilience::FaultInjector> injector) {
  replica(board).runtime().set_fault_injector(std::move(injector));
}

int ReplicaSet::PickBoard(const std::vector<bool>& attempted) {
  const int n = num_replicas();
  // A half-open board gets the next batch as its probe: that is the only
  // way a quarantined board earns its way back into the rotation.
  for (int b = 0; b < n; ++b) {
    if (!attempted[static_cast<std::size_t>(b)] &&
        boards_[static_cast<std::size_t>(b)].health ==
            BoardHealth::kRecovering) {
      return b;
    }
  }
  // Round-robin over the serving pool (healthy and degraded boards both
  // serve; degraded ones are merely watched more closely).
  for (int k = 0; k < n; ++k) {
    const int b = (cursor_ + k) % n;
    if (attempted[static_cast<std::size_t>(b)]) continue;
    const BoardHealth h = boards_[static_cast<std::size_t>(b)].health;
    if (h == BoardHealth::kHealthy || h == BoardHealth::kDegraded) {
      cursor_ = (b + 1) % n;
      return b;
    }
  }
  return -1;
}

void ReplicaSet::OnSuccess(int board, bool clean) {
  BoardState& st = boards_[static_cast<std::size_t>(board)];
  const BoardHealth before = st.health;
  st.consecutive_faults = 0;
  if (!clean) {
    // The batch completed only via retries/reruns/reprograms: a soft
    // signal. The board keeps serving but is watched (degraded).
    st.consecutive_ok = 0;
    if (st.health == BoardHealth::kHealthy ||
        st.health == BoardHealth::kRecovering) {
      st.health = BoardHealth::kDegraded;
    }
  } else {
    ++st.consecutive_ok;
    if (st.health == BoardHealth::kRecovering) {
      // Half-open probe succeeded: the circuit breaker closes.
      st.health = BoardHealth::kHealthy;
    } else if (st.health == BoardHealth::kDegraded &&
               st.consecutive_ok >= ha_.promote_after) {
      st.health = BoardHealth::kHealthy;
    }
  }
  NoteTransition(board, before, st.health);
}

void ReplicaSet::NoteTransition(int board, BoardHealth from, BoardHealth to) {
  if (from == to) return;
  transitions_.push_back({batches_requested_, board, from, to});
  obs::ScopedSpan span(&telemetry_->tracer, "ha:transition", "ha");
  span.Arg("board", static_cast<std::int64_t>(board));
  span.Arg("from", std::string(BoardHealthName(from)));
  span.Arg("to", std::string(BoardHealthName(to)));
}

void ReplicaSet::OnFault(int board, const RuntimeFaultError& err) {
  BoardState& st = boards_[static_cast<std::size_t>(board)];
  const BoardHealth before = st.health;
  st.consecutive_ok = 0;
  ++st.consecutive_faults;
  const bool probe_failed = st.health == BoardHealth::kRecovering;
  if (st.health == BoardHealth::kHealthy) {
    st.health = BoardHealth::kDegraded;
  }
  if (probe_failed || st.consecutive_faults >= ha_.quarantine_after) {
    st.health = BoardHealth::kQuarantined;
    st.cooldown_left = ha_.cooldown_batches;
    ++st.quarantines;
    analysis::DiagLocation loc;
    loc.kernel = err.kernel();
    diags_->Report(analysis::Diagnostic::Make(
        analysis::kReplicaQuarantined, std::move(loc),
        BoardTag(board) + " quarantined after " +
            std::to_string(st.consecutive_faults) +
            " consecutive fault(s); last: " + err.what() +
            (probe_failed ? " (half-open probe failed)" : "")));
    obs::ScopedSpan span(&telemetry_->tracer, "ha:quarantine", "ha");
    span.Arg("board", static_cast<std::int64_t>(board));
    span.Arg("code", err.code());
    // The postmortem: dump the quarantined board's recent event ring.
    // Sequence-suffixed so repeated quarantines of one board never
    // overwrite each other.
    auto& dep = replicas_[static_cast<std::size_t>(board)];
    dep.flight_recorder().Note("quarantine",
                               "CLF508 " + BoardTag(board), {},
                               err.what());
    if (!ha_.flightrec_prefix.empty()) {
      const std::string path = telemetry::SequencedDumpPath(
          ha_.flightrec_prefix + BoardTag(board) +
              "_quarantine_flightrec.json",
          quarantine_dumps_[static_cast<std::size_t>(board)]++);
      dep.flight_recorder().DumpToFile(path);
    }
  }
  NoteTransition(board, before, st.health);
}

void ReplicaSet::TickCooldowns() {
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    BoardState& st = boards_[b];
    if (st.health != BoardHealth::kQuarantined) continue;
    if (--st.cooldown_left <= 0) {
      st.cooldown_left = 0;
      st.health = BoardHealth::kRecovering;
      NoteTransition(static_cast<int>(b), BoardHealth::kQuarantined,
                     BoardHealth::kRecovering);
    }
  }
}

core::Deployment& ReplicaSet::EnsureFallback() {
  if (fallback_) return *fallback_;
  obs::ScopedSpan span(&telemetry_->tracer, "ha:fallback_compile", "ha");
  core::DeployOptions fo = replicas_.front().options();
  fo.mode = core::ExecutionMode::kFolded;
  fo.recipe = core::FoldedBase();
  fo.flightrec_path = ha_.flightrec_prefix.empty()
                          ? std::string()
                          : ha_.flightrec_prefix + "fallback_flightrec.json";
  core::FallbackResult res =
      core::CompileWithFallback(replicas_.front().fused_graph(), fo);
  if (!res.ok()) {
    throw Error("ReplicaSet: every replica is quarantined and the folded "
                "fallback ladder found no synthesizable design");
  }
  diags_->Report(analysis::Diagnostic::Make(
      analysis::kAllReplicasDown, {},
      "all " + std::to_string(num_replicas()) +
          " replica(s) unavailable; serving from the folded fallback (" +
          res.attempts.back().recipe + ")"));
  fallback_.emplace(std::move(*res.deployment));
  return *fallback_;
}

HaRunResult ReplicaSet::Run(const Tensor& input, bool functional) {
  ++batches_requested_;
  const std::uint64_t batch_id = static_cast<std::uint64_t>(
      batches_requested_);
  std::vector<bool> attempted(static_cast<std::size_t>(num_replicas()),
                              false);
  HaRunResult out;
  std::exception_ptr last_fault;
  for (;;) {
    const int b = PickBoard(attempted);
    if (b < 0) break;
    BoardState& st = boards_[static_cast<std::size_t>(b)];
    RecoveryBaseline& base = baselines_[static_cast<std::size_t>(b)];
    if (st.health == BoardHealth::kRecovering) ++st.probes;
    ++st.dispatched;
    ++attempts_;
    core::Deployment& dep = replicas_[static_cast<std::size_t>(b)];
    ocl::Runtime& rt = dep.runtime();
    const SimTime before = rt.now();
    try {
      core::RunResult r = dep.Run(input, functional);
      const bool clean = rt.xfer_retries() == base.xfer_retries &&
                         rt.kernel_reruns() == base.kernel_reruns &&
                         rt.reprograms() == base.reprograms;
      base = {rt.xfer_retries(), rt.kernel_reruns(), rt.reprograms()};
      OnSuccess(b, clean);
      ++st.completed;
      ++batches_completed_;
      if (!out.failed_attempts.empty()) {
        // Close the failover flow arrow: the replaying board's recorder
        // names the batch and the board it took over from.
        dep.flight_recorder().Note(
            "failover", "CLF509 in " + BoardTag(b), {batch_id, 0},
            "batch#" + std::to_string(batch_id) + " replayed from " +
                BoardTag(out.failed_attempts.back().board));
      }
      out.output = std::move(r.output);
      out.latency = r.latency;
      out.board = b;
      TickCooldowns();
      return out;
    } catch (const RuntimeFaultError& e) {
      const SimTime cost = rt.now() - before;
      // The batch is lost on this board: clear the half-enqueued state so
      // the board stays usable for probes and later batches.
      rt.AbortBatch();
      base = {rt.xfer_retries(), rt.kernel_reruns(), rt.reprograms()};
      ++st.faults;
      ++failovers_;
      last_fault = std::current_exception();
      out.failed_attempts.push_back({b, e.code(), cost});
      out.recovery_time += cost;
      recovery_time_ += cost;
      max_detection_ = std::max(max_detection_, cost);
      attempted[static_cast<std::size_t>(b)] = true;
      analysis::DiagLocation loc;
      loc.kernel = e.kernel();
      diags_->Report(analysis::Diagnostic::Make(
          analysis::kBatchFailover, std::move(loc),
          "batch#" + std::to_string(batch_id) + " failed on " + BoardTag(b) +
              " (" + e.code() + "), re-issuing on a replica"));
      obs::ScopedSpan span(&telemetry_->tracer, "ha:failover", "ha");
      span.Arg("batch", static_cast<std::int64_t>(batch_id));
      span.Arg("from", static_cast<std::int64_t>(b));
      span.Arg("code", e.code());
      // Open the flow arrow in the failed board's recorder.
      dep.flight_recorder().Note(
          "failover", "CLF509 out " + BoardTag(b), {batch_id, 0},
          "batch#" + std::to_string(batch_id) + " lost to " + e.code() +
              ", re-issued on a replica");
      OnFault(b, e);
    }
  }

  // Every replica is quarantined or already failed this batch: last-resort
  // graceful degradation to the folded baseline.
  if (!ha_.allow_fallback) {
    if (last_fault) std::rethrow_exception(last_fault);
    throw RuntimeFaultError(
        std::string(analysis::kAllReplicasDown.id),
        "all replicas quarantined and HaOptions::allow_fallback is false");
  }
  core::Deployment& fb = EnsureFallback();
  obs::ScopedSpan span(&telemetry_->tracer, "ha:fallback_run", "ha");
  span.Arg("batch", static_cast<std::int64_t>(batch_id));
  core::RunResult r = fb.Run(input, functional);
  ++fallback_runs_;
  ++batches_completed_;
  out.output = std::move(r.output);
  out.latency = r.latency;
  out.board = -1;
  out.used_fallback = true;
  TickCooldowns();
  return out;
}

void ReplicaSet::Heartbeat(const Tensor& input) {
  for (int b = 0; b < num_replicas(); ++b) {
    BoardState& st = boards_[static_cast<std::size_t>(b)];
    if (st.health == BoardHealth::kQuarantined) continue;
    ++st.probes;
    ++st.dispatched;
    ++attempts_;
    core::Deployment& dep = replicas_[static_cast<std::size_t>(b)];
    ocl::Runtime& rt = dep.runtime();
    RecoveryBaseline& base = baselines_[static_cast<std::size_t>(b)];
    try {
      (void)dep.Run(input, /*functional=*/false);
      const bool clean = rt.xfer_retries() == base.xfer_retries &&
                         rt.kernel_reruns() == base.kernel_reruns &&
                         rt.reprograms() == base.reprograms;
      base = {rt.xfer_retries(), rt.kernel_reruns(), rt.reprograms()};
      ++st.completed;
      OnSuccess(b, clean);
    } catch (const RuntimeFaultError& e) {
      rt.AbortBatch();
      base = {rt.xfer_retries(), rt.kernel_reruns(), rt.reprograms()};
      ++st.faults;
      OnFault(b, e);
    }
  }
  TickCooldowns();
}

void ReplicaSet::ExportMetrics(obs::Registry& registry,
                               const obs::Labels& base_labels) const {
  auto with = [&base_labels](obs::Labels extra) {
    extra.insert(base_labels.begin(), base_labels.end());
    return extra;
  };
  registry.gauge("ha.replicas", base_labels)
      .Set(static_cast<double>(num_replicas()));
  registry.gauge("ha.batches.requested", base_labels)
      .Set(static_cast<double>(batches_requested_));
  registry.gauge("ha.batches.completed", base_labels)
      .Set(static_cast<double>(batches_completed_));
  registry.gauge("ha.attempts", base_labels)
      .Set(static_cast<double>(attempts_));
  registry.gauge("ha.failovers", base_labels)
      .Set(static_cast<double>(failovers_));
  registry.gauge("ha.fallback_runs", base_labels)
      .Set(static_cast<double>(fallback_runs_));
  registry.gauge("ha.recovery_us", base_labels).Set(recovery_time_.us());
  registry.gauge("ha.detection_latency_max_us", base_labels)
      .Set(max_detection_.us());
  for (int b = 0; b < num_replicas(); ++b) {
    const BoardState& st = boards_[static_cast<std::size_t>(b)];
    // The board label is a dimension ("which board"), not part of the
    // metric name: ha_board_state{board="s10sx0"} in the Prometheus
    // export, never ha_board_s10sx0_state.
    const obs::Labels l = with({{"board", BoardLabel(b)}});
    registry.gauge("ha.board.state", l)
        .Set(static_cast<double>(static_cast<int>(st.health)));
    registry.gauge("ha.board.dispatched", l)
        .Set(static_cast<double>(st.dispatched));
    registry.gauge("ha.board.completed", l)
        .Set(static_cast<double>(st.completed));
    registry.gauge("ha.board.faults", l)
        .Set(static_cast<double>(st.faults));
    registry.gauge("ha.board.quarantines", l)
        .Set(static_cast<double>(st.quarantines));
    registry.gauge("ha.board.probes", l)
        .Set(static_cast<double>(st.probes));
  }
}

}  // namespace clflow::ha
