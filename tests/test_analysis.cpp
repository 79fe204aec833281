// Tests for the static-analysis layer (clflow::analysis): the diagnostic
// engine, the CLF code registry, the IR verifier, the dataflow checker,
// the perf lints, and the compile gate in core::Deployment.
//
// Every CLF code has at least one test that provokes it deliberately and
// asserts the code, severity, and fix-it of the resulting diagnostic; a
// property suite then checks that every shipped recipe compiles with zero
// error-severity findings (the paper's naive recipes intentionally carry
// CLF3xx warnings -- those are the diagnoses of Chapter 6).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/dataflow_checker.hpp"
#include "analysis/diag.hpp"
#include "analysis/ir_verifier.hpp"
#include "analysis/perf_lint.hpp"
#include "common/error.hpp"
#include "core/deployment.hpp"
#include "ir/passes.hpp"
#include "nets/nets.hpp"

namespace clflow::analysis {
namespace {

using ir::Add;
using ir::Block;
using ir::FloatImm;
using ir::For;
using ir::IntImm;
using ir::Load;
using ir::MakeBuffer;
using ir::MakeVar;
using ir::MemScope;
using ir::Stmt;
using ir::Store;
using ir::VarRef;

/// Asserts exactly one diagnostic with `info`'s code and returns it,
/// checking severity and that a fix-it hint is present.
Diagnostic Expect(const DiagnosticEngine& engine, const CodeInfo& info) {
  const auto found = engine.ByCode(info.id);
  EXPECT_EQ(found.size(), 1u) << "expected exactly one " << info.id
                              << ", got:\n"
                              << engine.ToText();
  if (found.empty()) return {};
  EXPECT_EQ(found[0].code, info.id);
  EXPECT_EQ(found[0].severity, info.default_severity);
  EXPECT_FALSE(found[0].fixit.empty()) << info.id << " carries no fix-it";
  return found[0];
}

// --- Code registry -----------------------------------------------------------

TEST(Codes, RegistryIsConsistent) {
  for (const CodeInfo* info : kAllCodes) {
    EXPECT_EQ(info->id.substr(0, 3), "CLF");
    EXPECT_FALSE(info->title.empty());
    EXPECT_FALSE(info->paper_ref.empty());
    EXPECT_FALSE(info->default_fixit.empty());
    EXPECT_EQ(FindCode(info->id), info);
  }
  EXPECT_EQ(FindCode("CLF999"), nullptr);
  // Ids are unique.
  for (const CodeInfo* a : kAllCodes) {
    int hits = 0;
    for (const CodeInfo* b : kAllCodes) {
      if (a->id == b->id) ++hits;
    }
    EXPECT_EQ(hits, 1) << a->id;
  }
}

// --- Diagnostic engine -------------------------------------------------------

TEST(DiagnosticEngine, CountsAndRenders) {
  DiagnosticEngine engine;
  engine.Report(Diagnostic::Make(kOutOfBounds, {"k", "i", "buf"}, "oob"));
  engine.Report(Diagnostic::Make(kUnpinnedStride, {"k", "", "w"}, "stride"));
  EXPECT_EQ(engine.error_count(), 1);
  EXPECT_EQ(engine.warning_count(), 1);
  EXPECT_TRUE(engine.HasErrors());
  const std::string text = engine.ToText();
  EXPECT_NE(text.find("CLF102"), std::string::npos);
  EXPECT_NE(text.find("CLF301"), std::string::npos);
  const std::string json = engine.ToJson();
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\":1"), std::string::npos);
  engine.Clear();
  EXPECT_FALSE(engine.HasErrors());
  EXPECT_TRUE(engine.diagnostics().empty());
}

TEST(DiagnosticEngine, SeverityOverridesPromoteAndDemote) {
  DiagnosticEngine engine;
  engine.OverrideSeverity("CLF301", Severity::kError);
  engine.OverrideSeverity("CLF201", Severity::kWarning);
  engine.Report(Diagnostic::Make(kUnpinnedStride, {"k", "", "w"}, "m"));
  engine.Report(Diagnostic::Make(kChannelNoWriter, {"k", "", "ch"}, "m"));
  EXPECT_EQ(engine.error_count(), 1);   // promoted lint
  EXPECT_EQ(engine.warning_count(), 1);  // demoted deadlock
  EXPECT_EQ(engine.ByCode("CLF301")[0].severity, Severity::kError);
  EXPECT_EQ(engine.ByCode("CLF201")[0].severity, Severity::kWarning);
}

// --- IR verifier -------------------------------------------------------------

TEST(IrVerifier, Clf101UndefinedVariable) {
  auto a = MakeBuffer("a", {IntImm(8)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  auto ghost = MakeVar("ghost");
  ir::Kernel k;
  k.name = "k";
  k.buffer_args = {a};
  k.body = For(i, IntImm(0), IntImm(8),
               Store(a, {VarRef(i)}, VarRef(ghost)));
  DiagnosticEngine engine;
  EXPECT_GT(VerifyKernel(k, engine), 0);
  const auto d = Expect(engine, kUndefinedVar);
  EXPECT_EQ(d.location.kernel, "k");
  EXPECT_NE(d.message.find("ghost"), std::string::npos);
}

TEST(IrVerifier, Clf102OutOfBoundsStore) {
  auto a = MakeBuffer("a", {IntImm(8)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  ir::Kernel k;
  k.name = "k";
  k.buffer_args = {a};
  k.body = For(i, IntImm(0), IntImm(8),
               Store(a, {Add(VarRef(i), IntImm(4))}, FloatImm(0)));
  DiagnosticEngine engine;
  EXPECT_GT(VerifyKernel(k, engine), 0);
  const auto d = Expect(engine, kOutOfBounds);
  EXPECT_EQ(d.location.buffer, "a");
  EXPECT_EQ(d.location.loop, "i");
}

TEST(IrVerifier, Clf102GuardedAccessIsNotFlagged) {
  // The padding pattern: a Select whose taken branch guards the address.
  auto a = MakeBuffer("a", {IntImm(8)}, MemScope::kGlobal, true);
  auto b = MakeBuffer("b", {IntImm(8)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  ir::Kernel k;
  k.name = "pad";
  k.buffer_args = {a, b};
  k.body = For(i, IntImm(0), IntImm(8),
               Store(b, {VarRef(i)},
                     ir::Select(ir::Binary(ir::BinOp::kLt, VarRef(i), IntImm(7)),
                                Load(a, {Add(VarRef(i), IntImm(1))}),
                                FloatImm(0))));
  DiagnosticEngine engine;
  EXPECT_EQ(VerifyKernel(k, engine), 0) << engine.ToText();
}

TEST(IrVerifier, Clf103CrossLaneUnrollDependence) {
  // a[i+1] = a[i] under full unrolling: lane i+1 reads what lane i writes,
  // but the lanes execute concurrently.
  auto a = MakeBuffer("a", {IntImm(16)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  ir::ForAnnotation ann;
  ann.unroll = -1;
  ir::Kernel k;
  k.name = "shift";
  k.buffer_args = {a};
  k.body = For(i, IntImm(0), IntImm(8),
               Store(a, {Add(VarRef(i), IntImm(1))}, Load(a, {VarRef(i)})),
               ann);
  DiagnosticEngine engine;
  EXPECT_GT(VerifyKernel(k, engine), 0);
  const auto d = Expect(engine, kUnrollDependence);
  EXPECT_EQ(d.location.loop, "i");
  EXPECT_EQ(d.location.buffer, "a");
}

TEST(IrVerifier, Clf103ReductionIsLegal) {
  // acc[0] += x[i] under unrolling is the legal pattern (AOC builds an
  // adder tree); same-element store/load must not be flagged.
  auto x = MakeBuffer("x", {IntImm(8)}, MemScope::kGlobal, true);
  auto acc = MakeBuffer("acc", {IntImm(1)}, MemScope::kPrivate);
  auto i = MakeVar("i");
  ir::ForAnnotation ann;
  ann.unroll = -1;
  ir::Kernel k;
  k.name = "reduce";
  k.buffer_args = {x};
  k.local_buffers = {acc};
  k.body = Block(
      {Store(acc, {IntImm(0)}, FloatImm(0)),
       For(i, IntImm(0), IntImm(8),
           Store(acc, {IntImm(0)},
                 Add(Load(acc, {IntImm(0)}), Load(x, {VarRef(i)}))),
           ann)});
  DiagnosticEngine engine;
  EXPECT_EQ(VerifyKernel(k, engine), 0) << engine.ToText();
}

TEST(IrVerifier, Clf104StoreToConstantBuffer) {
  auto w = MakeBuffer("w", {IntImm(4)}, MemScope::kConstant, true);
  auto i = MakeVar("i");
  ir::Kernel k;
  k.name = "k";
  k.buffer_args = {w};
  k.body = For(i, IntImm(0), IntImm(4), Store(w, {VarRef(i)}, FloatImm(0)));
  DiagnosticEngine engine;
  EXPECT_GT(VerifyKernel(k, engine), 0);
  const auto d = Expect(engine, kScopeViolation);
  EXPECT_EQ(d.location.buffer, "w");
}

TEST(IrVerifier, Clf105UnrollOnSymbolicExtent) {
  auto a = MakeBuffer("a", {IntImm(64)}, MemScope::kGlobal, true);
  auto n = MakeVar("N", ir::VarKind::kShapeParam);
  auto i = MakeVar("i");
  ir::ForAnnotation ann;
  ann.unroll = -1;
  ir::Kernel k;
  k.name = "k";
  k.buffer_args = {a};
  k.scalar_args = {n};
  k.body = For(i, IntImm(0), VarRef(n),
               Store(a, {IntImm(0)}, FloatImm(0)), ann);
  DiagnosticEngine engine;
  EXPECT_GT(VerifyKernel(k, engine), 0);
  const auto d = Expect(engine, kUnrollNonConst);
  EXPECT_EQ(d.location.loop, "i");
}

TEST(IrVerifier, Clf106UninitializedOnChipRead) {
  auto out = MakeBuffer("out", {IntImm(4)}, MemScope::kGlobal, true);
  auto scratch = MakeBuffer("scratch", {IntImm(4)}, MemScope::kLocal);
  auto i = MakeVar("i");
  ir::Kernel k;
  k.name = "k";
  k.buffer_args = {out};
  k.local_buffers = {scratch};
  k.body = For(i, IntImm(0), IntImm(4),
               Store(out, {VarRef(i)}, Load(scratch, {VarRef(i)})));
  DiagnosticEngine engine;
  EXPECT_GT(VerifyKernel(k, engine), 0);
  const auto d = Expect(engine, kUninitRead);
  EXPECT_EQ(d.location.buffer, "scratch");
}

// --- Dataflow checker --------------------------------------------------------

/// Compact PlanStep factory for hand-built plans.
PlanStep Step(std::string kernel, int queue = 0, bool autorun = false,
              std::int64_t num_args = 0, double channel_writes = 0.0,
              std::vector<std::string> reads = {},
              std::vector<std::string> writes = {},
              std::vector<int> deps = {}) {
  PlanStep s;
  s.kernel = std::move(kernel);
  s.queue = queue;
  s.autorun = autorun;
  s.num_args = num_args;
  s.channel_writes = channel_writes;
  s.reads = std::move(reads);
  s.writes = std::move(writes);
  s.deps = std::move(deps);
  return s;
}

TEST(DataflowChecker, Clf201ChannelWithoutProducer) {
  Plan plan;
  plan.steps.push_back(Step("consumer", 0, false, 0, 0, {"ch"}));
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  const auto d = Expect(engine, kChannelNoWriter);
  EXPECT_EQ(d.location.buffer, "ch");
}

TEST(DataflowChecker, Clf202MultipleWriters) {
  Plan plan;
  plan.steps.push_back(Step("w1", 0, false, 0, 0, {}, {"ch"}));
  plan.steps.push_back(Step("w2", 0, false, 0, 0, {}, {"ch"}));
  plan.steps.push_back(Step("r", 1, false, 0, 0, {"ch"}));
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  (void)Expect(engine, kChannelEndpoints);
}

TEST(DataflowChecker, Clf203ConsumerEnqueuedBeforeProducer) {
  Plan plan;
  plan.steps.push_back(Step("consumer", 0, false, 0, 0, {"ch"}));
  plan.steps.push_back(Step("producer", 0, false, 0, 0, {}, {"ch"}));
  plan.channels["ch"] = 1024;
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  const auto d = Expect(engine, kChannelDeadlock);
  EXPECT_EQ(d.location.kernel, "consumer");
}

TEST(DataflowChecker, Clf203FifoDepthCannotAbsorbProducer) {
  Plan plan;
  plan.steps.push_back(Step("producer", 0, false, 0, 4096, {}, {"ch"}));
  plan.steps.push_back(Step("consumer", 0, false, 0, 0, {"ch"}));
  plan.channels["ch"] = 16;  // same queue 0: FIFO must buffer all 4096
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  (void)Expect(engine, kChannelDeadlock);
}

TEST(DataflowChecker, Clf203ChannelCycle) {
  Plan plan;
  plan.steps.push_back(Step("a", 0, false, 0, 0, {"back"}, {"fwd"}));
  plan.steps.push_back(Step("b", 1, false, 0, 0, {"fwd"}, {"back"}));
  plan.channels["fwd"] = 1;
  plan.channels["back"] = 1;
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  EXPECT_FALSE(engine.ByCode("CLF203").empty()) << engine.ToText();
}

TEST(DataflowChecker, Clf204AutorunWithArguments) {
  Plan plan;
  plan.steps.push_back(Step("auto", 0, true, 3, 0, {"in"}, {"out"}));
  plan.steps.push_back(Step("p", 0, false, 0, 0, {}, {"in"}));
  plan.steps.push_back(Step("c", 0, false, 0, 0, {"out"}));
  plan.channels["in"] = 1024;
  plan.channels["out"] = 1024;
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  (void)Expect(engine, kAutorunWithArgs);
}

TEST(DataflowChecker, Clf205CrossQueueHazardWithoutChannel) {
  Plan plan;
  plan.steps.push_back(Step("producer", 0));
  plan.steps.push_back(Step("consumer", 1, false, 0, 0, {}, {}, {0}));
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  const auto d = Expect(engine, kQueueHazard);
  EXPECT_EQ(d.location.kernel, "consumer");
}

TEST(DataflowChecker, CleanPipelineHasNoFindings) {
  Plan plan;
  plan.steps.push_back(Step("a", 0, false, 2, 64, {}, {"ab"}));
  plan.steps.push_back(Step("b", 1, true, 0, 64, {"ab"}, {"bc"}, {0}));
  plan.steps.push_back(Step("c", 2, false, 2, 0, {"bc"}, {}, {1}));
  plan.channels["ab"] = 64;
  plan.channels["bc"] = 64;
  DiagnosticEngine engine;
  EXPECT_EQ(CheckDataflow(plan, engine), 0) << engine.ToText();
}

// --- Perf lints --------------------------------------------------------------

TEST(PerfLint, Clf301UnpinnedStride) {
  auto s0 = MakeVar("x_s0", ir::VarKind::kShapeParam);
  auto a = MakeBuffer("x", {IntImm(8), IntImm(8)}, MemScope::kGlobal, true);
  a->strides = {VarRef(s0), VarRef(s0)};
  ir::Kernel k;
  k.name = "sym";
  k.buffer_args = {a};
  k.scalar_args = {s0};
  k.body = Store(a, {IntImm(0), IntImm(0)}, FloatImm(0));
  DiagnosticEngine engine;
  EXPECT_GT(LintKernel(k, nullptr, engine), 0);
  const auto d = Expect(engine, kUnpinnedStride);
  EXPECT_NE(d.fixit.find("PinStrideVars"), std::string::npos);
}

TEST(PerfLint, Clf302GlobalAccumulator) {
  auto x = MakeBuffer("x", {IntImm(8)}, MemScope::kGlobal, true);
  auto dot = MakeBuffer("dot", {IntImm(1)}, MemScope::kGlobal, true);
  auto out = MakeBuffer("out", {IntImm(1)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  ir::Kernel k;
  k.name = "naive_dense";
  k.buffer_args = {x, dot, out};
  k.body = Block({For(i, IntImm(0), IntImm(8),
                      Store(dot, {IntImm(0)},
                            Add(Load(dot, {IntImm(0)}), Load(x, {VarRef(i)})))),
                  Store(out, {IntImm(0)}, Load(dot, {IntImm(0)}))});
  DiagnosticEngine engine;
  EXPECT_GT(LintKernel(k, nullptr, engine), 0);
  const auto d = Expect(engine, kGlobalAccumulator);
  EXPECT_EQ(d.location.buffer, "dot");
  EXPECT_NE(d.fixit.find("CacheWrite"), std::string::npos);
}

TEST(PerfLint, Clf303NonDivisibleUnroll) {
  auto a = MakeBuffer("a", {IntImm(10)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  ir::ForAnnotation ann;
  ann.unroll = 4;
  ir::Kernel k;
  k.name = "k";
  k.buffer_args = {a};
  k.body = For(i, IntImm(0), IntImm(10),
               Store(a, {VarRef(i)}, FloatImm(0)), ann);
  DiagnosticEngine engine;
  EXPECT_GT(LintKernel(k, nullptr, engine), 0);
  const auto d = Expect(engine, kNonDivisibleUnroll);
  EXPECT_EQ(d.location.loop, "i");
}

TEST(PerfLint, Clf304NonBurstAccess) {
  ir::Kernel k;
  k.name = "k";
  k.body = Block({});
  ir::KernelStats stats;
  ir::AccessSite site;
  site.buffer = "weights";
  site.sequential = false;
  site.run_elems = 1;
  stats.accesses.push_back(site);
  DiagnosticEngine engine;
  EXPECT_GT(LintKernel(k, &stats, engine), 0);
  const auto d = Expect(engine, kNonBurstAccess);
  EXPECT_EQ(d.location.buffer, "weights");
}

TEST(PerfLint, Clf305MissedAutorun) {
  Plan plan;
  plan.steps.push_back(Step("between", 0, false, 0, 0, {"in"}, {"out"}));
  DiagnosticEngine engine;
  EXPECT_GT(LintPlan(plan, engine), 0);
  const auto d = Expect(engine, kMissedAutorun);
  EXPECT_NE(d.fixit.find("autorun"), std::string::npos);
}

// --- Schedule errors carry structured CLF context ---------------------------

TEST(ScheduleErrors, NonDivisibleSplitCarriesContext) {
  auto a = MakeBuffer("a", {IntImm(12)}, MemScope::kGlobal, true);
  auto k = MakeVar("k");
  Stmt root = For(k, IntImm(0), IntImm(12),
                  Store(a, {VarRef(k)}, FloatImm(0)));
  try {
    (void)ir::SplitLoop(root, "k", 5);
    FAIL() << "expected ScheduleError";
  } catch (const ScheduleError& e) {
    EXPECT_EQ(e.code(), "CLF403");
    EXPECT_EQ(e.loop(), "k");
    EXPECT_EQ(e.extent(), 12);
    EXPECT_EQ(std::string(e.what()).substr(0, 8), "CLF403: ");
    const Diagnostic d = FromScheduleError(e);
    EXPECT_EQ(d.code, "CLF403");
    EXPECT_EQ(d.severity, Severity::kError);
    EXPECT_EQ(d.location.loop, "k");
    // The rendered message is not double-prefixed.
    EXPECT_EQ(d.message.find("CLF403"), std::string::npos);
  }
}

TEST(ScheduleErrors, MissingTargetIsClf401) {
  auto a = MakeBuffer("a", {IntImm(4)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  Stmt root = For(i, IntImm(0), IntImm(4),
                  Store(a, {VarRef(i)}, FloatImm(0)));
  try {
    (void)ir::FindLoop(root, "zz");
    FAIL() << "expected ScheduleError";
  } catch (const ScheduleError& e) {
    EXPECT_EQ(e.code(), "CLF401");
    EXPECT_EQ(e.loop(), "zz");
  }
}

TEST(ScheduleErrors, SymbolicExtentIsClf402) {
  auto a = MakeBuffer("a", {IntImm(64)}, MemScope::kGlobal, true);
  auto n = MakeVar("N", ir::VarKind::kShapeParam);
  auto i = MakeVar("i");
  Stmt root = For(i, IntImm(0), VarRef(n),
                  Store(a, {IntImm(0)}, FloatImm(0)));
  try {
    (void)ir::UnrollLoop(root, "i", -1);
    FAIL() << "expected ScheduleError";
  } catch (const ScheduleError& e) {
    EXPECT_EQ(e.code(), "CLF402");
    EXPECT_EQ(e.loop(), "i");
  }
}

TEST(ScheduleErrors, CacheWriteMisuseIsClf406) {
  auto a = MakeBuffer("a", {IntImm(4)}, MemScope::kGlobal, true);
  auto out = MakeBuffer("out", {IntImm(4)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  ir::Kernel k;
  k.name = "copy";
  k.buffer_args = {a, out};
  k.body = For(i, IntImm(0), IntImm(4),
               Store(out, {VarRef(i)}, Load(a, {VarRef(i)})));
  try {
    ir::CacheWrite(k, "out");
    FAIL() << "expected ScheduleError";
  } catch (const ScheduleError& e) {
    EXPECT_EQ(e.code(), "CLF406");
    EXPECT_EQ(e.kernel(), "copy");
  }
}

TEST(ScheduleErrors, LegacyConstructorDefaultsToClf405) {
  const ScheduleError e("something structural");
  EXPECT_EQ(e.code(), "CLF405");
  const Diagnostic d = FromScheduleError(e);
  EXPECT_EQ(d.code, "CLF405");
  EXPECT_EQ(d.message, "something structural");
}

// --- Pass-verifier hook ------------------------------------------------------

TEST(PassVerifierHook, InvokedAfterEveryPrimitive) {
  auto a = MakeBuffer("a", {IntImm(8)}, MemScope::kGlobal, true);
  auto i = MakeVar("i");
  Stmt root = For(i, IntImm(0), IntImm(8),
                  Store(a, {VarRef(i)}, FloatImm(0)));
  std::vector<std::string> seen;
  EXPECT_EQ(ir::CurrentPassVerifier(), nullptr);
  {
    ir::ScopedPassVerifier gate(
        [&](const Stmt& result, const char* pass) {
          ASSERT_NE(result, nullptr);
          seen.emplace_back(pass);
        });
    EXPECT_NE(ir::CurrentPassVerifier(), nullptr);
    Stmt split = ir::SplitLoop(root, "i", 4);
    (void)ir::UnrollLoop(split, "i_o", 2);
  }
  EXPECT_EQ(ir::CurrentPassVerifier(), nullptr);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "SplitLoop");
  EXPECT_EQ(seen[1], "UnrollLoop");
}

// --- Deployment gate + recipe property suite ---------------------------------

core::Deployment CompileLeNet(core::OptimizationRecipe recipe,
                              core::ExecutionMode mode,
                              core::AnalysisOptions analysis = {}) {
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  core::DeployOptions o;
  o.mode = mode;
  o.recipe = std::move(recipe);
  o.board = fpga::Stratix10SX();
  o.analysis = std::move(analysis);
  return core::Deployment::Compile(net, o);
}

TEST(DeploymentGate, EveryPipelineRecipeLintsClean) {
  for (const auto& recipe : core::PipelineLadder()) {
    auto d = CompileLeNet(recipe, core::ExecutionMode::kPipelined);
    EXPECT_FALSE(d.diagnostics().HasErrors())
        << recipe.name << ":\n" << d.diagnostics().ToText();
  }
}

TEST(DeploymentGate, FoldedRecipesLintClean) {
  Rng rng(7);
  graph::Graph mobilenet = nets::BuildMobileNetV1(rng);
  graph::Graph resnet = nets::BuildResNet(18, rng);
  for (const auto& board : fpga::EvaluationBoards()) {
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kFolded;
    o.recipe = core::FoldedMobileNet(board.key);
    o.board = board;
    auto d = core::Deployment::Compile(mobilenet, o);
    EXPECT_FALSE(d.diagnostics().HasErrors())
        << board.key << ":\n" << d.diagnostics().ToText();
  }
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kFolded;
  o.recipe = core::FoldedResNet();
  o.board = fpga::Stratix10SX();
  auto d = core::Deployment::Compile(resnet, o);
  EXPECT_FALSE(d.diagnostics().HasErrors()) << d.diagnostics().ToText();

  auto base = CompileLeNet(core::FoldedBase(), core::ExecutionMode::kFolded);
  EXPECT_FALSE(base.diagnostics().HasErrors())
      << base.diagnostics().ToText();
}

TEST(DeploymentGate, NaiveRecipeCarriesThePaperWarnings) {
  // The naive pipelined schedule is exactly what Chapter 6 diagnoses:
  // global-memory accumulators (CLF302). The optimized TVM-Autorun rung
  // has none of the CLF301/302/305 diagnoses left.
  auto naive = CompileLeNet(core::PipelineBase(),
                            core::ExecutionMode::kPipelined);
  EXPECT_FALSE(naive.diagnostics().ByCode("CLF302").empty());
  EXPECT_FALSE(naive.diagnostics().HasErrors());

  auto tuned = CompileLeNet(core::PipelineTvmAutorun(),
                            core::ExecutionMode::kPipelined);
  EXPECT_TRUE(tuned.diagnostics().ByCode("CLF301").empty());
  EXPECT_TRUE(tuned.diagnostics().ByCode("CLF302").empty());
  EXPECT_TRUE(tuned.diagnostics().ByCode("CLF305").empty());
}

TEST(DeploymentGate, PromotedLintAbortsCompilation) {
  core::AnalysisOptions analysis;
  analysis.severity_overrides["CLF302"] = Severity::kError;
  EXPECT_THROW((void)CompileLeNet(core::PipelineBase(),
                                  core::ExecutionMode::kPipelined,
                                  analysis),
               VerifyError);
}

TEST(DeploymentGate, AnalysisPlanMirrorsInvocations) {
  auto recipe = core::PipelineTvmAutorun();
  recipe.concurrent_execution = true;
  auto d = CompileLeNet(recipe, core::ExecutionMode::kPipelined);
  const Plan plan = d.AnalysisPlan();
  ASSERT_EQ(plan.steps.size(), d.invocations().size());
  EXPECT_FALSE(plan.channels.empty());
  // Interior kernels are channel-linked; the checker accepts the plan.
  DiagnosticEngine engine;
  EXPECT_EQ(CheckDataflow(plan, engine), 0) << engine.ToText();
}

TEST(DeploymentGate, BrokenChannelGraphIsRejectedStatically) {
  // Acceptance check for the tentpole: a channel consumer whose producer
  // is missing used to compile fine and only deadlock inside ocl::Runtime
  // (which reports the same CLF201). The dataflow checker now rejects the
  // plan before any runtime exists.
  auto recipe = core::PipelineTvmAutorun();
  recipe.concurrent_execution = true;
  auto d = CompileLeNet(recipe, core::ExecutionMode::kPipelined);
  Plan plan = d.AnalysisPlan();
  PlanStep bogus;
  bogus.kernel = "k_injected";
  bogus.reads = {"ch_nobody_writes_this"};
  plan.steps.push_back(std::move(bogus));
  DiagnosticEngine engine;
  EXPECT_GT(CheckDataflow(plan, engine), 0);
  const auto found = engine.ByCode(kChannelNoWriter.id);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[0].severity, Severity::kError);
}

TEST(DeploymentGate, DiagnosticsLandInMetricsRegistry) {
  auto d = CompileLeNet(core::PipelineBase(),
                        core::ExecutionMode::kPipelined);
  // Every report bumps analysis.diag{code=...} on the deployment registry.
  const std::string json = d.telemetry().registry.ToJson();
  EXPECT_NE(json.find("analysis.diag"), std::string::npos);
}

}  // namespace
}  // namespace clflow::analysis
