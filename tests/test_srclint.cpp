// Tests for clflow::srclint, the source-level linter / translation
// validator (CLF8xx): lexer and parser units, the peeled CFG, one
// injected-defect test per code proving it fires, clean runs over the
// shipped recipes, the Compile-gate rejection path, and the
// channel-dtype emitter bug re-detected from the source alone.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "codegen/opencl_codegen.hpp"
#include "common/error.hpp"
#include "core/deployment.hpp"
#include "nets/nets.hpp"
#include "srclint/cfg.hpp"
#include "srclint/inject.hpp"
#include "srclint/lexer.hpp"
#include "srclint/parser.hpp"
#include "srclint/srclint.hpp"

namespace clflow::srclint {
namespace {

std::set<std::string> Codes(const analysis::DiagnosticEngine& diags) {
  std::set<std::string> codes;
  for (const auto& d : diags.diagnostics()) codes.insert(d.code);
  return codes;
}

// --- Lexer ------------------------------------------------------------------

TEST(SrcLexer, TokenizesTheEmittedDialect) {
  const auto toks = Lex("for (int i = 0; i < 10; ++i)\n  out[i] = 1.5f;\n");
  ASSERT_GT(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[0].text, "for");
  EXPECT_EQ(toks.back().kind, TokKind::kEof);
  bool saw_float = false;
  for (const auto& t : toks) {
    if (t.kind == TokKind::kFloatLit) {
      saw_float = true;
      EXPECT_DOUBLE_EQ(t.float_value, 1.5);
    }
  }
  EXPECT_TRUE(saw_float);
}

TEST(SrcLexer, PragmaIsOneTokenAndLinesTrack) {
  const auto toks = Lex("#pragma unroll 4\nfor");
  ASSERT_GE(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, TokKind::kPragma);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].text, "for");
  EXPECT_EQ(toks[1].line, 2);
}

TEST(SrcLexer, RejectsForeignCharacters) {
  EXPECT_THROW(Lex("int i = @;"), SrcParseError);
}

// --- Parser -----------------------------------------------------------------

constexpr const char* kTinyKernel =
    "#pragma OPENCL EXTENSION cl_intel_channels : enable\n"
    "channel float ch_a __attribute__((depth(8)));\n"
    "__attribute__((max_global_work_dim(0)))\n"
    "__attribute__((autorun))\n"
    "__kernel void k_tiny() {\n"
    "  float acc[4][2];\n"
    "  #pragma unroll 2\n"
    "  for (int i = 0; i < 4; ++i) {\n"
    "    acc[i][0] = ((i >= 2) ? 1.0f : 0.0f);\n"
    "    write_channel_intel(ch_a, acc[i][0]);\n"
    "  }\n"
    "}\n";

TEST(SrcParser, ReconstructsProgramStructure) {
  const SrcProgram p = ParseProgram(kTinyKernel);
  EXPECT_TRUE(p.channels_extension);
  ASSERT_EQ(p.channels.size(), 1u);
  EXPECT_EQ(p.channels[0].name, "ch_a");
  EXPECT_EQ(p.channels[0].type, "float");
  EXPECT_EQ(p.channels[0].depth, 8);
  ASSERT_EQ(p.kernels.size(), 1u);
  const SrcKernel& k = p.kernels[0];
  EXPECT_EQ(k.name, "k_tiny");
  EXPECT_TRUE(k.attr_autorun);
  EXPECT_TRUE(k.attr_max_global_work_dim0);
  ASSERT_EQ(k.locals.size(), 1u);
  EXPECT_EQ(k.locals[0].name, "acc");
  EXPECT_EQ(k.locals[0].dims.size(), 2u);
  ASSERT_EQ(k.body.size(), 1u);
  const SrcStmt& loop = *k.body[0];
  EXPECT_EQ(loop.kind, SrcStmtKind::kFor);
  EXPECT_EQ(loop.loop_var, "i");
  EXPECT_EQ(loop.unroll, 2);
  ASSERT_EQ(loop.body.size(), 2u);
  EXPECT_EQ(loop.body[0]->kind, SrcStmtKind::kAssign);
  EXPECT_EQ(loop.body[0]->value->kind, SrcExprKind::kTernary);
  EXPECT_EQ(loop.body[1]->kind, SrcStmtKind::kCallStmt);
  EXPECT_EQ(loop.body[1]->call->name, "write_channel_intel");
}

TEST(SrcParser, ExpressionPrecedenceWithoutParens) {
  // The emitter parenthesizes everything; a hand-edited source must
  // still parse with C precedence.
  const auto e = ParseExpr("a + b * c");
  ASSERT_EQ(e->kind, SrcExprKind::kBinary);
  EXPECT_EQ(e->op, "+");
  EXPECT_EQ(e->args[1]->kind, SrcExprKind::kBinary);
  EXPECT_EQ(e->args[1]->op, "*");
}

TEST(SrcParser, PrintParseFixpoint) {
  const SrcProgram once = ParseProgram(kTinyKernel);
  const std::string printed = ToSource(once);
  const SrcProgram twice = ParseProgram(printed);
  EXPECT_EQ(printed, ToSource(twice));
}

TEST(SrcParser, RejectsNonCanonicalFor) {
  EXPECT_THROW(
      ParseProgram("__kernel void k_bad() {\n"
                   "  for (int i = 0; i <= 4; ++i) {\n  }\n}\n"),
      SrcParseError);
}

// --- CFG --------------------------------------------------------------------

TEST(SrcCfg, LoopIsPeeledAndOrdersEvents) {
  const SrcProgram p = ParseProgram(
      "__kernel void k_cfg(__global float* restrict out) {\n"
      "  float acc[4];\n"
      "  for (int i = 0; i < 4; ++i) {\n"
      "    acc[i] = 0.0f;\n"
      "  }\n"
      "  out[0] = acc[0];\n"
      "}\n");
  const Cfg cfg = BuildCfg(p.kernels[0]);
  // Peeling duplicates the body: the store to acc must appear as a write
  // event at least twice (first-iteration path + repeat path).
  int acc_writes = 0;
  for (const auto& n : cfg.nodes) {
    for (const auto& ev : n.events) {
      if (ev.is_write && ev.var == "acc") ++acc_writes;
    }
  }
  EXPECT_GE(acc_writes, 2);
  EXPECT_LT(cfg.entry, static_cast<int>(cfg.nodes.size()));
  EXPECT_LT(cfg.exit, static_cast<int>(cfg.nodes.size()));
}

// --- Injected defects: every CLF8xx code fires ------------------------------

class SrclintInjection : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(77);
    graph::Graph net = nets::BuildLeNet5(rng);
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kPipelined;
    o.recipe = core::PipelineTvmAutorun();
    o.board = fpga::Stratix10SX();
    deployment_ = new core::Deployment(core::Deployment::Compile(net, o));
    source_ = new std::string(deployment_->GeneratedSource());
  }
  static void TearDownTestSuite() {
    delete deployment_;
    delete source_;
    deployment_ = nullptr;
    source_ = nullptr;
  }

  static std::vector<const ir::Kernel*> Planned() {
    std::vector<const ir::Kernel*> kernels;
    for (const auto& pk : deployment_->kernels()) {
      kernels.push_back(&pk.built.kernel);
    }
    return kernels;
  }

  /// Corrupts the real emission with `mode`, lints it against the plan,
  /// and returns the diagnostics.
  static analysis::DiagnosticEngine LintCorrupted(const std::string& mode) {
    analysis::DiagnosticEngine diags;
    auto corrupted = InjectDefect(mode, *source_);
    EXPECT_TRUE(corrupted.has_value()) << "no anchor for mode " << mode;
    LintProgram(*corrupted, Planned(), diags);
    return diags;
  }

  static core::Deployment* deployment_;
  static std::string* source_;
};

core::Deployment* SrclintInjection::deployment_ = nullptr;
std::string* SrclintInjection::source_ = nullptr;

TEST_F(SrclintInjection, CleanEmissionHasZeroFindings) {
  analysis::DiagnosticEngine diags;
  EXPECT_TRUE(LintProgram(*source_, Planned(), diags));
  EXPECT_EQ(diags.error_count(), 0) << diags.ToText();
  EXPECT_EQ(diags.warning_count(), 0) << diags.ToText();
}

TEST_F(SrclintInjection, ParseFailureFiresCLF800) {
  const auto diags = LintCorrupted("parse");
  EXPECT_TRUE(Codes(diags).count("CLF800"));
  EXPECT_GT(diags.error_count(), 0);
}

TEST_F(SrclintInjection, RenamedKernelFiresCLF801) {
  const auto diags = LintCorrupted("sig");
  EXPECT_TRUE(Codes(diags).count("CLF801"));
  EXPECT_GT(diags.error_count(), 0);
}

TEST_F(SrclintInjection, DroppedChannelWriteFiresCLF802) {
  const auto diags = LintCorrupted("chan-endpoint");
  EXPECT_TRUE(Codes(diags).count("CLF802"));
  EXPECT_GT(diags.error_count(), 0);
}

TEST_F(SrclintInjection, DroppedUnrollPragmaFiresCLF803) {
  const auto diags = LintCorrupted("unroll");
  EXPECT_TRUE(Codes(diags).count("CLF803"));
  EXPECT_GT(diags.error_count(), 0);
}

TEST_F(SrclintInjection, RetypedChannelFiresCLF804) {
  const auto diags = LintCorrupted("chan-type");
  EXPECT_TRUE(Codes(diags).count("CLF804"));
  EXPECT_GT(diags.error_count(), 0);
}

TEST_F(SrclintInjection, StrippedRestrictFiresCLF807AsWarning) {
  const auto diags = LintCorrupted("restrict");
  EXPECT_TRUE(Codes(diags).count("CLF807"));
  EXPECT_EQ(diags.error_count(), 0);
  EXPECT_GT(diags.warning_count(), 0);
}

/// The plan-free codes fire on the built-in defective kernels (the same
/// snippets `flow_inspector --srclint-inject` lints).
struct SnippetCase {
  const char* mode;
  const char* code;
  bool is_error;
};

// Prints the mode rather than the struct's pointer bytes, so the listed
// test name is the same on every build.
void PrintTo(const SnippetCase& c, std::ostream* os) { *os << c.mode; }

class SrclintSnippet : public ::testing::TestWithParam<SnippetCase> {};

TEST_P(SrclintSnippet, FiresExactlyItsCode) {
  const SnippetCase& c = GetParam();
  const char* snippet = SyntheticDefectSnippet(c.mode);
  ASSERT_NE(snippet, nullptr);
  analysis::DiagnosticEngine diags;
  LintSource(snippet, diags);
  EXPECT_TRUE(Codes(diags).count(c.code)) << diags.ToText();
  EXPECT_EQ(diags.error_count() > 0, c.is_error) << diags.ToText();
}

INSTANTIATE_TEST_SUITE_P(
    AllPlanFreeCodes, SrclintSnippet,
    ::testing::Values(SnippetCase{"loop-dep", "CLF805", true},
                      SnippetCase{"oob", "CLF806", true},
                      SnippetCase{"dead-store", "CLF808", false},
                      SnippetCase{"uninit", "CLF809", false}),
    [](const ::testing::TestParamInfo<SnippetCase>& info) {
      return std::string(info.param.code);
    });

// --- The compile gate rejects a corrupted emission --------------------------

TEST(SrclintGate, CorruptedEmissionAbortsCompile) {
  Rng rng(77);
  graph::Graph net = nets::BuildLeNet5(rng);
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kPipelined;
  o.recipe = core::PipelineTvmAutorun();
  o.board = fpga::Stratix10SX();
  auto d = core::Deployment::Compile(net, o);
  // Compile's gate stage, handed a retyped channel declaration instead of
  // the real emission.
  auto corrupted = srclint::InjectDefect("chan-type", d.GeneratedSource());
  ASSERT_TRUE(corrupted.has_value());
  analysis::DiagnosticEngine diags;
  try {
    core::Deployment::Gate(d.design(), *corrupted, diags);
    FAIL() << "gate accepted a retyped channel declaration";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("CLF804"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(diags.ByCode("CLF804").empty());
}

// --- Clean over every shipped pipelined recipe ------------------------------

TEST(SrclintClean, EveryPipelineLadderRungLintsClean) {
  Rng rng(77);
  graph::Graph net = nets::BuildLeNet5(rng);
  for (const auto& recipe : core::PipelineLadder()) {
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kPipelined;
    o.recipe = recipe;
    o.board = fpga::Stratix10SX();
    auto d = core::Deployment::Compile(net, o);
    std::vector<const ir::Kernel*> kernels;
    for (const auto& pk : d.kernels()) kernels.push_back(&pk.built.kernel);
    analysis::DiagnosticEngine diags;
    EXPECT_TRUE(LintProgram(d.GeneratedSource(), kernels, diags));
    EXPECT_EQ(diags.error_count(), 0) << recipe.name << "\n" << diags.ToText();
    EXPECT_EQ(diags.warning_count(), 0)
        << recipe.name << "\n" << diags.ToText();
  }
}

TEST(SrclintClean, FoldedMobileNetLintsClean) {
  Rng rng(77);
  graph::Graph net = nets::BuildMobileNetV1(rng);
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kFolded;
  o.recipe = core::FoldedMobileNet(fpga::Stratix10SX().key);
  o.board = fpga::Stratix10SX();
  auto d = core::Deployment::Compile(net, o);
  std::vector<const ir::Kernel*> kernels;
  for (const auto& pk : d.kernels()) kernels.push_back(&pk.built.kernel);
  analysis::DiagnosticEngine diags;
  EXPECT_TRUE(LintProgram(d.GeneratedSource(), kernels, diags));
  EXPECT_EQ(diags.error_count(), 0) << diags.ToText();
  EXPECT_EQ(diags.warning_count(), 0) << diags.ToText();
}

// --- The channel-dtype emitter bug, re-detected from source -----------------

/// Builds the minimal int-channel producer/consumer pair: the emitter
/// once printed `channel float` for this regardless of dtype.
std::pair<ir::Kernel, ir::Kernel> IntChannelPair(const ir::BufferPtr& ch) {
  auto in = ir::MakeBuffer("in_data", {ir::IntImm(16)}, ir::MemScope::kGlobal,
                           /*is_arg=*/true, ir::ScalarType::kInt32);
  auto out = ir::MakeBuffer("out_data", {ir::IntImm(16)},
                            ir::MemScope::kGlobal,
                            /*is_arg=*/true, ir::ScalarType::kInt32);
  auto i = ir::MakeVar("i");
  ir::Kernel producer;
  producer.name = "k_int_producer";
  producer.buffer_args = {in};
  producer.channels_written = {ch};
  producer.body =
      ir::For(i, ir::IntImm(0), ir::IntImm(16),
              ir::WriteChannel(ch, ir::Load(in, {ir::VarRef(i)})));
  auto j = ir::MakeVar("j");
  ir::Kernel consumer;
  consumer.name = "k_int_consumer";
  consumer.buffer_args = {out};
  consumer.channels_read = {ch};
  consumer.body = ir::For(j, ir::IntImm(0), ir::IntImm(16),
                          ir::Store(out, {ir::VarRef(j)}, ir::ReadChannel(ch)));
  return {std::move(producer), std::move(consumer)};
}

TEST(SrclintChannelDtype, FixedEmitterLintsCleanAndRevertedBugIsCaught) {
  auto ch = ir::MakeBuffer("ch_int", {}, ir::MemScope::kChannel,
                           /*is_arg=*/false, ir::ScalarType::kInt32);
  ch->channel_depth = 4;
  auto [producer, consumer] = IntChannelPair(ch);
  const std::vector<const ir::Kernel*> kernels = {&producer, &consumer};
  const std::string good = codegen::EmitProgram(kernels);
  ASSERT_NE(good.find("channel int "), std::string::npos) << good;

  analysis::DiagnosticEngine clean;
  EXPECT_TRUE(LintProgram(good, kernels, clean));
  EXPECT_EQ(clean.error_count(), 0) << clean.ToText();

  // Revert the fix textually: the old emitter printed `channel float`
  // for every channel. The validator must reject that emission.
  std::string reverted = good;
  const auto pos = reverted.find("channel int ");
  reverted.replace(pos, std::string("channel int ").size(), "channel float ");
  analysis::DiagnosticEngine diags;
  EXPECT_FALSE(LintProgram(reverted, kernels, diags));
  EXPECT_TRUE(Codes(diags).count("CLF804")) << diags.ToText();
}

}  // namespace
}  // namespace clflow::srclint
