// Tests for the operator kernel builders: every naive and optimized
// schedule must compute exactly what the CPU reference operators compute
// (on small shapes, via the IR interpreter). This equivalence is what
// licenses the full-network benches to use the compiled reference ops for
// functional execution while the AOC model provides timing.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "cpu/ops.hpp"
#include "ir/interp.hpp"
#include "ir/op_kernels.hpp"
#include "tensor/tensor.hpp"

namespace clflow::ir {
namespace {

/// Binds the role buffers of a built kernel to tensor storage and runs it.
class Runner {
 public:
  explicit Runner(const BuiltKernel& bk) : bk_(bk) {}

  Runner& Bind(const BufferPtr& buffer, Tensor& t) {
    if (buffer) env_.BindBuffer(buffer, t.data());
    return *this;
  }

  Runner& BindParam(const std::string& name, std::int64_t value) {
    auto it = bk_.params.find(name);
    if (it != bk_.params.end()) env_.BindVar(it->second, value);
    return *this;
  }

  /// Binds row-major stride parameters for a symbolic buffer, if present.
  Runner& BindStrides(const BufferPtr& buffer, const Shape& shape) {
    if (!buffer) return *this;
    const auto strides = shape.Strides();
    for (std::size_t d = 0; d < strides.size(); ++d) {
      BindParam(buffer->name + "_s" + std::to_string(d), strides[d]);
    }
    return *this;
  }

  void Run() {
    for (const auto& ws : bk_.workspaces) {
      std::int64_t elems = 1;
      for (const auto& dim : ws->shape) {
        // Workspace dims may be symbolic; evaluate through the env.
        elems *= static_cast<std::int64_t>(EvalScalar(dim, env_));
      }
      ws_storage_.emplace_back(static_cast<std::size_t>(elems), 0.0f);
      env_.BindBuffer(ws, ws_storage_.back());
    }
    RunKernel(bk_.kernel, env_);
  }

  InterpEnv& env() { return env_; }

 private:
  const BuiltKernel& bk_;
  InterpEnv env_;
  std::vector<std::vector<float>> ws_storage_;
};

struct ConvCase {
  std::string label;
  ConvSpec spec;
  ConvSchedule sched;
};

// gtest would otherwise dump the struct's bytes, whose leading string
// pointer varies from build to build, into the listed test name.
void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.label; }

class ConvEquivalence : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvEquivalence, MatchesReferenceOp) {
  const auto& [label, spec, sched] = GetParam();
  Rng rng(101);
  Tensor input = Tensor::Random(Shape{1, spec.c1, spec.h1, spec.w1}, rng);
  const std::int64_t k_out = spec.depthwise ? spec.c1 : spec.k;
  Tensor weights =
      spec.depthwise
          ? Tensor::Random(Shape{spec.c1, spec.f, spec.f}, rng)
          : Tensor::Random(Shape{spec.k, spec.c1, spec.f, spec.f}, rng);
  Tensor bias = spec.has_bias ? Tensor::Random(Shape{k_out}, rng) : Tensor();

  // Reference.
  const cpu::Conv2dParams p{.stride = spec.stride, .pad = 0,
                            .activation = spec.activation};
  Tensor w4 = spec.depthwise
                  ? weights.Reshaped(Shape{spec.c1, 1, spec.f, spec.f})
                  : weights;
  Tensor expected =
      spec.depthwise
          ? cpu::DepthwiseConv2d(input, w4, bias, p)
          : cpu::Conv2d(input, w4, bias, p);

  // Built kernel through the interpreter.
  auto bk = BuildConv2dKernel(spec, sched, "conv_test");
  Tensor in3 = input.Reshaped(Shape{spec.c1, spec.h1, spec.w1});
  const Shape out_shape{k_out, expected.shape().height(),
                        expected.shape().width()};
  Tensor out(out_shape);
  Runner r(bk);
  r.Bind(bk.input, in3).Bind(bk.weights, weights).Bind(bk.output, out);
  if (bias.defined()) r.Bind(bk.bias, bias);
  if (sched.symbolic) {
    r.BindParam("C1", spec.c1).BindParam("HW", spec.h1).BindParam("K", spec.k);
    r.BindParam("ACT", static_cast<std::int64_t>(spec.activation));
    r.BindStrides(bk.input, Shape{spec.c1, spec.h1, spec.w1})
        .BindStrides(bk.weights, weights.shape())
        .BindStrides(bk.output, out_shape);
    for (const auto& ws : bk.workspaces) {
      r.BindStrides(ws, Shape{out_shape[1], out_shape[2]});
    }
  }
  r.Run();

  Tensor out4 = out.Reshaped(expected.shape());
  EXPECT_LT(Tensor::MaxRelDiff(out4, expected, 1e-3f), 2e-3f) << label;
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ConvEquivalence,
    ::testing::Values(
        ConvCase{"naive",
                 {.c1 = 3, .h1 = 8, .w1 = 8, .k = 4, .f = 3, .stride = 1,
                  .has_bias = true, .activation = Activation::kRelu},
                 {}},
        ConvCase{"naive_unrolled_filter",
                 {.c1 = 3, .h1 = 8, .w1 = 8, .k = 4, .f = 3, .stride = 1,
                  .has_bias = true, .activation = Activation::kRelu},
                 {.unroll_filter = true}},
        ConvCase{"naive_stride2",
                 {.c1 = 2, .h1 = 9, .w1 = 9, .k = 3, .f = 3, .stride = 2,
                  .has_bias = false, .activation = Activation::kNone},
                 {}},
        ConvCase{"fused_cached",
                 {.c1 = 3, .h1 = 8, .w1 = 8, .k = 4, .f = 3, .stride = 1,
                  .has_bias = true, .activation = Activation::kRelu},
                 {.fuse_activation = true, .cached_writes = true,
                  .unroll_filter = true}},
        ConvCase{"tiled_c1",
                 {.c1 = 8, .h1 = 6, .w1 = 6, .k = 4, .f = 3, .stride = 1,
                  .has_bias = true, .activation = Activation::kRelu},
                 {.fuse_activation = true, .cached_writes = true,
                  .unroll_filter = true, .tile_c1 = 4}},
        ConvCase{"tiled_w2",
                 {.c1 = 4, .h1 = 10, .w1 = 10, .k = 4, .f = 3, .stride = 1,
                  .has_bias = true, .activation = Activation::kRelu6},
                 {.fuse_activation = true, .cached_writes = true,
                  .unroll_filter = true, .tile_w2 = 4}},
        ConvCase{"conv1x1_tiled_3d",
                 {.c1 = 8, .h1 = 7, .w1 = 7, .k = 8, .f = 1, .stride = 1,
                  .has_bias = true, .activation = Activation::kRelu},
                 {.fuse_activation = true, .cached_writes = true,
                  .tile_c1 = 4, .tile_w2 = 7, .tile_c2 = 2}},
        ConvCase{"depthwise_naive",
                 {.c1 = 4, .h1 = 8, .w1 = 8, .f = 3, .stride = 1,
                  .depthwise = true, .has_bias = true,
                  .activation = Activation::kRelu6},
                 {}},
        ConvCase{"depthwise_optimized",
                 {.c1 = 4, .h1 = 16, .w1 = 16, .f = 3, .stride = 2,
                  .depthwise = true, .has_bias = true,
                  .activation = Activation::kRelu6},
                 {.fuse_activation = true, .cached_writes = true,
                  .unroll_filter = true, .tile_w2 = 7}},
        ConvCase{"weight_cache",
                 {.c1 = 3, .h1 = 8, .w1 = 8, .k = 4, .f = 3, .stride = 1,
                  .has_bias = true, .activation = Activation::kRelu},
                 {.fuse_activation = true, .cached_writes = true,
                  .unroll_filter = true, .weight_cache = true}},
        ConvCase{"symbolic_unpinned",
                 {.c1 = 4, .h1 = 8, .w1 = 8, .k = 4, .f = 3, .stride = 1,
                  .has_bias = true, .activation = Activation::kRelu},
                 {.fuse_activation = true, .cached_writes = true,
                  .unroll_filter = true, .symbolic = true}},
        ConvCase{"symbolic_pinned",
                 {.c1 = 4, .h1 = 8, .w1 = 8, .k = 4, .f = 3, .stride = 1,
                  .has_bias = true, .activation = Activation::kRelu},
                 {.fuse_activation = true, .cached_writes = true,
                  .unroll_filter = true, .tile_c1 = 2, .tile_w2 = 3,
                  .symbolic = true, .pin_strides = true}}),
    [](const auto& info) { return info.param.label; });

TEST(ConvBuilder, ChannelIoRoundTrip) {
  // conv reading its IFM from a channel and writing OFM to a channel.
  const ConvSpec spec{.c1 = 2, .h1 = 6, .w1 = 6, .k = 3, .f = 3, .stride = 1,
                      .has_bias = true, .activation = Activation::kRelu};
  Rng rng(7);
  Tensor input = Tensor::Random(Shape{1, 2, 6, 6}, rng);
  Tensor weights = Tensor::Random(Shape{3, 2, 3, 3}, rng);
  Tensor bias = Tensor::Random(Shape{3}, rng);
  Tensor expected = cpu::Conv2d(input, weights, bias,
                                {.stride = 1, .activation = Activation::kRelu});

  auto cin = MakeBuffer("cin", {IntImm(1)}, MemScope::kChannel);
  auto cout = MakeBuffer("cout", {IntImm(1)}, MemScope::kChannel);
  auto bk = BuildConv2dKernel(
      spec, {.fuse_activation = true, .cached_writes = true,
             .unroll_filter = true},
      "conv_chan", {.input = cin, .output = cout});
  EXPECT_FALSE(bk.input);
  EXPECT_FALSE(bk.output);

  Runner r(bk);
  r.Bind(bk.weights, weights).Bind(bk.bias, bias);
  for (float v : input.data()) r.env().channel(cin.get()).push_back(v);
  r.Run();

  auto& out_q = r.env().channel(cout.get());
  ASSERT_EQ(out_q.size(), static_cast<std::size_t>(expected.size()));
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(out_q[static_cast<std::size_t>(i)], expected.at(i), 1e-4f)
        << "at " << i;
  }
}

TEST(ConvBuilder, FusedRequiresCachedWrites) {
  EXPECT_THROW((void)BuildConv2dKernel({.c1 = 1, .h1 = 4, .w1 = 4, .k = 1},
                                       {.fuse_activation = true}, "bad"),
               Error);
}

TEST(ConvBuilder, SymbolicKernelReusedAcrossShapes) {
  // One parameterized kernel executes two different layer shapes -- the
  // essence of folded execution (SS5.3).
  const ConvSchedule sched{.fuse_activation = true, .cached_writes = true,
                           .unroll_filter = true, .symbolic = true,
                           .pin_strides = true};
  auto bk = BuildConv2dKernel({.f = 3, .stride = 1, .has_bias = false,
                               .activation = Activation::kRelu},
                              sched, "conv3x3_s1");
  Rng rng(31);
  for (const auto& [c1, hw, k] :
       std::vector<std::tuple<int, int, int>>{{2, 6, 3}, {4, 8, 2}}) {
    Tensor input = Tensor::Random(Shape{1, c1, hw, hw}, rng);
    Tensor weights = Tensor::Random(Shape{k, c1, 3, 3}, rng);
    Tensor expected = cpu::Conv2d(input, weights, Tensor(),
                                  {.activation = Activation::kRelu});
    Tensor in3 = input.Reshaped(Shape{c1, hw, hw});
    Tensor out(Shape{k, hw - 2, hw - 2});
    Runner r(bk);
    r.Bind(bk.input, in3).Bind(bk.weights, weights).Bind(bk.output, out);
    r.BindParam("C1", c1).BindParam("HW", hw).BindParam("K", k);
    r.BindParam("ACT", static_cast<std::int64_t>(Activation::kRelu));
    r.BindStrides(bk.input, Shape{c1, hw, hw})
        .BindStrides(bk.weights, weights.shape())
        .BindStrides(bk.output, out.shape());
    r.Run();
    EXPECT_LT(Tensor::MaxRelDiff(out.Reshaped(expected.shape()), expected,
                                 1e-3f),
              2e-3f);
  }
}

// --- Dense -------------------------------------------------------------------

struct DenseCase {
  std::string label;
  DenseSpec spec;
  DenseSchedule sched;
};

void PrintTo(const DenseCase& c, std::ostream* os) { *os << c.label; }

class DenseEquivalence : public ::testing::TestWithParam<DenseCase> {};

TEST_P(DenseEquivalence, MatchesReferenceOp) {
  const auto& [label, spec, sched] = GetParam();
  Rng rng(51);
  Tensor x = Tensor::Random(Shape{1, spec.c1}, rng);
  Tensor w = Tensor::Random(Shape{spec.c2, spec.c1}, rng);
  Tensor bias = spec.has_bias ? Tensor::Random(Shape{spec.c2}, rng) : Tensor();
  Tensor expected = cpu::Dense(x, w, bias, spec.activation);

  auto bk = BuildDenseKernel(spec, sched, "dense_test");
  Tensor x1 = x.Reshaped(Shape{spec.c1});
  Tensor out(Shape{spec.c2});
  Runner r(bk);
  r.Bind(bk.input, x1).Bind(bk.weights, w).Bind(bk.output, out);
  if (bias.defined()) r.Bind(bk.bias, bias);
  r.Run();
  EXPECT_LT(Tensor::MaxRelDiff(out.Reshaped(expected.shape()), expected,
                               1e-3f),
            2e-3f)
      << label;
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, DenseEquivalence,
    ::testing::Values(
        DenseCase{"naive",
                  {.c1 = 12, .c2 = 5, .has_bias = true,
                   .activation = Activation::kRelu},
                  {}},
        DenseCase{"unrolled",
                  {.c1 = 12, .c2 = 5, .has_bias = true,
                   .activation = Activation::kRelu},
                  {.cached_writes = true, .unroll_k = 4}},
        DenseCase{"cached_input",
                  {.c1 = 16, .c2 = 7, .has_bias = false,
                   .activation = Activation::kNone},
                  {.cached_writes = true, .unroll_k = 8, .input_cache = true}}),
    [](const auto& info) { return info.param.label; });

TEST(DenseBuilder, RejectsNonDividingUnroll) {
  EXPECT_THROW((void)BuildDenseKernel({.c1 = 10, .c2 = 2},
                                      {.cached_writes = true, .unroll_k = 4},
                                      "bad"),
               Error);
}

// --- Pool --------------------------------------------------------------------

TEST(PoolBuilder, NaiveMaxPoolMatchesReference) {
  Rng rng(61);
  Tensor input = Tensor::Random(Shape{1, 3, 8, 8}, rng);
  Tensor expected = cpu::MaxPool2d(input, {.window = 2, .stride = 2});

  auto bk = BuildPoolKernel({.c = 3, .h1 = 8, .w1 = 8, .f = 2, .stride = 2},
                            {}, "pool_naive");
  Tensor in3 = input.Reshaped(Shape{3, 8, 8});
  Tensor out(Shape{3, 4, 4});
  Runner r(bk);
  r.Bind(bk.input, in3).Bind(bk.output, out);
  r.Run();
  EXPECT_EQ(Tensor::MaxAbsDiff(out.Reshaped(expected.shape()), expected), 0.0f);
}

TEST(PoolBuilder, OptimizedAvgPoolMatchesReference) {
  Rng rng(62);
  Tensor input = Tensor::Random(Shape{1, 4, 7, 7}, rng);
  Tensor expected = cpu::AvgPool2d(input, {.window = 7, .stride = 1});

  auto bk = BuildPoolKernel(
      {.c = 4, .h1 = 7, .w1 = 7, .f = 7, .stride = 1, .is_max = false},
      {.optimized = true}, "pool_avg");
  Tensor in3 = input.Reshaped(Shape{4, 7, 7});
  Tensor out(Shape{4, 1, 1});
  Runner r(bk);
  r.Bind(bk.input, in3).Bind(bk.output, out);
  r.Run();
  EXPECT_LT(Tensor::MaxRelDiff(out.Reshaped(expected.shape()), expected),
            1e-5f);
}

TEST(PoolBuilder, ChannelPipelineMatchesReference) {
  Rng rng(63);
  Tensor input = Tensor::Random(Shape{1, 2, 6, 6}, rng);
  Tensor expected = cpu::MaxPool2d(input, {.window = 2, .stride = 2});

  auto cin = MakeBuffer("cin", {IntImm(1)}, MemScope::kChannel);
  auto cout = MakeBuffer("cout", {IntImm(1)}, MemScope::kChannel);
  auto bk = BuildPoolKernel({.c = 2, .h1 = 6, .w1 = 6, .f = 2, .stride = 2},
                            {.optimized = true}, "pool_chan",
                            {.input = cin, .output = cout});
  // Weightless + channel I/O means the planner may declare it autorun.
  EXPECT_TRUE(bk.kernel.buffer_args.empty());

  Runner r(bk);
  for (float v : input.data()) r.env().channel(cin.get()).push_back(v);
  r.Run();
  auto& q = r.env().channel(cout.get());
  ASSERT_EQ(q.size(), static_cast<std::size_t>(expected.size()));
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    EXPECT_FLOAT_EQ(q[static_cast<std::size_t>(i)], expected.at(i));
  }
}

// --- Softmax -----------------------------------------------------------------

TEST(SoftmaxBuilder, NaiveAndOptimizedMatchReference) {
  Rng rng(71);
  Tensor x = Tensor::Random(Shape{10}, rng, -4.0f, 4.0f);
  Tensor expected = cpu::Softmax(x);

  for (bool optimized : {false, true}) {
    auto bk = BuildSoftmaxKernel({.n = 10}, optimized, "softmax_test");
    Tensor out(Shape{10});
    Runner r(bk);
    r.Bind(bk.input, x).Bind(bk.output, out);
    r.Run();
    EXPECT_LT(Tensor::MaxRelDiff(out, expected), 1e-5f)
        << "optimized=" << optimized;
  }
}

TEST(SoftmaxBuilder, NaiveUsesGlobalWorkspacesOptimizedDoesNot) {
  auto naive = BuildSoftmaxKernel({.n = 10}, false, "sm_naive");
  auto opt = BuildSoftmaxKernel({.n = 10}, true, "sm_opt");
  EXPECT_EQ(naive.workspaces.size(), 3u);
  EXPECT_TRUE(opt.workspaces.empty());
  EXPECT_EQ(opt.kernel.local_buffers.size(), 3u);
}

// --- Pad ---------------------------------------------------------------------

TEST(PadBuilder, MatchesReference) {
  Rng rng(81);
  Tensor input = Tensor::Random(Shape{1, 3, 5, 5}, rng);
  Tensor expected = cpu::Pad2d(input, 2);

  auto bk = BuildPadKernel({.c = 3, .h1 = 5, .w1 = 5, .pad = 2}, "pad_test");
  Tensor in3 = input.Reshaped(Shape{3, 5, 5});
  Tensor out(Shape{3, 9, 9});
  Runner r(bk);
  r.Bind(bk.input, in3).Bind(bk.output, out);
  r.Run();
  EXPECT_EQ(Tensor::MaxAbsDiff(out.Reshaped(expected.shape()), expected), 0.0f);
}

TEST(PadBuilder, SymbolicMatchesReference) {
  Rng rng(82);
  auto bk = BuildPadKernel({.pad = 1, .symbolic = true}, "pad_sym");
  for (const auto& [c, hw] : std::vector<std::pair<int, int>>{{2, 4}, {3, 6}}) {
    Tensor input = Tensor::Random(Shape{1, c, hw, hw}, rng);
    Tensor expected = cpu::Pad2d(input, 1);
    Tensor in3 = input.Reshaped(Shape{c, hw, hw});
    Tensor out(Shape{c, hw + 2, hw + 2});
    Runner r(bk);
    r.Bind(bk.input, in3).Bind(bk.output, out);
    r.BindParam("C1", c).BindParam("HW", hw);
    r.Run();
    EXPECT_EQ(Tensor::MaxAbsDiff(out.Reshaped(expected.shape()), expected),
              0.0f);
  }
}

// --- Add / Copy --------------------------------------------------------------

TEST(AddBuilder, ResidualAddWithRelu) {
  Rng rng(91);
  Tensor a = Tensor::Random(Shape{24}, rng);
  Tensor b = Tensor::Random(Shape{24}, rng);
  Tensor expected = cpu::Add(a, b, Activation::kRelu);

  for (std::int64_t unroll : {1, 8}) {
    auto bk = BuildAddKernel({.n = 24, .activation = Activation::kRelu},
                             unroll, "add_test");
    Tensor out(Shape{24});
    Runner r(bk);
    r.Bind(bk.input, a).Bind(bk.input2, b).Bind(bk.output, out);
    r.Run();
    EXPECT_EQ(Tensor::MaxAbsDiff(out, expected), 0.0f) << "unroll=" << unroll;
  }
}

TEST(AddBuilder, SymbolicHandlesMultipleSizes) {
  Rng rng(92);
  auto bk = BuildAddKernel({.activation = Activation::kRelu, .symbolic = true},
                           8, "add_sym");
  for (std::int64_t n : {16, 64}) {
    Tensor a = Tensor::Random(Shape{n}, rng);
    Tensor b = Tensor::Random(Shape{n}, rng);
    Tensor expected = cpu::Add(a, b, Activation::kRelu);
    Tensor out(Shape{n});
    Runner r(bk);
    r.Bind(bk.input, a).Bind(bk.input2, b).Bind(bk.output, out);
    r.BindParam("N", n);
    r.Run();
    EXPECT_EQ(Tensor::MaxAbsDiff(out, expected), 0.0f) << "n=" << n;
  }
}

TEST(CopyBuilder, GlobalToGlobal) {
  Rng rng(93);
  Tensor a = Tensor::Random(Shape{32}, rng);
  auto bk = BuildCopyKernel(32, "copy_test");
  Tensor out(Shape{32});
  Runner r(bk);
  r.Bind(bk.input, a).Bind(bk.output, out);
  r.Run();
  EXPECT_EQ(Tensor::MaxAbsDiff(out, a), 0.0f);
}

TEST(CopyBuilder, ChannelToChannelIsArgFree) {
  auto cin = MakeBuffer("cin", {IntImm(1)}, MemScope::kChannel);
  auto cout = MakeBuffer("cout", {IntImm(1)}, MemScope::kChannel);
  auto bk = BuildCopyKernel(8, "copy_chan", {.input = cin, .output = cout});
  EXPECT_TRUE(bk.kernel.buffer_args.empty());
  Runner r(bk);
  for (int i = 0; i < 8; ++i)
    r.env().channel(cin.get()).push_back(static_cast<float>(i));
  r.Run();
  auto& q = r.env().channel(cout.get());
  ASSERT_EQ(q.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(q[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace clflow::ir
