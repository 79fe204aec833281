// Unit tests for the reference CPU operators (the functional oracle).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "cpu/ops.hpp"

namespace clflow::cpu {
namespace {

TEST(Conv2d, MatchesHandComputedExample) {
  // Single 2x2 filter over a 3x3 input, stride 1, no pad.
  auto input = Tensor::FromData(Shape{1, 1, 3, 3},
                                {1, 2, 3,
                                 4, 5, 6,
                                 7, 8, 9});
  auto w = Tensor::FromData(Shape{1, 1, 2, 2}, {1, 0, 0, 1});
  auto out = Conv2d(input, w, Tensor(), {.stride = 1, .pad = 0});
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 1 + 5);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 1), 2 + 6);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 0), 4 + 8);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 5 + 9);
}

TEST(Conv2d, Figure21Example) {
  // The thesis' Figure 2.1: 2-filter 3x3 conv on a 5x5 input -> 2x3x3.
  Rng rng(42);
  auto input = Tensor::Random(Shape{1, 1, 5, 5}, rng);
  auto w = Tensor::Random(Shape{2, 1, 3, 3}, rng);
  auto out = Conv2d(input, w, Tensor(), {});
  ASSERT_EQ(out.shape(), (Shape{1, 2, 3, 3}));
  // Check y(0,0) = sum_{m,n} I(m,n) W(m,n) for filter 0 (Equation 2.1).
  float expected = 0.0f;
  for (int m = 0; m < 3; ++m)
    for (int n = 0; n < 3; ++n)
      expected += input.at4(0, 0, m, n) * w.at4(0, 0, m, n);
  EXPECT_NEAR(out.at4(0, 0, 0, 0), expected, 1e-5f);
}

TEST(Conv2d, StrideReducesOutput) {
  Rng rng(1);
  auto input = Tensor::Random(Shape{1, 3, 8, 8}, rng);
  auto w = Tensor::Random(Shape{4, 3, 3, 3}, rng);
  auto out = Conv2d(input, w, Tensor(), {.stride = 2, .pad = 1});
  EXPECT_EQ(out.shape(), (Shape{1, 4, 4, 4}));
}

TEST(Conv2d, PaddingContributesZeros) {
  auto input = Tensor::Full(Shape{1, 1, 2, 2}, 1.0f);
  auto w = Tensor::Full(Shape{1, 1, 3, 3}, 1.0f);
  auto out = Conv2d(input, w, Tensor(), {.stride = 1, .pad = 1});
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  // Each output sees exactly the 4 ones of the input.
  for (std::int64_t i = 0; i < out.size(); ++i)
    EXPECT_FLOAT_EQ(out.at(i), 4.0f);
}

TEST(Conv2d, BiasAndReluApplied) {
  auto input = Tensor::Full(Shape{1, 1, 2, 2}, 1.0f);
  auto w = Tensor::Full(Shape{2, 1, 1, 1}, -1.0f);
  auto bias = Tensor::FromData(Shape{2}, {0.5f, 2.0f});
  auto out = Conv2d(input, w, bias,
                    {.stride = 1, .pad = 0, .activation = Activation::kRelu});
  // Channel 0: -1 + 0.5 = -0.5 -> relu 0. Channel 1: -1 + 2 = 1.
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), 1.0f);
}

TEST(Conv2d, ThreadCountDoesNotChangeResult) {
  Rng rng(9);
  auto input = Tensor::Random(Shape{1, 8, 14, 14}, rng);
  auto w = Tensor::Random(Shape{16, 8, 3, 3}, rng);
  auto bias = Tensor::Random(Shape{16}, rng);
  const Conv2dParams p{.stride = 1, .pad = 1,
                       .activation = Activation::kRelu};
  auto seq = Conv2d(input, w, bias, p, 1);
  auto par = Conv2d(input, w, bias, p, 8);
  EXPECT_EQ(Tensor::MaxAbsDiff(seq, par), 0.0f);
}

TEST(Conv2d, ShapeMismatchThrows) {
  Rng rng(2);
  auto input = Tensor::Random(Shape{1, 3, 8, 8}, rng);
  auto w = Tensor::Random(Shape{4, 2, 3, 3}, rng);  // wrong C1
  EXPECT_THROW((void)Conv2d(input, w, Tensor(), {}), ShapeError);
  auto wb = Tensor::Random(Shape{4, 3, 3, 3}, rng);
  auto bad_bias = Tensor::Random(Shape{5}, rng);
  EXPECT_THROW((void)Conv2d(input, wb, bad_bias, {}), ShapeError);
}

TEST(DepthwiseConv2d, FiltersActPerChannel) {
  // Channel 0 filter = identity-ish, channel 1 filter = x2.
  auto input = Tensor::FromData(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  auto w = Tensor::FromData(Shape{2, 1, 1, 1}, {1.0f, 2.0f});
  auto out = DepthwiseConv2d(input, w, Tensor(), {});
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 4.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 1, 1), 16.0f);
}

TEST(DepthwiseConv2d, MatchesGroupedDirectConv) {
  // A depthwise conv equals C independent 1-channel convs.
  Rng rng(3);
  auto input = Tensor::Random(Shape{1, 4, 6, 6}, rng);
  auto w = Tensor::Random(Shape{4, 1, 3, 3}, rng);
  auto out = DepthwiseConv2d(input, w, Tensor(), {.stride = 1, .pad = 1});
  for (int c = 0; c < 4; ++c) {
    Tensor one_in(Shape{1, 1, 6, 6});
    Tensor one_w(Shape{1, 1, 3, 3});
    for (int h = 0; h < 6; ++h)
      for (int x = 0; x < 6; ++x)
        one_in.at4(0, 0, h, x) = input.at4(0, c, h, x);
    for (int fy = 0; fy < 3; ++fy)
      for (int fx = 0; fx < 3; ++fx)
        one_w.at4(0, 0, fy, fx) = w.at4(c, 0, fy, fx);
    auto ref = Conv2d(one_in, one_w, Tensor(), {.stride = 1, .pad = 1});
    for (int h = 0; h < 6; ++h)
      for (int x = 0; x < 6; ++x)
        EXPECT_NEAR(out.at4(0, c, h, x), ref.at4(0, 0, h, x), 1e-5f);
  }
}

TEST(Dense, MatrixVectorWithBias) {
  auto x = Tensor::FromData(Shape{1, 3}, {1, 2, 3});
  auto w = Tensor::FromData(Shape{2, 3}, {1, 0, 0, 0, 1, 1});
  auto bias = Tensor::FromData(Shape{2}, {10, 20});
  auto y = Dense(x, w, bias, Activation::kNone);
  EXPECT_FLOAT_EQ(y.at(0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(1), 25.0f);
}

TEST(Dense, FlattensInputImplicitly) {
  Rng rng(4);
  auto x4 = Tensor::Random(Shape{1, 2, 2, 2}, rng);
  auto w = Tensor::Random(Shape{3, 8}, rng);
  auto y1 = Dense(x4, w, Tensor(), Activation::kNone);
  auto y2 = Dense(x4.Reshaped(Shape{1, 8}), w, Tensor(), Activation::kNone);
  EXPECT_EQ(Tensor::MaxAbsDiff(y1, y2), 0.0f);
}

TEST(Dense, ThreadInvariance) {
  Rng rng(5);
  auto x = Tensor::Random(Shape{1, 400}, rng);
  auto w = Tensor::Random(Shape{120, 400}, rng);
  auto b = Tensor::Random(Shape{120}, rng);
  auto seq = Dense(x, w, b, Activation::kRelu, 1);
  auto par = Dense(x, w, b, Activation::kRelu, 8);
  EXPECT_EQ(Tensor::MaxAbsDiff(seq, par), 0.0f);
}

TEST(MaxPool2d, TakesWindowMaximum) {
  auto input = Tensor::FromData(Shape{1, 1, 4, 4},
                                {1, 2, 5, 6,
                                 3, 4, 7, 8,
                                 -1, -2, 0, 0,
                                 -3, -4, 0, 9});
  auto out = MaxPool2d(input, {.window = 2, .stride = 2});
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 1), 8.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 0), -1.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 9.0f);
}

TEST(AvgPool2d, GlobalPoolAverages) {
  auto input = Tensor::Iota(Shape{1, 2, 2, 2});  // ch0: 0..3, ch1: 4..7
  auto out = AvgPool2d(input, {.window = 2, .stride = 1});
  ASSERT_EQ(out.shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), 5.5f);
}

TEST(Pad2d, InsertsZeroBorder) {
  auto input = Tensor::Full(Shape{1, 1, 2, 2}, 3.0f);
  auto out = Pad2d(input, 1);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 4, 4}));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 3.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 3, 3), 0.0f);
  // pad = 0 is the identity.
  EXPECT_EQ(Tensor::MaxAbsDiff(Pad2d(input, 0), input), 0.0f);
}

TEST(Activate, Relu6ClampsBothSides) {
  auto x = Tensor::FromData(Shape{4}, {-2.0f, 0.5f, 6.0f, 9.0f});
  auto y = Activate(x, Activation::kRelu6);
  EXPECT_FLOAT_EQ(y.at(0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(1), 0.5f);
  EXPECT_FLOAT_EQ(y.at(2), 6.0f);
  EXPECT_FLOAT_EQ(y.at(3), 6.0f);
}

TEST(Add, ResidualSumWithRelu) {
  auto a = Tensor::FromData(Shape{3}, {1, -5, 2});
  auto b = Tensor::FromData(Shape{3}, {1, 2, -3});
  auto y = Add(a, b, Activation::kRelu);
  EXPECT_FLOAT_EQ(y.at(0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(1), 0.0f);
  EXPECT_FLOAT_EQ(y.at(2), 0.0f);
  EXPECT_THROW((void)Add(a, Tensor::Full(Shape{4}, 0.0f)), ShapeError);
}

TEST(Softmax, SumsToOneAndOrdersPreserved) {
  auto x = Tensor::FromData(Shape{4}, {1.0f, 3.0f, 2.0f, -1.0f});
  auto y = Softmax(x);
  float sum = 0;
  for (float v : y.data()) sum += v;
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_GT(y.at(1), y.at(2));
  EXPECT_GT(y.at(2), y.at(0));
  EXPECT_GT(y.at(0), y.at(3));
}

TEST(Softmax, StableUnderLargeInputs) {
  // Without max subtraction exp(1000) would overflow to inf.
  auto x = Tensor::FromData(Shape{3}, {1000.0f, 1001.0f, 999.0f});
  auto y = Softmax(x);
  for (float v : y.data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(y.at(1), y.at(0));
}

TEST(FoldBatchNorm, EquivalentToExplicitBn) {
  Rng rng(6);
  auto input = Tensor::Random(Shape{1, 3, 5, 5}, rng);
  auto w = Tensor::Random(Shape{4, 3, 3, 3}, rng);
  auto bias = Tensor::Random(Shape{4}, rng);
  auto gamma = Tensor::Random(Shape{4}, rng, 0.5f, 1.5f);
  auto beta = Tensor::Random(Shape{4}, rng);
  auto mean = Tensor::Random(Shape{4}, rng);
  auto variance = Tensor::Random(Shape{4}, rng, 0.25f, 2.0f);

  auto folded = FoldBatchNorm(w, bias, gamma, beta, mean, variance);
  auto fused = Conv2d(input, folded.weights, folded.bias, {.pad = 1});

  // Reference: conv then explicit batch norm.
  auto raw = Conv2d(input, w, bias, {.pad = 1});
  Tensor expect(raw.shape());
  for (int c = 0; c < 4; ++c) {
    const float scale =
        gamma.at(c) / std::sqrt(variance.at(c) + 1e-5f);
    for (int h = 0; h < 5; ++h)
      for (int x = 0; x < 5; ++x)
        expect.at4(0, c, h, x) =
            (raw.at4(0, c, h, x) - mean.at(c)) * scale + beta.at(c);
  }
  EXPECT_LT(Tensor::MaxRelDiff(fused, expect, 1e-3f), 1e-3f);
}

// ---- SIMD vs scalar bit-exactness -------------------------------------
//
// The vectorized Conv2d/DepthwiseConv2d/Dense entry points promise
// *bitwise* identical results to the exported *Scalar oracles: each SIMD
// lane accumulates one output in the same floating-point order as the
// scalar loop. The sweep crosses shapes chosen so output widths hit
// full 8-lane tiles, partial tails (<8), and single-lane edges, with
// every stride/pad/activation combination the runtime uses.

void ExpectBitwiseEqual(const Tensor& simd, const Tensor& scalar,
                        const std::string& what) {
  ASSERT_EQ(simd.shape(), scalar.shape()) << what;
  const auto a = simd.data();
  const auto b = scalar.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool same =
        std::memcmp(&a[i], &b[i], sizeof(float)) == 0;
    ASSERT_TRUE(same) << what << ": element " << i << " simd=" << a[i]
                      << " scalar=" << b[i];
  }
}

TEST(SimdBitExact, Conv2dSweep) {
  Rng rng(91);
  for (const int w1 : {5, 8, 9, 16, 23}) {  // tails of 0..7 lanes
    for (const int stride : {1, 2}) {
      for (const int pad : {0, 1}) {
        for (const auto act : {Activation::kNone, Activation::kRelu,
                               Activation::kRelu6}) {
          if (w1 + 2 * pad < 3) continue;
          auto input = Tensor::Random(Shape{1, 3, w1, w1}, rng, -2.0f, 2.0f);
          auto w = Tensor::Random(Shape{4, 3, 3, 3}, rng, -1.0f, 1.0f);
          auto bias = Tensor::Random(Shape{4}, rng);
          const Conv2dParams p{.stride = stride, .pad = pad,
                               .activation = act};
          ExpectBitwiseEqual(
              Conv2d(input, w, bias, p), Conv2dScalar(input, w, bias, p),
              "conv w1=" + std::to_string(w1) + " s=" +
                  std::to_string(stride) + " p=" + std::to_string(pad));
        }
      }
    }
  }
}

TEST(SimdBitExact, Conv2d1x1AndNoBias) {
  Rng rng(92);
  auto input = Tensor::Random(Shape{1, 8, 10, 10}, rng, -2.0f, 2.0f);
  auto w = Tensor::Random(Shape{16, 8, 1, 1}, rng, -1.0f, 1.0f);
  ExpectBitwiseEqual(Conv2d(input, w, Tensor(), {}),
                     Conv2dScalar(input, w, Tensor(), {}), "conv1x1");
}

TEST(SimdBitExact, DepthwiseSweep) {
  Rng rng(93);
  for (const int w1 : {7, 8, 15}) {
    for (const int stride : {1, 2}) {
      auto input = Tensor::Random(Shape{1, 6, w1, w1}, rng, -2.0f, 2.0f);
      auto w = Tensor::Random(Shape{6, 1, 3, 3}, rng, -1.0f, 1.0f);
      auto bias = Tensor::Random(Shape{6}, rng);
      const Conv2dParams p{.stride = stride, .pad = 1,
                           .activation = Activation::kRelu};
      ExpectBitwiseEqual(
          DepthwiseConv2d(input, w, bias, p),
          DepthwiseConv2dScalar(input, w, bias, p),
          "dw w1=" + std::to_string(w1) + " s=" + std::to_string(stride));
    }
  }
}

TEST(SimdBitExact, DenseSweep) {
  Rng rng(94);
  for (const int c2 : {1, 7, 8, 9, 64, 1000}) {  // tail blocks of every size
    auto x = Tensor::Random(Shape{1, 96}, rng, -2.0f, 2.0f);
    auto w = Tensor::Random(Shape{c2, 96}, rng, -1.0f, 1.0f);
    auto b = Tensor::Random(Shape{c2}, rng);
    for (const auto act : {Activation::kNone, Activation::kRelu}) {
      ExpectBitwiseEqual(Dense(x, w, b, act), DenseScalar(x, w, b, act),
                         "dense c2=" + std::to_string(c2));
    }
    // No-bias path.
    ExpectBitwiseEqual(Dense(x, w, Tensor(), Activation::kNone),
                       DenseScalar(x, w, Tensor(), Activation::kNone),
                       "dense nobias c2=" + std::to_string(c2));
  }
}

TEST(SimdBitExact, ThreadCountDoesNotChangeSimdResult) {
  Rng rng(95);
  auto input = Tensor::Random(Shape{1, 8, 23, 23}, rng, -2.0f, 2.0f);
  auto w = Tensor::Random(Shape{8, 8, 3, 3}, rng, -1.0f, 1.0f);
  const Conv2dParams p{.stride = 1, .pad = 1};
  ExpectBitwiseEqual(Conv2d(input, w, Tensor(), p, 4),
                     Conv2d(input, w, Tensor(), p, 1), "conv threads");
}

// The register-blocked conv computes 4 output channels per tile (a tail
// block recomputes its last real filter and discards the copies), and a
// pointwise conv runs 16-pixel tiles over the flattened H*W axis with a
// zero-filled last tile. K and H*W below hit full tiles, every tail size
// class, and single-element edges.
TEST(SimdBitExact, PointwiseBlockedSweep) {
  Rng rng(96);
  const std::pair<int, int> hw[] = {{1, 1}, {4, 4}, {5, 9}, {7, 7}, {14, 14}};
  for (const int k : {1, 3, 4, 5, 13}) {
    for (const auto& [h, w1] : hw) {
      auto input = Tensor::Random(Shape{1, 7, h, w1}, rng, -2.0f, 2.0f);
      auto w = Tensor::Random(Shape{k, 7, 1, 1}, rng, -1.0f, 1.0f);
      auto bias = Tensor::Random(Shape{k}, rng);
      for (const auto act : {Activation::kNone, Activation::kRelu,
                             Activation::kRelu6}) {
        const Conv2dParams p{.activation = act};
        const std::string what = "pw k=" + std::to_string(k) + " " +
                                 std::to_string(h) + "x" +
                                 std::to_string(w1);
        ExpectBitwiseEqual(Conv2d(input, w, bias, p),
                           Conv2dScalar(input, w, bias, p), what);
        ExpectBitwiseEqual(Conv2d(input, w, Tensor(), p),
                           Conv2dScalar(input, w, Tensor(), p),
                           what + " nobias");
      }
    }
  }
}

TEST(SimdBitExact, BlockedKxKSweep) {
  Rng rng(97);
  // 23 columns at stride 2 put both interior (unchecked gather) and
  // border (bounds-checked) tap vectors in every row.
  auto input = Tensor::Random(Shape{1, 3, 13, 23}, rng, -2.0f, 2.0f);
  for (const int f : {1, 3, 5, 6}) {
    for (const int k : {1, 3, 5, 6}) {
      auto w = Tensor::Random(Shape{k, 3, f, f}, rng, -1.0f, 1.0f);
      auto bias = Tensor::Random(Shape{k}, rng);
      for (const int stride : {1, 2}) {
        for (const int pad : {0, 1}) {
          const Conv2dParams p{.stride = stride, .pad = pad,
                               .activation = Activation::kRelu6};
          ExpectBitwiseEqual(
              Conv2d(input, w, bias, p), Conv2dScalar(input, w, bias, p),
              "conv f=" + std::to_string(f) + " k=" + std::to_string(k) +
                  " s=" + std::to_string(stride) +
                  " p=" + std::to_string(pad));
        }
      }
    }
  }
}

TEST(SimdBitExact, Strided1x1TakesGeneralPath) {
  // ResNet's downsample shortcut: 1x1, stride 2, no pad.
  Rng rng(98);
  auto input = Tensor::Random(Shape{1, 16, 14, 14}, rng, -2.0f, 2.0f);
  auto w = Tensor::Random(Shape{10, 16, 1, 1}, rng, -1.0f, 1.0f);
  auto bias = Tensor::Random(Shape{10}, rng);
  const Conv2dParams p{.stride = 2};
  ExpectBitwiseEqual(Conv2d(input, w, bias, p),
                     Conv2dScalar(input, w, bias, p), "conv1x1 s2");
}

TEST(SimdBitExact, UnevenBlocksAcrossThreads) {
  // K = 18 is 5 channel blocks (the last holds 2 channels): 3 and 4
  // threads both get unequal shares.
  Rng rng(99);
  auto input = Tensor::Random(Shape{1, 6, 9, 11}, rng, -2.0f, 2.0f);
  auto w1x1 = Tensor::Random(Shape{18, 6, 1, 1}, rng, -1.0f, 1.0f);
  auto w3x3 = Tensor::Random(Shape{18, 6, 3, 3}, rng, -1.0f, 1.0f);
  auto bias = Tensor::Random(Shape{18}, rng);
  const Conv2dParams pw{.activation = Activation::kRelu};
  const Conv2dParams kxk{.stride = 2, .pad = 1,
                         .activation = Activation::kRelu};
  const Tensor pw_ref = Conv2dScalar(input, w1x1, bias, pw);
  const Tensor kxk_ref = Conv2dScalar(input, w3x3, bias, kxk);
  for (const int threads : {1, 3, 4}) {
    ExpectBitwiseEqual(Conv2d(input, w1x1, bias, pw, threads), pw_ref,
                       "pw threads=" + std::to_string(threads));
    ExpectBitwiseEqual(Conv2d(input, w3x3, bias, kxk, threads), kxk_ref,
                       "3x3 threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace clflow::cpu
