// Tests for the model zoo: architectures must match the paper's Tables
// 2.1-2.3, and cost totals must land on the reported FLOP/parameter counts.
#include <gtest/gtest.h>

#include <cstring>

#include "common/error.hpp"
#include "graph/graph.hpp"
#include "nets/nets.hpp"

namespace clflow::nets {
namespace {

using graph::Graph;
using graph::OpKind;

std::int64_t CountKind(const Graph& g, OpKind kind) {
  std::int64_t n = 0;
  for (const auto& node : g.nodes()) {
    if (node.kind == kind) ++n;
  }
  return n;
}

const graph::Node& NodeByName(const Graph& g, const std::string& name) {
  for (const auto& node : g.nodes()) {
    if (node.name == name) return node;
  }
  throw std::runtime_error("no node named " + name);
}

TEST(LeNet5, ArchitectureMatchesTable21) {
  Rng rng(1);
  Graph g = BuildLeNet5(rng);
  EXPECT_EQ(NodeByName(g, "conv1").output_shape, (Shape{1, 6, 26, 26}));
  EXPECT_EQ(NodeByName(g, "pool1").output_shape, (Shape{1, 6, 13, 13}));
  EXPECT_EQ(NodeByName(g, "conv2").output_shape, (Shape{1, 16, 11, 11}));
  EXPECT_EQ(NodeByName(g, "pool2").output_shape, (Shape{1, 16, 5, 5}));
  EXPECT_EQ(NodeByName(g, "flatten").output_shape, (Shape{1, 400}));
  EXPECT_EQ(NodeByName(g, "dense1").output_shape, (Shape{1, 120}));
  EXPECT_EQ(NodeByName(g, "dense2").output_shape, (Shape{1, 84}));
  EXPECT_EQ(NodeByName(g, "softmax").output_shape, (Shape{1, 10}));
}

TEST(LeNet5, CostNearPaperNumbers) {
  Rng rng(2);
  const auto cost = graph::GraphCost(BuildLeNet5(rng));
  // Paper: 389K FP ops, 60K parameters (Table 6.9). Conventions for
  // counting pool/activation ops differ slightly; stay within 15%.
  EXPECT_NEAR(cost.flops, 389e3, 0.15 * 389e3);
  EXPECT_NEAR(static_cast<double>(cost.params), 60e3, 0.05 * 60e3);
}

TEST(LeNet5, ExecutesToProbabilities) {
  Rng rng(3);
  Graph g = BuildLeNet5(rng);
  Tensor img = SyntheticMnistImage(rng);
  Tensor out = graph::Execute(g, img, 2);
  ASSERT_EQ(out.shape(), (Shape{1, 10}));
  float sum = 0;
  for (float v : out.data()) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(MobileNetV1, ArchitectureMatchesTable22) {
  Rng rng(4);
  Graph g = BuildMobileNetV1(rng);
  EXPECT_EQ(NodeByName(g, "conv1").output_shape, (Shape{1, 32, 112, 112}));
  EXPECT_EQ(NodeByName(g, "conv2_dw").output_shape, (Shape{1, 32, 112, 112}));
  EXPECT_EQ(NodeByName(g, "conv2_pw").output_shape, (Shape{1, 64, 112, 112}));
  EXPECT_EQ(NodeByName(g, "conv3_dw").output_shape, (Shape{1, 64, 56, 56}));
  EXPECT_EQ(NodeByName(g, "conv14_pw").output_shape, (Shape{1, 1024, 7, 7}));
  EXPECT_EQ(NodeByName(g, "avg_pool").output_shape, (Shape{1, 1024, 1, 1}));
  EXPECT_EQ(NodeByName(g, "fc").output_shape, (Shape{1, 1000}));
  // 13 depthwise + 1 standard entry conv + 13 pointwise.
  EXPECT_EQ(CountKind(g, OpKind::kDepthwiseConv2d), 13);
  EXPECT_EQ(CountKind(g, OpKind::kConv2d), 14);
}

TEST(MobileNetV1, CostNearPaperNumbers) {
  Rng rng(5);
  const auto cost = graph::GraphCost(BuildMobileNetV1(rng));
  // Paper: 1.11G FP ops, 4.2M parameters (Table 6.11).
  EXPECT_NEAR(cost.flops, 1.11e9, 0.06 * 1.11e9);
  EXPECT_NEAR(static_cast<double>(cost.params), 4.2e6, 0.05 * 4.2e6);
}

TEST(MobileNetV1, PointwiseConvsDominate) {
  // 1x1 convolutions are 94.86% of multiply-adds (SS2.1.4).
  Rng rng(6);
  Graph g = BuildMobileNetV1(rng);
  double pw = 0, total = 0;
  for (const auto& n : g.nodes()) {
    const double f = graph::NodeCost(n, g).flops;
    total += f;
    if (n.kind == OpKind::kConv2d && n.window == 1) pw += f;
  }
  EXPECT_NEAR(pw / total, 0.9486, 0.02);
}

TEST(MobileNetV1, ExecuteIsBitwiseThreadInvariant) {
  // Every reference operator computes each output on one thread in a fixed
  // order, so the thread count must not change a single bit.
  Rng rng(10);
  Graph g = BuildMobileNetV1(rng);
  Tensor img = SyntheticImagenetImage(rng);
  const Tensor one = graph::Execute(g, img, 1);
  const Tensor four = graph::Execute(g, img, 4);
  ASSERT_EQ(one.shape(), four.shape());
  EXPECT_EQ(std::memcmp(one.data().data(), four.data().data(),
                        one.data().size() * sizeof(float)),
            0);
}

class ResNetDepth : public ::testing::TestWithParam<int> {};

TEST_P(ResNetDepth, ArchitectureMatchesTable23) {
  const int depth = GetParam();
  Rng rng(7);
  Graph g = BuildResNet(depth, rng);
  EXPECT_EQ(NodeByName(g, "conv1").output_shape, (Shape{1, 64, 112, 112}));
  EXPECT_EQ(NodeByName(g, "pool1").output_shape, (Shape{1, 64, 56, 56}));
  EXPECT_EQ(NodeByName(g, "conv2_1_b").output_shape, (Shape{1, 64, 56, 56}));
  EXPECT_EQ(NodeByName(g, "conv3_1_a").output_shape, (Shape{1, 128, 28, 28}));
  EXPECT_EQ(NodeByName(g, "conv5_1_b").output_shape, (Shape{1, 512, 7, 7}));
  EXPECT_EQ(NodeByName(g, "avg_pool").output_shape, (Shape{1, 512, 1, 1}));
  EXPECT_EQ(NodeByName(g, "fc").output_shape, (Shape{1, 1000}));

  const int blocks = depth == 18 ? 8 : 16;
  EXPECT_EQ(CountKind(g, OpKind::kAdd), blocks);
  // Two 3x3 per block + conv1 + 3 projection shortcuts.
  EXPECT_EQ(CountKind(g, OpKind::kConv2d), 2 * blocks + 1 + 3);
}

TEST_P(ResNetDepth, CostNearPaperNumbers) {
  const int depth = GetParam();
  Rng rng(8);
  const auto cost = graph::GraphCost(BuildResNet(depth, rng));
  // Paper Table 6.14: 3.66G / 11.7M (ResNet-18), 7.36G / 21.8M (ResNet-34).
  const double flops = depth == 18 ? 3.66e9 : 7.36e9;
  const double params = depth == 18 ? 11.7e6 : 21.8e6;
  EXPECT_NEAR(cost.flops, flops, 0.06 * flops);
  EXPECT_NEAR(static_cast<double>(cost.params), params, 0.05 * params);
}

INSTANTIATE_TEST_SUITE_P(Depths, ResNetDepth, ::testing::Values(18, 34));

TEST(ResNet, RejectsUnsupportedDepth) {
  Rng rng(9);
  EXPECT_THROW((void)BuildResNet(50, rng), Error);
}

TEST(SyntheticInputs, DeterministicAndInRange) {
  Rng a(1), b(1);
  Tensor i1 = SyntheticMnistImage(a);
  Tensor i2 = SyntheticMnistImage(b);
  EXPECT_EQ(Tensor::MaxAbsDiff(i1, i2), 0.0f);
  for (float v : i1.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
  Rng c(2);
  Tensor img = SyntheticImagenetImage(c);
  EXPECT_EQ(img.shape(), (Shape{1, 3, 224, 224}));
}

}  // namespace
}  // namespace clflow::nets
