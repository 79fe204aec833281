// Integration tests for the end-to-end compilation flow: pipelined and
// folded deployments, the optimization ladder, synthesis outcomes per
// board, and functional equivalence with the reference execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/deployment.hpp"
#include "nets/nets.hpp"
#include "resilience/fault.hpp"

namespace clflow::core {
namespace {

class LeNetDeployment : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(77);
    net_ = new graph::Graph(nets::BuildLeNet5(*rng_));
    image_ = new Tensor(nets::SyntheticMnistImage(*rng_));
  }
  static void TearDownTestSuite() {
    delete rng_;
    delete net_;
    delete image_;
    rng_ = nullptr;
    net_ = nullptr;
    image_ = nullptr;
  }

  static Deployment Deploy(OptimizationRecipe recipe,
                           const fpga::BoardSpec& board, bool ce = false) {
    DeployOptions o;
    o.mode = ExecutionMode::kPipelined;
    o.recipe = std::move(recipe);
    o.recipe.concurrent_execution = ce;
    o.board = board;
    return Deployment::Compile(*net_, o);
  }

  static Rng* rng_;
  static graph::Graph* net_;
  static Tensor* image_;
};

Rng* LeNetDeployment::rng_ = nullptr;
graph::Graph* LeNetDeployment::net_ = nullptr;
Tensor* LeNetDeployment::image_ = nullptr;

TEST_F(LeNetDeployment, AllLadderRungsSynthesizeOnAllBoards) {
  for (const auto& board : fpga::EvaluationBoards()) {
    for (const auto& recipe : PipelineLadder()) {
      auto d = Deploy(recipe, board);
      EXPECT_TRUE(d.ok()) << board.key << "/" << recipe.name << ": "
                          << d.bitstream().status_detail;
    }
  }
}

TEST_F(LeNetDeployment, FunctionalOutputMatchesReferenceForEveryRung) {
  const Tensor expected = graph::Execute(*net_, *image_);
  for (const auto& recipe : PipelineLadder()) {
    auto d = Deploy(recipe, fpga::Stratix10SX(), /*ce=*/true);
    auto r = d.Run(*image_, /*functional=*/true);
    EXPECT_TRUE(Tensor::AllClose(r.output.Reshaped(expected.shape()),
                                 expected, 1e-4f, 1e-5f))
        << recipe.name;
  }
}

TEST_F(LeNetDeployment, LadderImprovesMonotonically) {
  // Figure 6.1: each optimization improves on the previous one (with
  // concurrent execution enabled, as in the best-configuration plot).
  for (const auto& board : fpga::EvaluationBoards()) {
    double last_fps = 0.0;
    for (const auto& recipe : PipelineLadder()) {
      auto d = Deploy(recipe, board, /*ce=*/true);
      const double fps = d.EstimateFps(*image_);
      // "Match/marginally exceed" (SS6.3.3): TVM-Autorun's weight-cache
      // fill adds a few cycles, so allow a 5% tolerance between rungs.
      EXPECT_GE(fps, last_fps * 0.95)
          << board.key << ": " << recipe.name << " regressed";
      last_fps = std::max(last_fps, fps);
    }
  }
}

TEST_F(LeNetDeployment, ConcurrentExecutionHelpsChannelizedDesigns) {
  auto serial = Deploy(PipelineAutorun(), fpga::Stratix10SX(), false);
  auto ce = Deploy(PipelineAutorun(), fpga::Stratix10SX(), true);
  EXPECT_GT(ce.EstimateFps(*image_), 1.2 * serial.EstimateFps(*image_));
}

TEST_F(LeNetDeployment, OptimizedBeatsBaseSubstantially) {
  // Table 6.9: 3x-9.4x over base depending on the board.
  for (const auto& board : fpga::EvaluationBoards()) {
    auto base = Deploy(PipelineBase(), board);
    auto opt = Deploy(PipelineTvmAutorun(), board, /*ce=*/true);
    const double speedup =
        opt.EstimateFps(*image_) / base.EstimateFps(*image_);
    EXPECT_GT(speedup, 2.5) << board.key;
    EXPECT_LT(speedup, 20.0) << board.key;
  }
}

TEST_F(LeNetDeployment, AutorunKernelsAreWeightless) {
  auto d = Deploy(PipelineAutorun(), fpga::Stratix10SX());
  int autorun_count = 0;
  for (const auto& inv : d.invocations()) {
    if (!inv.autorun) continue;
    ++autorun_count;
    const auto& pk = d.kernels()[static_cast<std::size_t>(inv.kernel_index)];
    EXPECT_TRUE(pk.built.kernel.buffer_args.empty());
  }
  // pool1, pool2, flatten.
  EXPECT_EQ(autorun_count, 3);
}

TEST_F(LeNetDeployment, EstimateFpsVerifiesAgainstReference) {
  auto d = Deploy(PipelineTvmAutorun(), fpga::Stratix10SX(), true);
  EXPECT_NO_THROW((void)d.EstimateFps(*image_, /*verify=*/true));
}

TEST_F(LeNetDeployment, ProfileEventsShowsS10mxWriteDominance) {
  // Figure 6.2: on the S10MX the write time dwarfs kernel time.
  auto mx = Deploy(PipelineBase(), fpga::Stratix10MX());
  auto breakdown = mx.ProfileEvents(*image_);
  EXPECT_GT(breakdown.write.us(), 100.0);
  auto sx = Deploy(PipelineBase(), fpga::Stratix10SX());
  auto sx_breakdown = sx.ProfileEvents(*image_);
  EXPECT_GT(breakdown.write.seconds() /
                (breakdown.write + breakdown.kernel).seconds(),
            sx_breakdown.write.seconds() /
                (sx_breakdown.write + sx_breakdown.kernel).seconds());
}

TEST_F(LeNetDeployment, GeneratedSourceIsCompleteProgram) {
  auto d = Deploy(PipelineAutorun(), fpga::Stratix10SX());
  const std::string src = d.GeneratedSource();
  EXPECT_NE(src.find("cl_intel_channels"), std::string::npos);
  EXPECT_NE(src.find("__kernel void k_conv1"), std::string::npos);
  EXPECT_NE(src.find("__kernel void k_softmax"), std::string::npos);
  EXPECT_NE(src.find("__attribute__((autorun))"), std::string::npos);
}

TEST_F(LeNetDeployment, InstantiatedCopyRunsTheSameDesignIndependently) {
  Deployment d = Deploy(PipelineTvmAutorun(), fpga::Stratix10SX(), true);
  // The design keeps the compile's top-level phases, in order.
  std::vector<std::string> phases;
  for (const auto& span : d.design().phase_spans) phases.push_back(span.name);
  EXPECT_EQ(phases, (std::vector<std::string>{"fusion", "lowering", "verify",
                                              "lint", "srclint",
                                              "synthesis"}));
  Deployment copy = d.Instantiate();
  EXPECT_EQ(&copy.design(), &d.design());
  EXPECT_EQ(&copy.kernels(), &d.kernels());
  EXPECT_NE(&copy.runtime(), &d.runtime());

  const RunResult a = d.Run(*image_);
  const RunResult b = copy.Run(*image_);
  const auto as = a.output.data();
  const auto bs = b.output.data();
  ASSERT_EQ(as.size(), bs.size());
  EXPECT_TRUE(std::equal(as.begin(), as.end(), bs.begin()));
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.trace_id, b.trace_id);

  // ClearEvents on one instance leaves the other's event stream alone.
  const std::size_t events = copy.runtime().events().size();
  ASSERT_GT(events, 0u);
  d.runtime().ClearEvents();
  EXPECT_TRUE(d.runtime().events().empty());
  EXPECT_EQ(copy.runtime().events().size(), events);

  // A fault injected into one instance never reaches the other.
  resilience::FaultPlan plan;
  plan.specs.push_back(resilience::ParseFaultSpec("xfer-fail:write:0:2"));
  d.runtime().set_fault_injector(
      std::make_shared<resilience::FaultInjector>(plan));
  const RunResult faulted = d.Run(*image_, /*functional=*/false);
  const RunResult clean = copy.Run(*image_, /*functional=*/false);
  EXPECT_GT(d.runtime().xfer_retries(), 0);
  EXPECT_EQ(copy.runtime().xfer_retries(), 0);
  EXPECT_GT(faulted.latency, clean.latency);
}

TEST_F(LeNetDeployment, RunOnFailedDeploymentThrows) {
  // Force a fit failure with an absurd cost model.
  DeployOptions o;
  o.mode = ExecutionMode::kPipelined;
  o.recipe = PipelineBase();
  o.board = fpga::Arria10();
  o.cost_model.kernel_base_alut = 100'000'000;
  auto d = Deployment::Compile(*net_, o);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.bitstream().status, fpga::SynthStatus::kFitError);
  EXPECT_THROW((void)d.Run(*image_), RuntimeApiError);
  EXPECT_THROW((void)d.ProfileOps(), RuntimeApiError);
}

// --- Folded ------------------------------------------------------------------

class MobileNetDeployment : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(78);
    net_ = new graph::Graph(nets::BuildMobileNetV1(*rng_));
    image_ = new Tensor(nets::SyntheticImagenetImage(*rng_));
  }
  static void TearDownTestSuite() {
    delete rng_;
    delete net_;
    delete image_;
  }
  static Deployment Deploy(OptimizationRecipe recipe,
                           const fpga::BoardSpec& board) {
    DeployOptions o;
    o.mode = ExecutionMode::kFolded;
    o.recipe = std::move(recipe);
    o.board = board;
    o.functional_threads = HardwareThreads();
    return Deployment::Compile(*net_, o);
  }
  static Rng* rng_;
  static graph::Graph* net_;
  static Tensor* image_;
};

Rng* MobileNetDeployment::rng_ = nullptr;
graph::Graph* MobileNetDeployment::net_ = nullptr;
Tensor* MobileNetDeployment::image_ = nullptr;

TEST_F(MobileNetDeployment, BaseDoesNotFitArria10) {
  auto d = Deploy(FoldedBase(), fpga::Arria10());
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.bitstream().status, fpga::SynthStatus::kFitError);
}

TEST_F(MobileNetDeployment, OptimizedFitsAllBoards) {
  for (const auto& board : fpga::EvaluationBoards()) {
    auto d = Deploy(FoldedMobileNet(board.key), board);
    EXPECT_TRUE(d.ok()) << board.key << ": " << d.bitstream().status_detail;
  }
}

TEST_F(MobileNetDeployment, ParameterizationCollapsesKernelCount) {
  auto base = Deploy(FoldedBase(), fpga::Stratix10SX());
  auto opt = Deploy(FoldedMobileNet("s10sx"), fpga::Stratix10SX());
  // 45 per-layer kernels vs ~9 parameterized groups.
  EXPECT_GT(base.kernels().size(), 40u);
  EXPECT_LT(opt.kernels().size(), 12u);
  // Same number of runtime invocations either way (one per fused node).
  EXPECT_EQ(base.invocations().size(), opt.invocations().size());
}

TEST_F(MobileNetDeployment, FunctionalMatchesReference) {
  auto d = Deploy(FoldedMobileNet("s10sx"), fpga::Stratix10SX());
  auto r = d.Run(*image_, /*functional=*/true);
  const Tensor expected =
      graph::Execute(*net_, *image_, HardwareThreads());
  EXPECT_TRUE(Tensor::AllClose(r.output.Reshaped(expected.shape()), expected,
                               1e-3f, 1e-4f));
}

TEST_F(MobileNetDeployment, OptimizedImprovesBaseByOrdersOfMagnitude) {
  auto base = Deploy(FoldedBase(), fpga::Stratix10SX());
  auto opt = Deploy(FoldedMobileNet("s10sx"), fpga::Stratix10SX());
  const double speedup =
      opt.EstimateFps(*image_) / base.EstimateFps(*image_);
  // Paper: 178x; the model's baseline II differs somewhat, so accept a
  // generous band around two-to-three orders of magnitude.
  EXPECT_GT(speedup, 80.0);
  EXPECT_LT(speedup, 3000.0);
}

TEST_F(MobileNetDeployment, ProfileShowsPointwiseDominanceAndPadCost) {
  auto d = Deploy(FoldedMobileNet("s10sx"), fpga::Stratix10SX());
  const auto profile = d.ProfileOps();
  double pw_flops = 0, total_flops = 0;
  double pad_share = 0;
  for (const auto& e : profile) {
    total_flops += e.flops;
    if (e.op_class == "1x1 conv") pw_flops += e.flops;
    if (e.op_class == "pad") {
      pad_share = e.runtime_share;
      EXPECT_EQ(e.flops, 0.0);
    }
  }
  EXPECT_GT(pw_flops / total_flops, 0.9);  // 94.8% of FLOPs (Table 6.8)
  EXPECT_GT(pad_share, 0.05);              // zero-FLOP padding costs time
}

TEST_F(MobileNetDeployment, SymbolicKernelsShareHardwareAcrossLayers) {
  auto d = Deploy(FoldedMobileNet("s10sx"), fpga::Stratix10SX());
  // All 13 pointwise layers run on the same kernel index.
  int pw_kernel = -1;
  int pw_invocations = 0;
  for (const auto& inv : d.invocations()) {
    const auto& pk = d.kernels()[static_cast<std::size_t>(inv.kernel_index)];
    if (pk.op_class == "1x1 conv") {
      if (pw_kernel == -1) pw_kernel = inv.kernel_index;
      EXPECT_EQ(inv.kernel_index, pw_kernel);
      ++pw_invocations;
      EXPECT_FALSE(inv.bindings.empty());
    }
  }
  EXPECT_EQ(pw_invocations, 13);
}

TEST_F(MobileNetDeployment, HybridTailPipelinesClassifier) {
  // SS6.5/SS8.1: fold the convolutional body, pipeline the tail.
  auto folded = Deploy(FoldedMobileNet("s10sx"), fpga::Stratix10SX());
  auto recipe = FoldedMobileNet("s10sx");
  recipe.pipeline_tail = true;
  auto hybrid = Deploy(recipe, fpga::Stratix10SX());
  ASSERT_TRUE(hybrid.ok()) << hybrid.bitstream().status_detail;

  // The tail's weightless kernels became autorun channel stages.
  int autorun = 0, channelized = 0;
  for (const auto& inv : hybrid.invocations()) {
    if (inv.autorun) ++autorun;
    if (!inv.reads_channels.empty() || !inv.writes_channels.empty()) {
      ++channelized;
    }
  }
  // avg_pool still reads the folded body's output from global memory, so
  // only the fully channel-fed flatten goes autorun.
  EXPECT_EQ(autorun, 1);
  EXPECT_EQ(channelized, 4);  // avg_pool, flatten, fc, softmax

  // Functional results still match the reference.
  auto r = hybrid.Run(*image_, /*functional=*/true);
  const Tensor expected =
      graph::Execute(*net_, *image_, HardwareThreads());
  EXPECT_TRUE(Tensor::AllClose(r.output.Reshaped(expected.shape()), expected,
                               1e-3f, 1e-4f));

  // And the hybrid removes tail dispatch overhead: never slower.
  EXPECT_GE(hybrid.EstimateFps(*image_),
            0.99 * folded.EstimateFps(*image_));
}

TEST_F(LeNetDeployment, PipelinedBeatsFoldedOnSmallNetworks) {
  // Ch. 3's mode-selection claim, small-network half: with everything
  // on-chip, layer pipelining beats sequential global-memory execution.
  auto pipelined = Deploy(PipelineTvmAutorun(), fpga::Stratix10SX(), true);

  DeployOptions o;
  o.mode = ExecutionMode::kFolded;
  o.recipe = FoldedBase();
  o.recipe.name = "Folded-Optimized-LeNet";
  o.recipe.fuse_and_cache = true;
  o.recipe.unroll = true;  // same kernel optimizations, no channels
  o.board = fpga::Stratix10SX();
  auto folded = Deployment::Compile(*net_, o);
  ASSERT_TRUE(folded.ok()) << folded.bitstream().status_detail;

  // Throughputs are comparable (LeNet is tiny either way)...
  EXPECT_GT(pipelined.EstimateFps(*image_),
            0.8 * folded.EstimateFps(*image_));
  // ...but pipelining eliminates nearly all global activation traffic:
  // that headroom is what the paper's larger pipelined speedups come from.
  auto traffic = [](const Deployment& d) {
    double bytes = 0;
    for (const auto& inv : d.invocations()) {
      bytes += inv.stats.global_bytes_read + inv.stats.global_bytes_written;
    }
    return bytes;
  };
  EXPECT_LT(traffic(pipelined), 0.5 * traffic(folded));
}

TEST_F(MobileNetDeployment, PipelinedDoesNotFitLargeNetworks) {
  // Ch. 3's mode-selection claim, large-network half: pipelining needs
  // every layer's activations in on-chip buffers, which exhausts BRAM for
  // ImageNet-scale feature maps ("this limits deployment to relatively
  // small networks").
  core::DeployOptions o;
  o.mode = core::ExecutionMode::kPipelined;
  o.recipe = core::PipelineAutorun();
  o.board = fpga::Stratix10SX();  // even the largest board
  auto d = core::Deployment::Compile(*net_, o);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.bitstream().status, fpga::SynthStatus::kFitError);
  EXPECT_NE(d.bitstream().status_detail.find("RAM"), std::string::npos);
}

TEST(ResNetDeployment, SynthesisOutcomesMatchPaper) {
  Rng rng(79);
  graph::Graph net = nets::BuildResNet(18, rng);
  DeployOptions o;
  o.mode = ExecutionMode::kFolded;
  o.recipe = FoldedResNet();

  // Fits (and runs) on both Stratix 10s...
  o.board = fpga::Stratix10SX();
  auto sx = Deployment::Compile(net, o);
  EXPECT_TRUE(sx.ok()) << sx.bitstream().status_detail;
  o.board = fpga::Stratix10MX();
  auto mx = Deployment::Compile(net, o);
  EXPECT_TRUE(mx.ok()) << mx.bitstream().status_detail;
  // ...but never on the Arria 10 (Table 6.14: "na").
  o.board = fpga::Arria10();
  auto a10 = Deployment::Compile(net, o);
  EXPECT_FALSE(a10.ok());
  o.recipe = FoldedBase();
  auto a10_base = Deployment::Compile(net, o);
  EXPECT_FALSE(a10_base.ok());
}

TEST(ResNetDeployment, ResNet34SlowerThanResNet18) {
  Rng rng(80);
  graph::Graph r18 = nets::BuildResNet(18, rng);
  graph::Graph r34 = nets::BuildResNet(34, rng);
  DeployOptions o;
  o.mode = ExecutionMode::kFolded;
  o.recipe = FoldedResNet();
  o.board = fpga::Stratix10SX();
  auto d18 = Deployment::Compile(r18, o);
  auto d34 = Deployment::Compile(r34, o);
  Rng img_rng(81);
  Tensor image = nets::SyntheticImagenetImage(img_rng);
  const double fps18 = d18.EstimateFps(image);
  const double fps34 = d34.EstimateFps(image);
  EXPECT_GT(fps18, 1.3 * fps34);
  // Both use the same kernel set; ResNet-34 just invokes it more.
  EXPECT_EQ(d18.kernels().size(), d34.kernels().size());
  EXPECT_GT(d34.invocations().size(), d18.invocations().size());
}

}  // namespace
}  // namespace clflow::core
