// Reference CPU operators.
//
// These are the functional oracle for every experiment: FPGA-simulated
// outputs are validated against them, and they double as the "TVM-nT"
// real-machine data points (threaded direct implementations, matching the
// paper's use of TVM's LLVM backend with an explicit thread count).
//
// All operators take batch-1 NCHW tensors, mirroring the paper's
// single-image inference assumption (§2.1.2: N = 1).
#pragma once

#include <cstdint>

#include "common/activation.hpp"
#include "tensor/tensor.hpp"

namespace clflow::cpu {

struct Conv2dParams {
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  Activation activation = Activation::kNone;
};

/// Standard convolution. input [1,C1,H,W] (x) weights [K,C1,F,F] -> [1,K,H2,W2].
/// bias may be undefined (no bias). Throws ShapeError on mismatch.
///
/// Conv2d/DepthwiseConv2d/Dense run an 8-wide SIMD path (portable
/// GCC/Clang vector extensions) when available: one vector lane per
/// output element, each lane accumulating in exactly the scalar loop's
/// order, so results are bit-identical to the *Scalar variants. Conv2d
/// blocks 4 output channels per register tile so each loaded input vector
/// feeds 4 outputs, and runs a pointwise (1x1, stride 1, pad 0) conv over
/// the flattened H*W axis. The *Scalar variants keep the plain loops as
/// the oracle the SIMD path is tested (and benchmarked) against.
[[nodiscard]] Tensor Conv2d(const Tensor& input, const Tensor& weights,
                            const Tensor& bias, const Conv2dParams& params,
                            int num_threads = 1);
[[nodiscard]] Tensor Conv2dScalar(const Tensor& input, const Tensor& weights,
                                  const Tensor& bias,
                                  const Conv2dParams& params,
                                  int num_threads = 1);

/// Depthwise convolution. weights [C,1,F,F]; one filter per input channel.
[[nodiscard]] Tensor DepthwiseConv2d(const Tensor& input,
                                     const Tensor& weights, const Tensor& bias,
                                     const Conv2dParams& params,
                                     int num_threads = 1);
[[nodiscard]] Tensor DepthwiseConv2dScalar(const Tensor& input,
                                           const Tensor& weights,
                                           const Tensor& bias,
                                           const Conv2dParams& params,
                                           int num_threads = 1);

/// Fully-connected layer. input [1,C1] (or any shape with C1 elements,
/// flattened) (x) weights [C2,C1] + bias [C2] -> [1,C2].
[[nodiscard]] Tensor Dense(const Tensor& input, const Tensor& weights,
                           const Tensor& bias, Activation activation,
                           int num_threads = 1);
[[nodiscard]] Tensor DenseScalar(const Tensor& input, const Tensor& weights,
                                 const Tensor& bias, Activation activation,
                                 int num_threads = 1);

struct PoolParams {
  std::int64_t window = 2;
  std::int64_t stride = 2;
  std::int64_t pad = 0;
};

[[nodiscard]] Tensor MaxPool2d(const Tensor& input, const PoolParams& params,
                               int num_threads = 1);
[[nodiscard]] Tensor AvgPool2d(const Tensor& input, const PoolParams& params,
                               int num_threads = 1);

/// Zero padding on H and W of an NCHW tensor.
[[nodiscard]] Tensor Pad2d(const Tensor& input, std::int64_t pad);

/// Element-wise activation over a whole tensor.
[[nodiscard]] Tensor Activate(const Tensor& input, Activation activation);

/// Element-wise sum (residual shortcut); shapes must match.
[[nodiscard]] Tensor Add(const Tensor& a, const Tensor& b,
                         Activation activation = Activation::kNone);

/// Numerically stabilized softmax over the last axis of a rank-1/2 tensor.
[[nodiscard]] Tensor Softmax(const Tensor& input);

/// Winograd F(2x2, 3x3) convolution: computes the same result as Conv2d
/// for 3x3/stride-1 kernels with 2.25x fewer multiplications (the
/// transform behind DiCecco et al.'s engine, which the paper compares
/// against in SS6.6 -- and explains why pointwise convolutions cannot
/// benefit). Output spatial extents must be even; use Conv2d otherwise.
[[nodiscard]] Tensor Conv2dWinograd(const Tensor& input,
                                    const Tensor& weights, const Tensor& bias,
                                    Activation activation,
                                    int num_threads = 1);

/// Folds inference-mode batch norm (gamma, beta, mean, var) into
/// per-output-channel scale/shift applied to conv weights and bias,
/// returning {folded_weights, folded_bias}. This is how the paper's flow
/// handles batch norm: fused into the preceding convolution (§3.1).
struct FoldedBatchNorm {
  Tensor weights;
  Tensor bias;
};
[[nodiscard]] FoldedBatchNorm FoldBatchNorm(const Tensor& weights,
                                            const Tensor& bias,
                                            const Tensor& gamma,
                                            const Tensor& beta,
                                            const Tensor& mean,
                                            const Tensor& variance,
                                            float epsilon = 1e-5f);

}  // namespace clflow::cpu
