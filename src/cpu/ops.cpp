#include "cpu/ops.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"

// Portable 8-wide SIMD via GCC/Clang vector extensions; other compilers
// fall back to the scalar loops. Lane-per-output vectorization: lane l
// computes output element base+l, accumulating terms in exactly the order
// the scalar loop would, so the SIMD results are bit-identical to the
// *Scalar oracles (adding a 0.0f term for a padded tap is a bitwise no-op
// because the accumulator can never be -0.0: +0 + -0 == +0).
#if defined(__GNUC__) || defined(__clang__)
#define CLFLOW_CPU_SIMD 1
#else
#define CLFLOW_CPU_SIMD 0
#endif

namespace clflow::cpu {

namespace {

void CheckNchw(const Tensor& t, const char* what) {
  if (!t.defined() || t.shape().rank() != 4 || t.shape().batch() != 1) {
    throw ShapeError(std::string(what) + " must be a defined [1,C,H,W] tensor");
  }
}

/// Validated shape parameters shared by the scalar and SIMD conv paths.
struct Conv2dDims {
  std::int64_t c1, h1, w1, k, f, h2, w2;
};

Conv2dDims CheckConv2dShapes(const Tensor& input, const Tensor& weights,
                             const Tensor& bias, const Conv2dParams& params) {
  CheckNchw(input, "conv2d input");
  if (weights.shape().rank() != 4) throw ShapeError("conv2d weights not rank-4");
  Conv2dDims d;
  d.c1 = input.shape().channels();
  d.h1 = input.shape().height();
  d.w1 = input.shape().width();
  d.k = weights.shape()[0];
  d.f = weights.shape()[2];
  if (weights.shape()[1] != d.c1 || weights.shape()[3] != d.f) {
    throw ShapeError("conv2d weights shape mismatch: weights " +
                     weights.shape().ToString() + " vs input " +
                     input.shape().ToString());
  }
  if (bias.defined() && bias.size() != d.k) {
    throw ShapeError("conv2d bias size mismatch");
  }
  d.h2 = ConvOutDim(d.h1, d.f, params.stride, params.pad);
  d.w2 = ConvOutDim(d.w1, d.f, params.stride, params.pad);
  return d;
}

struct DepthwiseDims {
  std::int64_t c, h1, w1, f, h2, w2;
};

DepthwiseDims CheckDepthwiseShapes(const Tensor& input, const Tensor& weights,
                                   const Tensor& bias,
                                   const Conv2dParams& params) {
  CheckNchw(input, "depthwise conv input");
  if (weights.shape().rank() != 4 || weights.shape()[1] != 1) {
    throw ShapeError("depthwise weights must be [C,1,F,F]");
  }
  DepthwiseDims d;
  d.c = input.shape().channels();
  d.h1 = input.shape().height();
  d.w1 = input.shape().width();
  d.f = weights.shape()[2];
  if (weights.shape()[0] != d.c || weights.shape()[3] != d.f) {
    throw ShapeError("depthwise weights shape mismatch");
  }
  if (bias.defined() && bias.size() != d.c) {
    throw ShapeError("depthwise bias size mismatch");
  }
  d.h2 = ConvOutDim(d.h1, d.f, params.stride, params.pad);
  d.w2 = ConvOutDim(d.w1, d.f, params.stride, params.pad);
  return d;
}

struct DenseDims {
  std::int64_t c1, c2;
};

DenseDims CheckDenseShapes(const Tensor& input, const Tensor& weights,
                           const Tensor& bias) {
  if (!input.defined() || weights.shape().rank() != 2) {
    throw ShapeError("dense expects defined input and rank-2 weights");
  }
  DenseDims d;
  d.c2 = weights.shape()[0];
  d.c1 = weights.shape()[1];
  if (input.size() != d.c1) {
    throw ShapeError("dense input size " + std::to_string(input.size()) +
                     " != weights C1 " + std::to_string(d.c1));
  }
  if (bias.defined() && bias.size() != d.c2) {
    throw ShapeError("dense bias size mismatch");
  }
  return d;
}

#if CLFLOW_CPU_SIMD

typedef float V8f __attribute__((vector_size(32)));
constexpr std::int64_t kLanes = 8;

inline V8f BroadcastV8(float v) { return V8f{v, v, v, v, v, v, v, v}; }

/// 8 input taps for output columns base..base+7 at filter column fx:
/// lane l reads ix = (base + l) * stride + fx - pad, or 0.0f when the tap
/// falls outside the row (a bitwise no-op on the accumulator; see above).
/// Only border tiles pay the per-lane bounds check.
inline V8f LoadTaps(const float* in_row, std::int64_t w1, std::int64_t base_ix,
                    std::int64_t stride) {
  V8f v;
  if (base_ix >= 0 && base_ix + (kLanes - 1) * stride < w1) {
    if (stride == 1) {
      std::memcpy(&v, in_row + base_ix, sizeof(v));
    } else {
      const float* src = in_row + base_ix;
      v = V8f{src[0],          src[stride],     src[2 * stride],
              src[3 * stride], src[4 * stride], src[5 * stride],
              src[6 * stride], src[7 * stride]};
    }
    return v;
  }
  alignas(32) float tmp[kLanes];
  for (std::int64_t l = 0; l < kLanes; ++l) {
    const std::int64_t ix = base_ix + l * stride;
    tmp[l] = (ix >= 0 && ix < w1) ? in_row[ix] : 0.0f;
  }
  std::memcpy(&v, tmp, sizeof(v));
  return v;
}

/// Output channels per register tile of the conv kernels: every input
/// vector a tile loads feeds this many accumulators.
constexpr std::int64_t kOcBlock = 4;

/// First filter of each row of a kOcBlock tile starting at channel oc0.
/// Rows past the last channel alias the last real filter; their sums are
/// computed and discarded, so a tail block runs the same code.
inline std::array<const float*, kOcBlock> TileFilters(
    const float* w, std::int64_t oc0, std::int64_t k,
    std::int64_t filter_size) {
  std::array<const float*, kOcBlock> rows;
  for (std::int64_t j = 0; j < kOcBlock; ++j) {
    rows[static_cast<std::size_t>(j)] =
        w + std::min(oc0 + j, k - 1) * filter_size;
  }
  return rows;
}

/// Bias + activation + store for one 8-lane tile of outputs, applied
/// per lane with the same scalar ApplyActivation as the oracle.
inline void StoreLanes(float* dst, std::int64_t n, V8f acc, const float* bias,
                       Activation act) {
  alignas(32) float tmp[kLanes];
  std::memcpy(tmp, &acc, sizeof(tmp));
  for (std::int64_t l = 0; l < n; ++l) {
    float v = tmp[l];
    if (bias != nullptr) v += *bias;
    dst[l] = ApplyActivation(act, v);
  }
}

/// A pointwise (1x1, stride 1, pad 0) conv seen as the product
/// W[K,C1] x X[C1,N] over the flattened pixel axis N = H*W.
struct PointwiseProblem {
  const float* in;
  const float* w;
  float* out;
  const float* bias;  // nullptr: no bias
  std::int64_t c1, k, n;
  Activation act;
};

constexpr std::int64_t kPxTile = 2 * kLanes;

/// One kOcBlock-channel x 16-pixel tile of a pointwise conv, held in 8
/// accumulators: per input channel, two input vectors and four weight
/// broadcasts. The last tile of a row of X (fewer than 16 pixels) reads
/// through a zero-filled buffer and stores only the pixels that exist.
template <bool kFullTile>
void PointwiseTile(const PointwiseProblem& pw, std::int64_t oc0,
                   std::int64_t p0) {
  const auto filt = TileFilters(pw.w, oc0, pw.k, pw.c1);
  const std::int64_t np = kFullTile ? kPxTile : pw.n - p0;
  V8f a00{}, a01{}, a10{}, a11{}, a20{}, a21{}, a30{}, a31{};
  for (std::int64_t ic = 0; ic < pw.c1; ++ic) {
    const float* src = pw.in + ic * pw.n + p0;
    V8f x0, x1;
    if constexpr (kFullTile) {
      std::memcpy(&x0, src, sizeof(x0));
      std::memcpy(&x1, src + kLanes, sizeof(x1));
    } else {
      alignas(32) float tmp[kPxTile] = {};
      std::memcpy(tmp, src, static_cast<std::size_t>(np) * sizeof(float));
      std::memcpy(&x0, tmp, sizeof(x0));
      std::memcpy(&x1, tmp + kLanes, sizeof(x1));
    }
    const V8f w0 = BroadcastV8(filt[0][ic]);
    const V8f w1 = BroadcastV8(filt[1][ic]);
    const V8f w2 = BroadcastV8(filt[2][ic]);
    const V8f w3 = BroadcastV8(filt[3][ic]);
    a00 += x0 * w0;
    a01 += x1 * w0;
    a10 += x0 * w1;
    a11 += x1 * w1;
    a20 += x0 * w2;
    a21 += x1 * w2;
    a30 += x0 * w3;
    a31 += x1 * w3;
  }
  const V8f acc[kOcBlock][2] = {{a00, a01}, {a10, a11}, {a20, a21},
                                {a30, a31}};
  const std::int64_t rows = std::min(kOcBlock, pw.k - oc0);
  for (std::int64_t j = 0; j < rows; ++j) {
    float* dst = pw.out + (oc0 + j) * pw.n + p0;
    const float* b = pw.bias != nullptr ? pw.bias + oc0 + j : nullptr;
    StoreLanes(dst, std::min(kLanes, np), acc[j][0], b, pw.act);
    if (np > kLanes) {
      StoreLanes(dst + kLanes, np - kLanes, acc[j][1], b, pw.act);
    }
  }
}

#endif  // CLFLOW_CPU_SIMD

}  // namespace

Tensor Conv2dScalar(const Tensor& input, const Tensor& weights,
                    const Tensor& bias, const Conv2dParams& params,
                    int num_threads) {
  const auto [c1, h1, w1, k, f, h2, w2] =
      CheckConv2dShapes(input, weights, bias, params);

  Tensor out(Shape{1, k, h2, w2});
  const auto in = input.data();
  const auto w = weights.data();
  auto o = out.data();
  const float* b = bias.defined() ? bias.data().data() : nullptr;
  const std::int64_t s = params.stride;
  const std::int64_t p = params.pad;
  const Activation act = params.activation;

  ParallelFor(0, k, num_threads, [&](std::int64_t oc) {
    for (std::int64_t oy = 0; oy < h2; ++oy) {
      for (std::int64_t ox = 0; ox < w2; ++ox) {
        float acc = 0.0f;
        for (std::int64_t ic = 0; ic < c1; ++ic) {
          for (std::int64_t fy = 0; fy < f; ++fy) {
            const std::int64_t iy = oy * s + fy - p;
            if (iy < 0 || iy >= h1) continue;
            const float* in_row = in.data() + (ic * h1 + iy) * w1;
            const float* w_row = w.data() + ((oc * c1 + ic) * f + fy) * f;
            for (std::int64_t fx = 0; fx < f; ++fx) {
              const std::int64_t ix = ox * s + fx - p;
              if (ix < 0 || ix >= w1) continue;
              acc += in_row[ix] * w_row[fx];
            }
          }
        }
        if (b != nullptr) acc += b[oc];
        o[(oc * h2 + oy) * w2 + ox] = ApplyActivation(act, acc);
      }
    }
  });
  return out;
}

Tensor Conv2d(const Tensor& input, const Tensor& weights, const Tensor& bias,
              const Conv2dParams& params, int num_threads) {
#if !CLFLOW_CPU_SIMD
  return Conv2dScalar(input, weights, bias, params, num_threads);
#else
  const auto [c1, h1, w1, k, f, h2, w2] =
      CheckConv2dShapes(input, weights, bias, params);

  Tensor out(Shape{1, k, h2, w2});
  const auto in = input.data();
  const auto w = weights.data();
  auto o = out.data();
  const float* b = bias.defined() ? bias.data().data() : nullptr;
  const std::int64_t s = params.stride;
  const std::int64_t p = params.pad;
  const Activation act = params.activation;
  const std::int64_t oc_blocks = (k + kOcBlock - 1) / kOcBlock;

  if (f == 1 && s == 1 && p == 0) {
    const PointwiseProblem pw{in.data(), w.data(), o.data(), b,
                              c1,        k,        h2 * w2,  act};
    const std::int64_t full_tiles = pw.n / kPxTile;
    ParallelFor(0, oc_blocks, num_threads, [&](std::int64_t blk) {
      const std::int64_t oc0 = blk * kOcBlock;
      for (std::int64_t t = 0; t < full_tiles; ++t) {
        PointwiseTile<true>(pw, oc0, t * kPxTile);
      }
      if (full_tiles * kPxTile < pw.n) {
        PointwiseTile<false>(pw, oc0, full_tiles * kPxTile);
      }
    });
    return out;
  }

  // kOcBlock output channels x 8 adjacent output columns per tile: each
  // tap vector feeds one accumulator per channel. The last tile of a row
  // computes a full vector but stores only the lanes that exist.
  const std::int64_t filter_size = c1 * f * f;
  ParallelFor(0, oc_blocks, num_threads, [&](std::int64_t blk) {
    const std::int64_t oc0 = blk * kOcBlock;
    const std::int64_t rows = std::min(kOcBlock, k - oc0);
    const auto filt = TileFilters(w.data(), oc0, k, filter_size);
    for (std::int64_t oy = 0; oy < h2; ++oy) {
      for (std::int64_t ox = 0; ox < w2; ox += kLanes) {
        V8f a0{}, a1{}, a2{}, a3{};
        for (std::int64_t ic = 0; ic < c1; ++ic) {
          for (std::int64_t fy = 0; fy < f; ++fy) {
            const std::int64_t iy = oy * s + fy - p;
            if (iy < 0 || iy >= h1) continue;
            const float* in_row = in.data() + (ic * h1 + iy) * w1;
            const std::int64_t tap0 = (ic * f + fy) * f;
            for (std::int64_t fx = 0; fx < f; ++fx) {
              const V8f taps = LoadTaps(in_row, w1, ox * s + fx - p, s);
              a0 += taps * BroadcastV8(filt[0][tap0 + fx]);
              a1 += taps * BroadcastV8(filt[1][tap0 + fx]);
              a2 += taps * BroadcastV8(filt[2][tap0 + fx]);
              a3 += taps * BroadcastV8(filt[3][tap0 + fx]);
            }
          }
        }
        const V8f acc[kOcBlock] = {a0, a1, a2, a3};
        for (std::int64_t j = 0; j < rows; ++j) {
          StoreLanes(o.data() + ((oc0 + j) * h2 + oy) * w2 + ox,
                     std::min(kLanes, w2 - ox), acc[j],
                     b != nullptr ? b + oc0 + j : nullptr, act);
        }
      }
    }
  });
  return out;
#endif
}

Tensor DepthwiseConv2dScalar(const Tensor& input, const Tensor& weights,
                             const Tensor& bias, const Conv2dParams& params,
                             int num_threads) {
  const auto [c, h1, w1, f, h2, w2] =
      CheckDepthwiseShapes(input, weights, bias, params);

  Tensor out(Shape{1, c, h2, w2});
  const auto in = input.data();
  const auto w = weights.data();
  auto o = out.data();
  const float* b = bias.defined() ? bias.data().data() : nullptr;
  const std::int64_t s = params.stride;
  const std::int64_t p = params.pad;
  const Activation act = params.activation;

  ParallelFor(0, c, num_threads, [&](std::int64_t ch) {
    for (std::int64_t oy = 0; oy < h2; ++oy) {
      for (std::int64_t ox = 0; ox < w2; ++ox) {
        float acc = 0.0f;
        for (std::int64_t fy = 0; fy < f; ++fy) {
          const std::int64_t iy = oy * s + fy - p;
          if (iy < 0 || iy >= h1) continue;
          const float* in_row = in.data() + (ch * h1 + iy) * w1;
          const float* w_row = w.data() + (ch * f + fy) * f;
          for (std::int64_t fx = 0; fx < f; ++fx) {
            const std::int64_t ix = ox * s + fx - p;
            if (ix < 0 || ix >= w1) continue;
            acc += in_row[ix] * w_row[fx];
          }
        }
        if (b != nullptr) acc += b[ch];
        o[(ch * h2 + oy) * w2 + ox] = ApplyActivation(act, acc);
      }
    }
  });
  return out;
}

Tensor DepthwiseConv2d(const Tensor& input, const Tensor& weights,
                       const Tensor& bias, const Conv2dParams& params,
                       int num_threads) {
#if !CLFLOW_CPU_SIMD
  return DepthwiseConv2dScalar(input, weights, bias, params, num_threads);
#else
  const auto [c, h1, w1, f, h2, w2] =
      CheckDepthwiseShapes(input, weights, bias, params);

  Tensor out(Shape{1, c, h2, w2});
  const auto in = input.data();
  const auto w = weights.data();
  auto o = out.data();
  const float* b = bias.defined() ? bias.data().data() : nullptr;
  const std::int64_t s = params.stride;
  const std::int64_t p = params.pad;
  const Activation act = params.activation;

  ParallelFor(0, c, num_threads, [&](std::int64_t ch) {
    for (std::int64_t oy = 0; oy < h2; ++oy) {
      for (std::int64_t ox = 0; ox < w2; ox += kLanes) {
        V8f acc = BroadcastV8(0.0f);
        for (std::int64_t fy = 0; fy < f; ++fy) {
          const std::int64_t iy = oy * s + fy - p;
          if (iy < 0 || iy >= h1) continue;
          const float* in_row = in.data() + (ch * h1 + iy) * w1;
          const float* w_row = w.data() + (ch * f + fy) * f;
          for (std::int64_t fx = 0; fx < f; ++fx) {
            const V8f taps = LoadTaps(in_row, w1, ox * s + fx - p, s);
            acc += taps * BroadcastV8(w_row[fx]);
          }
        }
        StoreLanes(o.data() + (ch * h2 + oy) * w2 + ox,
                   std::min<std::int64_t>(kLanes, w2 - ox), acc,
                   b != nullptr ? b + ch : nullptr, act);
      }
    }
  });
  return out;
#endif
}

Tensor DenseScalar(const Tensor& input, const Tensor& weights,
                   const Tensor& bias, Activation activation,
                   int num_threads) {
  const auto [c1, c2] = CheckDenseShapes(input, weights, bias);

  Tensor out(Shape{1, c2});
  const auto in = input.data();
  const auto w = weights.data();
  auto o = out.data();
  const float* b = bias.defined() ? bias.data().data() : nullptr;

  ParallelFor(0, c2, num_threads, [&](std::int64_t j) {
    const float* w_row = w.data() + j * c1;
    float acc = 0.0f;
    for (std::int64_t i = 0; i < c1; ++i) acc += in[static_cast<std::size_t>(i)] * w_row[i];
    if (b != nullptr) acc += b[j];
    o[static_cast<std::size_t>(j)] = ApplyActivation(activation, acc);
  });
  return out;
}

Tensor Dense(const Tensor& input, const Tensor& weights, const Tensor& bias,
             Activation activation, int num_threads) {
#if !CLFLOW_CPU_SIMD
  return DenseScalar(input, weights, bias, activation, num_threads);
#else
  const auto [c1, c2] = CheckDenseShapes(input, weights, bias);

  Tensor out(Shape{1, c2});
  const auto in = input.data();
  const auto w = weights.data();
  auto o = out.data();
  const float* b = bias.defined() ? bias.data().data() : nullptr;

  // Lane-per-output-neuron: 8 weight rows walk forward together, sharing
  // one broadcast of in[i] per step. This also breaks the scalar
  // version's single add-latency chain: one vector chain now carries 8
  // outputs.
  const std::int64_t blocks = (c2 + kLanes - 1) / kLanes;
  ParallelFor(0, blocks, num_threads, [&](std::int64_t blk) {
    const std::int64_t j0 = blk * kLanes;
    const std::int64_t n = std::min<std::int64_t>(kLanes, c2 - j0);
    if (n == kLanes) {
      const float* r0 = w.data() + (j0 + 0) * c1;
      const float* r1 = w.data() + (j0 + 1) * c1;
      const float* r2 = w.data() + (j0 + 2) * c1;
      const float* r3 = w.data() + (j0 + 3) * c1;
      const float* r4 = w.data() + (j0 + 4) * c1;
      const float* r5 = w.data() + (j0 + 5) * c1;
      const float* r6 = w.data() + (j0 + 6) * c1;
      const float* r7 = w.data() + (j0 + 7) * c1;
      V8f acc = BroadcastV8(0.0f);
      for (std::int64_t i = 0; i < c1; ++i) {
        const V8f wv = {r0[i], r1[i], r2[i], r3[i],
                        r4[i], r5[i], r6[i], r7[i]};
        acc += BroadcastV8(in[static_cast<std::size_t>(i)]) * wv;
      }
      alignas(32) float tmp[kLanes];
      std::memcpy(tmp, &acc, sizeof(tmp));
      for (std::int64_t l = 0; l < kLanes; ++l) {
        float v = tmp[l];
        if (b != nullptr) v += b[j0 + l];
        o[static_cast<std::size_t>(j0 + l)] = ApplyActivation(activation, v);
      }
    } else {
      for (std::int64_t j = j0; j < j0 + n; ++j) {
        const float* w_row = w.data() + j * c1;
        float acc = 0.0f;
        for (std::int64_t i = 0; i < c1; ++i) {
          acc += in[static_cast<std::size_t>(i)] * w_row[i];
        }
        if (b != nullptr) acc += b[j];
        o[static_cast<std::size_t>(j)] = ApplyActivation(activation, acc);
      }
    }
  });
  return out;
#endif
}

namespace {

template <typename Reduce>
Tensor Pool2dImpl(const Tensor& input, const PoolParams& params,
                  int num_threads, Reduce reduce, bool average) {
  CheckNchw(input, "pool input");
  const std::int64_t c = input.shape().channels();
  const std::int64_t h1 = input.shape().height();
  const std::int64_t w1 = input.shape().width();
  const std::int64_t f = params.window;
  const std::int64_t h2 = ConvOutDim(h1, f, params.stride, params.pad);
  const std::int64_t w2 = ConvOutDim(w1, f, params.stride, params.pad);

  Tensor out(Shape{1, c, h2, w2});
  const auto in = input.data();
  auto o = out.data();

  ParallelFor(0, c, num_threads, [&](std::int64_t ch) {
    for (std::int64_t oy = 0; oy < h2; ++oy) {
      for (std::int64_t ox = 0; ox < w2; ++ox) {
        float acc = average ? 0.0f : -std::numeric_limits<float>::infinity();
        std::int64_t count = 0;
        for (std::int64_t fy = 0; fy < f; ++fy) {
          const std::int64_t iy = oy * params.stride + fy - params.pad;
          if (iy < 0 || iy >= h1) continue;
          for (std::int64_t fx = 0; fx < f; ++fx) {
            const std::int64_t ix = ox * params.stride + fx - params.pad;
            if (ix < 0 || ix >= w1) continue;
            acc = reduce(acc, in[(ch * h1 + iy) * w1 + ix]);
            ++count;
          }
        }
        if (average && count > 0) acc /= static_cast<float>(count);
        o[(ch * h2 + oy) * w2 + ox] = acc;
      }
    }
  });
  return out;
}

}  // namespace

Tensor MaxPool2d(const Tensor& input, const PoolParams& params,
                 int num_threads) {
  return Pool2dImpl(
      input, params, num_threads,
      [](float a, float b) { return std::max(a, b); }, /*average=*/false);
}

Tensor AvgPool2d(const Tensor& input, const PoolParams& params,
                 int num_threads) {
  return Pool2dImpl(
      input, params, num_threads, [](float a, float b) { return a + b; },
      /*average=*/true);
}

Tensor Pad2d(const Tensor& input, std::int64_t pad) {
  CheckNchw(input, "pad input");
  CLFLOW_CHECK_MSG(pad >= 0, "negative padding");
  if (pad == 0) return input;
  const std::int64_t c = input.shape().channels();
  const std::int64_t h1 = input.shape().height();
  const std::int64_t w1 = input.shape().width();
  Tensor out(Shape{1, c, h1 + 2 * pad, w1 + 2 * pad});
  const auto in = input.data();
  auto o = out.data();
  const std::int64_t h2 = h1 + 2 * pad;
  const std::int64_t w2 = w1 + 2 * pad;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t y = 0; y < h1; ++y) {
      const float* src = in.data() + (ch * h1 + y) * w1;
      float* dst = o.data() + (ch * h2 + y + pad) * w2 + pad;
      std::copy(src, src + w1, dst);
    }
  }
  return out;
}

Tensor Activate(const Tensor& input, Activation activation) {
  Tensor out = input.Clone();
  for (auto& v : out.data()) v = ApplyActivation(activation, v);
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b, Activation activation) {
  if (a.shape() != b.shape()) {
    throw ShapeError("residual add shape mismatch: " + a.shape().ToString() +
                     " vs " + b.shape().ToString());
  }
  Tensor out(a.shape());
  const auto da = a.data(), db = b.data();
  auto o = out.data();
  for (std::size_t i = 0; i < da.size(); ++i)
    o[i] = ApplyActivation(activation, da[i] + db[i]);
  return out;
}

Tensor Softmax(const Tensor& input) {
  CLFLOW_CHECK_MSG(input.defined() && input.size() > 0, "softmax on empty");
  Tensor out(input.shape());
  const auto in = input.data();
  auto o = out.data();
  // Max-subtraction for numerical stability, as TVM does (§2.1.2).
  const float max_v = *std::max_element(in.begin(), in.end());
  float sum = 0.0f;
  for (std::size_t i = 0; i < in.size(); ++i) {
    o[i] = std::exp(in[i] - max_v);
    sum += o[i];
  }
  for (auto& v : o) v /= sum;
  return out;
}

Tensor Conv2dWinograd(const Tensor& input, const Tensor& weights,
                      const Tensor& bias, Activation activation,
                      int num_threads) {
  CheckNchw(input, "winograd input");
  if (weights.shape().rank() != 4 || weights.shape()[2] != 3 ||
      weights.shape()[3] != 3) {
    throw ShapeError("winograd requires 3x3 weights");
  }
  const std::int64_t c1 = input.shape().channels();
  const std::int64_t h1 = input.shape().height();
  const std::int64_t w1 = input.shape().width();
  const std::int64_t k = weights.shape()[0];
  if (weights.shape()[1] != c1) throw ShapeError("winograd channel mismatch");
  const std::int64_t h2 = h1 - 2, w2 = w1 - 2;  // stride 1, pad 0
  if (h2 <= 0 || w2 <= 0 || h2 % 2 != 0 || w2 % 2 != 0) {
    throw ShapeError("winograd F(2,3) needs even output extents");
  }
  if (bias.defined() && bias.size() != k) {
    throw ShapeError("winograd bias size mismatch");
  }

  // Pre-transform all filters: U = G g G^T, with
  // G = [[1,0,0],[1/2,1/2,1/2],[1/2,-1/2,1/2],[0,0,1]] (4x3).
  std::vector<float> u(static_cast<std::size_t>(k * c1 * 16));
  {
    const auto w = weights.data();
    for (std::int64_t oc = 0; oc < k; ++oc) {
      for (std::int64_t ic = 0; ic < c1; ++ic) {
        const float* g = w.data() + (oc * c1 + ic) * 9;
        float tmp[4][3];
        for (int col = 0; col < 3; ++col) {
          const float g0 = g[col], g1 = g[3 + col], g2 = g[6 + col];
          tmp[0][col] = g0;
          tmp[1][col] = 0.5f * (g0 + g1 + g2);
          tmp[2][col] = 0.5f * (g0 - g1 + g2);
          tmp[3][col] = g2;
        }
        float* uu = u.data() + (oc * c1 + ic) * 16;
        for (int row = 0; row < 4; ++row) {
          const float t0 = tmp[row][0], t1 = tmp[row][1], t2 = tmp[row][2];
          uu[row * 4 + 0] = t0;
          uu[row * 4 + 1] = 0.5f * (t0 + t1 + t2);
          uu[row * 4 + 2] = 0.5f * (t0 - t1 + t2);
          uu[row * 4 + 3] = t2;
        }
      }
    }
  }

  Tensor out(Shape{1, k, h2, w2});
  const auto in = input.data();
  auto o = out.data();
  const float* b = bias.defined() ? bias.data().data() : nullptr;

  ParallelFor(0, k, num_threads, [&](std::int64_t oc) {
    for (std::int64_t ty = 0; ty < h2 / 2; ++ty) {
      for (std::int64_t tx = 0; tx < w2 / 2; ++tx) {
        // Accumulate the element-wise products in the transform domain
        // across input channels, then inverse-transform once per tile.
        float m[16] = {};
        for (std::int64_t ic = 0; ic < c1; ++ic) {
          // d = 4x4 input tile at (2*ty, 2*tx).
          float d[4][4];
          for (int r = 0; r < 4; ++r) {
            const float* row =
                in.data() + (ic * h1 + (2 * ty + r)) * w1 + 2 * tx;
            d[r][0] = row[0];
            d[r][1] = row[1];
            d[r][2] = row[2];
            d[r][3] = row[3];
          }
          // V = B^T d B with B^T = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],
          //                         [0,1,0,-1]].
          float bd[4][4];
          for (int col = 0; col < 4; ++col) {
            bd[0][col] = d[0][col] - d[2][col];
            bd[1][col] = d[1][col] + d[2][col];
            bd[2][col] = -d[1][col] + d[2][col];
            bd[3][col] = d[1][col] - d[3][col];
          }
          float v[16];
          for (int row = 0; row < 4; ++row) {
            v[row * 4 + 0] = bd[row][0] - bd[row][2];
            v[row * 4 + 1] = bd[row][1] + bd[row][2];
            v[row * 4 + 2] = -bd[row][1] + bd[row][2];
            v[row * 4 + 3] = bd[row][1] - bd[row][3];
          }
          const float* uu = u.data() + (oc * c1 + ic) * 16;
          for (int i = 0; i < 16; ++i) m[i] += uu[i] * v[i];
        }
        // Y = A^T m A with A^T = [[1,1,1,0],[0,1,-1,-1]].
        float am[2][4];
        for (int col = 0; col < 4; ++col) {
          am[0][col] = m[col] + m[4 + col] + m[8 + col];
          am[1][col] = m[4 + col] - m[8 + col] - m[12 + col];
        }
        float y[2][2];
        for (int row = 0; row < 2; ++row) {
          y[row][0] = am[row][0] + am[row][1] + am[row][2];
          y[row][1] = am[row][1] - am[row][2] - am[row][3];
        }
        for (int dy = 0; dy < 2; ++dy) {
          for (int dx = 0; dx < 2; ++dx) {
            float v = y[dy][dx];
            if (b != nullptr) v += b[oc];
            o[(oc * h2 + 2 * ty + dy) * w2 + 2 * tx + dx] =
                ApplyActivation(activation, v);
          }
        }
      }
    }
  });
  return out;
}

FoldedBatchNorm FoldBatchNorm(const Tensor& weights, const Tensor& bias,
                              const Tensor& gamma, const Tensor& beta,
                              const Tensor& mean, const Tensor& variance,
                              float epsilon) {
  const std::int64_t k = weights.shape()[0];
  for (const Tensor* t : {&gamma, &beta, &mean, &variance}) {
    if (t->size() != k) throw ShapeError("batch norm parameter size mismatch");
  }
  FoldedBatchNorm folded;
  folded.weights = weights.Clone();
  folded.bias = bias.defined() ? bias.Clone() : Tensor(Shape{k});

  const std::int64_t per_filter = weights.size() / k;
  auto w = folded.weights.data();
  auto b = folded.bias.data();
  const auto g = gamma.data(), bt = beta.data(), mu = mean.data(),
             var = variance.data();
  for (std::int64_t oc = 0; oc < k; ++oc) {
    const auto i = static_cast<std::size_t>(oc);
    const float scale = g[i] / std::sqrt(var[i] + epsilon);
    for (std::int64_t j = 0; j < per_filter; ++j) {
      w[static_cast<std::size_t>(oc * per_filter + j)] *= scale;
    }
    b[i] = (b[i] - mu[i]) * scale + bt[i];
  }
  return folded;
}

}  // namespace clflow::cpu
