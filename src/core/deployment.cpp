#include "core/deployment.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "analysis/ir_verifier.hpp"
#include "analysis/perf_lint.hpp"
#include "codegen/opencl_codegen.hpp"
#include "common/arena.hpp"
#include "common/error.hpp"
#include "core/compile_cache.hpp"
#include "ir/passes.hpp"
#include "srclint/srclint.hpp"

namespace clflow::core {

namespace {

using graph::Node;
using graph::NodeId;
using graph::OpKind;

std::int64_t LargestDivisorLE(std::int64_t n, std::int64_t limit) {
  for (std::int64_t d = std::min(n, limit); d >= 1; --d) {
    if (n % d == 0) return d;
  }
  return 1;
}

std::string TilingDesc(const ir::ConvSchedule& s) {
  std::ostringstream os;
  os << "W2/C2/C1=" << s.tile_w2 << '/' << s.tile_c2 << '/' << s.tile_c1;
  if (s.unroll_filter) os << " +FxF";
  if (s.symbolic) os << (s.pin_strides ? " sym(pinned)" : " sym");
  return os.str();
}

/// Row-major stride bindings for a symbolic buffer role, matched by the
/// "<buffer>_s<dim>" parameter naming convention of the builders.
void BindStrides(const ir::BuiltKernel& built, const ir::BufferPtr& buffer,
                 const Shape& shape, ir::Bindings& bindings) {
  if (!buffer) return;
  const auto strides = shape.Strides();
  for (std::size_t d = 0; d < strides.size(); ++d) {
    auto it = built.params.find(buffer->name + "_s" + std::to_string(d));
    if (it != built.params.end()) {
      bindings[it->second.get()] = strides[d];
    }
  }
}

void BindParam(const ir::BuiltKernel& built, const std::string& name,
               std::int64_t value, ir::Bindings& bindings) {
  auto it = built.params.find(name);
  if (it != built.params.end()) bindings[it->second.get()] = value;
}

/// Channel endpoints for a hybrid-tail node: input from the predecessor's
/// channel (when the predecessor is in the tail), output to this node's
/// channel (when one exists, i.e. it is not the network output).
ir::ChannelIO TailIo(
    NodeId id, NodeId tail_start,
    const std::unordered_map<NodeId, ir::BufferPtr>& tail_channel) {
  ir::ChannelIO io;
  if (tail_start < 0 || id < tail_start) return io;
  auto out_it = tail_channel.find(id);
  if (out_it != tail_channel.end()) io.output = out_it->second;
  auto in_it = tail_channel.find(id - 1);
  if (id > tail_start && in_it != tail_channel.end()) {
    io.input = in_it->second;
  }
  return io;
}

/// Channel endpoints folded into a kernel's content key: the builders bake
/// channel reads/writes into the IR, so two otherwise-identical specs with
/// different endpoints are different kernels.
std::string IoDesc(const ir::ChannelIO& io) {
  std::string s;
  if (io.input) s += "|in:" + io.input->name;
  if (io.output) s += "|out:" + io.output->name;
  return s;
}


// ---------------------------------------------------------------------------
// Pipelined planning (LeNet-class networks, SS6.3.1)

void PlanPipelined(CompiledDesign& d) {
  const OptimizationRecipe& recipe = d.options.recipe;
  // The pipelined planner requires a linear chain of single-consumer nodes.
  const auto consumers = d.fused.ConsumerMap();
  for (const Node& n : d.fused.nodes()) {
    if (consumers[static_cast<std::size_t>(n.id)].size() > 1 ||
        n.inputs.size() > 1) {
      throw ScheduleError(
          "CLF405",
          "pipelined execution requires a linear chain; node " + n.name +
              " branches (use folded execution)");
    }
  }
  CLFLOW_CHECK_MSG(!recipe.parameterized,
                   "parameterized kernels are a folded-mode optimization");

  const bool naive = !recipe.fuse_and_cache;
  if (recipe.channels) {
    CLFLOW_CHECK_MSG(!naive, "channelized recipes build on the fused/unrolled "
                             "kernels (Table 6.4 ladder)");
  }

  // Pre-create channels for every interior edge.
  std::unordered_map<NodeId, ir::BufferPtr> out_channel;
  if (recipe.channels) {
    for (const Node& n : d.fused.nodes()) {
      if (n.kind == OpKind::kInput) continue;
      if (n.id == d.fused.output_id()) continue;
      auto chan = ir::MakeBuffer("ch_" + n.name, {ir::IntImm(1)},
                                 ir::MemScope::kChannel);
      chan->channel_depth = n.output_shape.NumElements();
      out_channel[n.id] = chan;
    }
  }

  for (const Node& n : d.fused.nodes()) {
    if (n.kind == OpKind::kInput) continue;
    const Node& src = d.fused.node(n.inputs[0]);
    ir::ChannelIO io;
    if (recipe.channels) {
      if (src.kind != OpKind::kInput) io.input = out_channel.at(src.id);
      auto it = out_channel.find(n.id);
      if (it != out_channel.end()) io.output = it->second;
    }

    const Shape& in_shape = src.output_shape;
    PlannedKernel pk;
    const std::string kname = "k_" + n.name;
    obs::ScopedSpan lower_span("lower:" + kname, "lower");
    const bool implicit_unroll =
        naive && d.options.board.auto_unrolls_small_loops;

    switch (n.kind) {
      case OpKind::kConv2d:
      case OpKind::kDepthwiseConv2d: {
        ir::ConvSpec spec{.c1 = in_shape.channels(),
                          .h1 = in_shape.height(),
                          .w1 = in_shape.width(),
                          .k = n.filters,
                          .f = n.window,
                          .stride = n.stride,
                          .depthwise = n.kind == OpKind::kDepthwiseConv2d,
                          .has_bias = n.bias.defined(),
                          .activation = n.activation};
        ir::ConvSchedule sched;
        sched.fuse_activation = recipe.fuse_and_cache;
        sched.cached_writes = recipe.fuse_and_cache;
        sched.unroll_filter = recipe.unroll || implicit_unroll;
        sched.weight_cache = recipe.weight_cache;
        pk.built = ir::BuildConv2dKernel(spec, sched, kname, io);
        pk.op_class = spec.depthwise ? "dw conv" : "conv";
        pk.tiling_desc = TilingDesc(sched);
        break;
      }
      case OpKind::kDense: {
        ir::DenseSpec spec{.c1 = in_shape.NumElements(),
                           .c2 = n.output_shape.NumElements(),
                           .has_bias = n.bias.defined(),
                           .activation = n.activation};
        ir::DenseSchedule sched;
        sched.cached_writes = recipe.fuse_and_cache;
        sched.unroll_k = recipe.unroll
                             ? LargestDivisorLE(spec.c1,
                                                recipe.dense_unroll_limit)
                             : 1;
        sched.input_cache = recipe.weight_cache || io.input != nullptr;
        pk.built = ir::BuildDenseKernel(spec, sched, kname, io);
        pk.op_class = "dense";
        pk.tiling_desc = "k unroll " + std::to_string(sched.unroll_k);
        break;
      }
      case OpKind::kMaxPool:
      case OpKind::kAvgPool: {
        ir::PoolSpec spec{.c = in_shape.channels(),
                          .h1 = in_shape.height(),
                          .w1 = in_shape.width(),
                          .f = n.window,
                          .stride = n.stride,
                          .is_max = n.kind == OpKind::kMaxPool};
        pk.built = ir::BuildPoolKernel(
            spec, {.optimized = recipe.fuse_and_cache}, kname, io);
        pk.op_class = "pool";
        break;
      }
      case OpKind::kSoftmax: {
        pk.built = ir::BuildSoftmaxKernel({.n = in_shape.NumElements()},
                                          /*optimized=*/recipe.fuse_and_cache,
                                          kname, io);
        pk.op_class = "softmax";
        break;
      }
      case OpKind::kFlatten: {
        pk.built =
            ir::BuildCopyKernel(in_shape.NumElements(), kname, io);
        pk.op_class = "flatten";
        break;
      }
      case OpKind::kPad: {
        pk.built = ir::BuildPadKernel({.c = in_shape.channels(),
                                       .h1 = in_shape.height(),
                                       .w1 = in_shape.width(),
                                       .pad = n.pad},
                                      kname, io);
        pk.op_class = "pad";
        break;
      }
      default:
        throw ScheduleError("CLF405",
                            "pipelined planner: unsupported op " + n.name);
    }

    if (recipe.autorun && pk.built.kernel.buffer_args.empty() &&
        pk.built.kernel.scalar_args.empty()) {
      pk.built.kernel.autorun = true;
    }

    PlannedInvocation inv;
    inv.kernel_index = static_cast<int>(d.kernels.size());
    inv.node = n.id;
    inv.stats = ir::AnalyzeKernel(pk.built.kernel);
    inv.autorun = pk.built.kernel.autorun;
    if (io.input) inv.reads_channels.push_back(io.input->name);
    if (io.output) inv.writes_channels.push_back(io.output->name);
    d.kernels.push_back(std::move(pk));
    d.invocations.push_back(std::move(inv));
  }
}

// ---------------------------------------------------------------------------
// Folded planning (MobileNet/ResNet-class networks, SS6.3.2)

void PlanFolded(CompiledDesign& d) {
  const OptimizationRecipe& recipe = d.options.recipe;
  CLFLOW_CHECK_MSG(!recipe.channels && !recipe.autorun,
                   "channels/autorun do not apply to folded execution "
                   "(Table 4.1)");

  // Hybrid execution (SS6.5): identify the constant-shape classifier tail
  // after the last convolution-like node. Tail nodes must form a linear
  // single-consumer chain ending at the network output.
  NodeId tail_start = -1;
  if (recipe.pipeline_tail) {
    NodeId last_conv = -1;
    for (const Node& n : d.fused.nodes()) {
      if (n.kind == OpKind::kConv2d || n.kind == OpKind::kDepthwiseConv2d ||
          n.kind == OpKind::kAdd || n.kind == OpKind::kPad) {
        last_conv = n.id;
      }
    }
    const auto consumers = d.fused.ConsumerMap();
    bool chain_ok = last_conv >= 0 && last_conv < d.fused.output_id();
    for (NodeId id = last_conv + 1; chain_ok && id <= d.fused.output_id();
         ++id) {
      const Node& n = d.fused.node(id);
      chain_ok = n.inputs.size() == 1 &&
                 consumers[static_cast<std::size_t>(id)].size() <= 1;
    }
    if (chain_ok) tail_start = last_conv + 1;
  }
  std::unordered_map<NodeId, ir::BufferPtr> tail_channel;
  if (tail_start >= 0) {
    for (NodeId id = tail_start; id < d.fused.output_id(); ++id) {
      auto chan = ir::MakeBuffer("ch_" + d.fused.node(id).name,
                                 {ir::IntImm(1)}, ir::MemScope::kChannel);
      chan->channel_depth = d.fused.node(id).output_shape.NumElements();
      tail_channel[id] = chan;
    }
  }

  // Kernel cache for parameterized groups, keyed by a structural string.
  std::map<std::string, int> group_kernel;

  auto conv_tiling = [&](const Node& n) -> ConvTiling {
    if (n.kind == OpKind::kDepthwiseConv2d) return recipe.conv_dw;
    if (n.window == 1) return recipe.conv1x1;
    if (n.window <= 3) return recipe.conv3x3;
    return recipe.conv_large;
  };

  for (const Node& n : d.fused.nodes()) {
    if (n.kind == OpKind::kInput) continue;
    const Node& src = d.fused.node(n.inputs[0]);
    const Shape& in_shape = src.output_shape;
    PlannedInvocation inv;
    inv.node = n.id;
    obs::ScopedSpan lower_span("lower:" + n.name, "lower");

    auto intern = [&](const std::string& key,
                      const std::function<PlannedKernel()>& make) {
      auto it = group_kernel.find(key);
      if (it != group_kernel.end()) return it->second;
      const int index = static_cast<int>(d.kernels.size());
      d.kernels.push_back(make());
      group_kernel[key] = index;
      return index;
    };

    switch (n.kind) {
      case OpKind::kConv2d:
      case OpKind::kDepthwiseConv2d: {
        const bool dw = n.kind == OpKind::kDepthwiseConv2d;
        const ConvTiling tiling = conv_tiling(n);
        ir::ConvSchedule sched;
        sched.fuse_activation = recipe.fuse_and_cache;
        sched.cached_writes = recipe.fuse_and_cache;
        sched.unroll_filter = recipe.unroll && tiling.unroll_filter;
        sched.symbolic = recipe.parameterized;
        sched.pin_strides = recipe.parameterized && recipe.pin_strides;
        if (recipe.fuse_and_cache) {
          sched.tile_c1 = dw ? 1 : tiling.c1;
          sched.tile_w2 = tiling.w2;
          sched.tile_c2 = dw ? 1 : tiling.c2;
        }
        // Divisibility (no epilogue loops, SS4.11 requirement 2).
        const Shape& out = n.output_shape;
        if ((!dw && in_shape.channels() % sched.tile_c1 != 0) ||
            out.width() % sched.tile_w2 != 0 ||
            (!dw && n.filters % sched.tile_c2 != 0)) {
          throw ScheduleError("CLF403",
                              "tiling does not divide layer " + n.name,
                              "k_" + n.name, "", out.width());
        }

        ir::ConvSpec spec{.c1 = in_shape.channels(),
                          .h1 = in_shape.height(),
                          .w1 = in_shape.width(),
                          .k = n.filters,
                          .f = n.window,
                          .stride = n.stride,
                          .depthwise = dw,
                          .has_bias = n.bias.defined(),
                          .activation = n.activation};
        std::string key = dw ? "dw" : "conv";
        key += std::to_string(n.window);
        key += "_s";
        key += std::to_string(n.stride);
        key += "_b";
        key += spec.has_bias ? '1' : '0';
        // Parameterized kernels select their activation at runtime, so
        // activation is not part of the grouping key; constant-shape
        // kernels bake it in.
        if (!recipe.parameterized) {
          key += "_a";
          key += std::to_string(static_cast<int>(n.activation));
          key += "_node";
          key += std::to_string(n.id);
        }

        inv.kernel_index = intern(key, [&] {
          PlannedKernel pk;
          const std::string kname = "k_" + key;
          pk.content_key = CompileCache::ConvKernelKey(spec, sched, kname);
          // Lowering cache: scheduled conv IR is immutable after build and
          // a pure function of (spec, sched, name), so candidates sharing a
          // conv configuration share one BuildConv2dKernel (folded conv
          // kernels never take the tail autorun mutation below).
          if (d.options.compile_cache) {
            if (auto hit =
                    d.options.compile_cache->LookupKernel(pk.content_key)) {
              pk.built = std::move(*hit);
            } else {
              pk.built = ir::BuildConv2dKernel(spec, sched, kname);
              d.options.compile_cache->InsertKernel(pk.content_key, pk.built);
            }
          } else {
            pk.built = ir::BuildConv2dKernel(spec, sched, kname);
          }
          pk.op_class = std::to_string(n.window) + "x" +
                        std::to_string(n.window) +
                        (dw ? " DW conv" : " conv");
          if (n.window != 1) pk.op_class += " S=" + std::to_string(n.stride);
          pk.tiling_desc = TilingDesc(sched);
          return pk;
        });

        const auto& built = d.kernels[static_cast<std::size_t>(
                                         inv.kernel_index)].built;
        BindParam(built, "C1", in_shape.channels(), inv.bindings);
        BindParam(built, "HW", in_shape.height(), inv.bindings);
        BindParam(built, "K", n.filters, inv.bindings);
        BindParam(built, "ACT", static_cast<std::int64_t>(n.activation),
                  inv.bindings);
        BindStrides(built, built.input,
                    Shape{in_shape.channels(), in_shape.height(),
                          in_shape.width()},
                    inv.bindings);
        if (built.weights) {
          BindStrides(built, built.weights,
                      dw ? Shape{spec.c1, spec.f, spec.f}
                         : Shape{n.filters, spec.c1, spec.f, spec.f},
                      inv.bindings);
        }
        BindStrides(built, built.output,
                    Shape{out.channels(), out.height(), out.width()},
                    inv.bindings);
        for (const auto& ws : built.workspaces) {
          BindStrides(built, ws, Shape{out.height(), out.width()},
                      inv.bindings);
        }
        break;
      }
      case OpKind::kPad: {
        std::ostringstream key;
        key << "pad" << n.pad;
        if (!recipe.parameterized) key << "_node" << n.id;
        ir::PadSpec spec{.c = in_shape.channels(),
                         .h1 = in_shape.height(),
                         .w1 = in_shape.width(),
                         .pad = n.pad,
                         .symbolic = recipe.parameterized};
        inv.kernel_index = intern(key.str(), [&] {
          PlannedKernel pk;
          pk.content_key = "pad|k_" + key.str() + '|' +
                           std::to_string(spec.c) + '|' +
                           std::to_string(spec.h1) + '|' +
                           std::to_string(spec.w1) + '|' +
                           std::to_string(spec.pad) + '|' +
                           std::to_string(spec.symbolic);
          pk.built = ir::BuildPadKernel(spec, "k_" + key.str());
          pk.op_class = "pad";
          return pk;
        });
        const auto& built = d.kernels[static_cast<std::size_t>(
                                         inv.kernel_index)].built;
        BindParam(built, "C1", in_shape.channels(), inv.bindings);
        BindParam(built, "HW", in_shape.height(), inv.bindings);
        break;
      }
      case OpKind::kAdd: {
        const std::int64_t elems = n.output_shape.NumElements();
        const std::int64_t unroll =
            recipe.fuse_and_cache ? recipe.add_unroll : 1;
        CLFLOW_CHECK_MSG(elems % unroll == 0, "add unroll does not divide");
        std::ostringstream key;
        key << "add_a" << static_cast<int>(n.activation);
        if (!recipe.parameterized) key << "_node" << n.id;
        inv.kernel_index = intern(key.str(), [&] {
          PlannedKernel pk;
          pk.content_key = "add|k_" + key.str() + '|' +
                           std::to_string(elems) + '|' +
                           std::to_string(static_cast<int>(n.activation)) +
                           '|' + std::to_string(recipe.parameterized) + '|' +
                           std::to_string(unroll);
          pk.built = ir::BuildAddKernel({.n = elems,
                                         .activation = n.activation,
                                         .symbolic = recipe.parameterized},
                                        unroll, "k_" + key.str());
          pk.op_class = "add";
          return pk;
        });
        const auto& built = d.kernels[static_cast<std::size_t>(
                                         inv.kernel_index)].built;
        BindParam(built, "N", elems, inv.bindings);
        break;
      }
      case OpKind::kDense: {
        ir::ChannelIO io = TailIo(n.id, tail_start, tail_channel);
        ir::DenseSpec spec{.c1 = in_shape.NumElements(),
                           .c2 = n.output_shape.NumElements(),
                           .has_bias = n.bias.defined(),
                           .activation = n.activation};
        ir::DenseSchedule sched;
        sched.cached_writes = recipe.fuse_and_cache;
        sched.unroll_k =
            recipe.unroll
                ? LargestDivisorLE(spec.c1, recipe.dense_unroll_folded)
                : 1;
        sched.input_cache = recipe.fuse_and_cache || io.input != nullptr;
        inv.kernel_index = static_cast<int>(d.kernels.size());
        PlannedKernel pk;
        pk.content_key = "dense|k_" + n.name + '|' +
                         std::to_string(spec.c1) + '|' +
                         std::to_string(spec.c2) + '|' +
                         std::to_string(spec.has_bias) + '|' +
                         std::to_string(static_cast<int>(spec.activation)) +
                         '|' + std::to_string(sched.cached_writes) + '|' +
                         std::to_string(sched.unroll_k) + '|' +
                         std::to_string(sched.input_cache) + IoDesc(io);
        pk.built = ir::BuildDenseKernel(spec, sched, "k_" + n.name, io);
        pk.op_class = "dense";
        pk.tiling_desc = "k unroll " + std::to_string(sched.unroll_k);
        d.kernels.push_back(std::move(pk));
        break;
      }
      case OpKind::kMaxPool:
      case OpKind::kAvgPool: {
        ir::ChannelIO io = TailIo(n.id, tail_start, tail_channel);
        ir::PoolSpec spec{.c = in_shape.channels(),
                          .h1 = in_shape.height(),
                          .w1 = in_shape.width(),
                          .f = n.window,
                          .stride = n.stride,
                          .is_max = n.kind == OpKind::kMaxPool};
        inv.kernel_index = static_cast<int>(d.kernels.size());
        PlannedKernel pk;
        pk.content_key = "pool|k_" + n.name + '|' + std::to_string(spec.c) +
                         '|' + std::to_string(spec.h1) + '|' +
                         std::to_string(spec.w1) + '|' +
                         std::to_string(spec.f) + '|' +
                         std::to_string(spec.stride) + '|' +
                         std::to_string(spec.is_max) + '|' +
                         std::to_string(recipe.fuse_and_cache) + IoDesc(io);
        pk.built = ir::BuildPoolKernel(
            spec, {.optimized = recipe.fuse_and_cache}, "k_" + n.name, io);
        pk.op_class = spec.is_max ? "maxpool" : "avgpool";
        d.kernels.push_back(std::move(pk));
        break;
      }
      case OpKind::kSoftmax: {
        ir::ChannelIO io = TailIo(n.id, tail_start, tail_channel);
        inv.kernel_index = static_cast<int>(d.kernels.size());
        PlannedKernel pk;
        pk.content_key = "softmax|k_" + n.name + '|' +
                         std::to_string(in_shape.NumElements()) + '|' +
                         std::to_string(recipe.fuse_and_cache) + IoDesc(io);
        pk.built = ir::BuildSoftmaxKernel({.n = in_shape.NumElements()},
                                          recipe.fuse_and_cache,
                                          "k_" + n.name, io);
        pk.op_class = "softmax";
        d.kernels.push_back(std::move(pk));
        break;
      }
      case OpKind::kFlatten: {
        ir::ChannelIO io = TailIo(n.id, tail_start, tail_channel);
        inv.kernel_index = static_cast<int>(d.kernels.size());
        PlannedKernel pk;
        pk.content_key = "copy|k_" + n.name + '|' +
                         std::to_string(in_shape.NumElements()) + IoDesc(io);
        pk.built = ir::BuildCopyKernel(in_shape.NumElements(), "k_" + n.name,
                                       io);
        pk.op_class = "flatten";
        d.kernels.push_back(std::move(pk));
        break;
      }
      default:
        throw ScheduleError("CLF405",
                            "folded planner: unsupported op " + n.name);
    }

    // Hybrid tail: record channel endpoints and autorun weightless
    // kernels (no dispatch).
    if (tail_start >= 0 && inv.node >= tail_start) {
      auto& pk = d.kernels[static_cast<std::size_t>(inv.kernel_index)];
      auto in_it = tail_channel.find(d.fused.node(inv.node).inputs[0]);
      if (in_it != tail_channel.end()) {
        inv.reads_channels.push_back(in_it->second->name);
      }
      auto out_it = tail_channel.find(inv.node);
      if (out_it != tail_channel.end()) {
        inv.writes_channels.push_back(out_it->second->name);
      }
      if (pk.built.kernel.buffer_args.empty() &&
          pk.built.kernel.scalar_args.empty()) {
        pk.built.kernel.autorun = true;
        inv.autorun = true;
      }
    }

    // Per-invocation analysis dominates a cache-warm folded compile (it
    // runs per layer, not per unique kernel), so it is memoized alongside
    // the lowering results. The key covers the kernel's content key, the
    // tail autorun mutation above, and the bindings.
    const PlannedKernel& planned =
        d.kernels[static_cast<std::size_t>(inv.kernel_index)];
    if (d.options.compile_cache && !planned.content_key.empty()) {
      const std::string skey = CompileCache::StatsKeyFor(
          planned.content_key, planned.built.kernel.autorun, inv.bindings);
      if (auto hit = d.options.compile_cache->LookupStats(skey)) {
        inv.stats = std::move(*hit);
      } else {
        inv.stats = ir::AnalyzeKernel(planned.built.kernel, inv.bindings);
        d.options.compile_cache->InsertStats(skey, inv.stats);
      }
    } else {
      inv.stats = ir::AnalyzeKernel(planned.built.kernel, inv.bindings);
    }
    d.invocations.push_back(std::move(inv));
  }
}

void AssignQueues(CompiledDesign& d) {
  // Queue assignment happens at compile time (not in PrepareRuntime) so the
  // dataflow checker can reason about launch ordering before a runtime
  // exists: every in-order-queue deadlock and cross-queue hazard is a
  // property of this mapping.
  d.invocation_queues.assign(d.invocations.size(), 0);
  d.num_queues = 1;
  const bool ce = d.options.recipe.concurrent_execution &&
                  d.options.recipe.channels;
  if (ce) {
    for (std::size_t i = 0; i < d.invocations.size(); ++i) {
      if (d.invocations[i].autorun) continue;
      // The first kernel shares queue 0 with the input write so the
      // in-order queue sequences it after the transfer.
      d.invocation_queues[i] = i == 0 ? 0 : d.num_queues++;
    }
  }
}

void RecordCompileMetrics(const CompiledDesign& d, obs::Registry& reg) {
  reg.gauge("compile.kernels").Set(static_cast<double>(d.kernels.size()));
  reg.gauge("compile.invocations")
      .Set(static_cast<double>(d.invocations.size()));
  reg.gauge("synth.ok").Set(d.ok() ? 1.0 : 0.0);
  reg.gauge("synth.fmax_mhz").Set(d.bitstream.fmax_mhz);
  reg.gauge("synth.routing_pressure").Set(d.bitstream.routing_pressure);
  const fpga::ResourceTotals& t = d.bitstream.totals;
  reg.gauge("synth.aluts").Set(static_cast<double>(t.aluts));
  reg.gauge("synth.ffs").Set(static_cast<double>(t.ffs));
  reg.gauge("synth.brams").Set(static_cast<double>(t.brams));
  reg.gauge("synth.dsps").Set(static_cast<double>(t.dsps));
  reg.gauge("synth.alut_frac").Set(t.alut_frac);
  reg.gauge("synth.bram_frac").Set(t.bram_frac);
  reg.gauge("synth.dsp_frac").Set(t.dsp_frac);
  std::int64_t lsus = 0, nonseq = 0;
  for (const auto& k : d.bitstream.kernels) {
    lsus += k.lsu_count;
    nonseq += k.nonseq_lsu_count;
    reg.histogram("synth.kernel.aluts").Observe(static_cast<double>(k.aluts));
    reg.histogram("synth.kernel.brams").Observe(static_cast<double>(k.brams));
    reg.histogram("synth.kernel.dsps").Observe(static_cast<double>(k.dsps));
  }
  reg.gauge("synth.lsu_count").Set(static_cast<double>(lsus));
  reg.gauge("synth.nonseq_lsu_count").Set(static_cast<double>(nonseq));
}

}  // namespace

analysis::Plan CompiledDesign::AnalysisPlan() const {
  analysis::Plan plan;
  std::unordered_map<NodeId, int> step_of_node;
  for (std::size_t i = 0; i < invocations.size(); ++i) {
    step_of_node[invocations[i].node] = static_cast<int>(i);
  }
  for (std::size_t i = 0; i < invocations.size(); ++i) {
    const auto& inv = invocations[i];
    const ir::Kernel& kernel =
        kernels[static_cast<std::size_t>(inv.kernel_index)].built.kernel;
    analysis::PlanStep step;
    step.kernel = kernel.name;
    step.queue = i < invocation_queues.size()
                     ? invocation_queues[i]
                     : 0;
    step.autorun = inv.autorun;
    step.num_args = static_cast<std::int64_t>(kernel.buffer_args.size() +
                                              kernel.scalar_args.size());
    step.channel_writes = inv.stats.channel_writes;
    step.reads = inv.reads_channels;
    step.writes = inv.writes_channels;
    for (NodeId in : fused.node(inv.node).inputs) {
      auto it = step_of_node.find(in);
      if (it != step_of_node.end()) step.deps.push_back(it->second);
    }
    plan.steps.push_back(std::move(step));
    for (const auto& chan : kernel.channels_written) {
      plan.channels[chan->name] = chan->channel_depth;
    }
    for (const auto& chan : kernel.channels_read) {
      plan.channels.emplace(chan->name, chan->channel_depth);
    }
  }
  return plan;
}

std::string CompiledDesign::Source() const {
  std::vector<const ir::Kernel*> ks;
  ks.reserve(kernels.size());
  for (const auto& pk : kernels) ks.push_back(&pk.built.kernel);
  return codegen::EmitProgram(ks);
}

CompiledDesign Deployment::Plan(const graph::Graph& g,
                                const DeployOptions& options) {
  CompiledDesign d;
  d.options = options;
  {
    obs::ScopedSpan span("fusion");
    const auto before = static_cast<std::int64_t>(g.nodes().size());
    d.fused = graph::FuseOperators(g);
    const auto after = static_cast<std::int64_t>(d.fused.nodes().size());
    span.Arg("nodes_before", before);
    span.Arg("nodes_after", after);
    obs::Registry::Current()
        ->counter("compile.nodes_fused")
        .Add(static_cast<double>(before - after));
  }
  {
    obs::ScopedSpan span("lowering");
    if (options.mode == ExecutionMode::kPipelined) {
      PlanPipelined(d);
    } else {
      PlanFolded(d);
    }
    span.Arg("kernels", static_cast<std::int64_t>(d.kernels.size()));
    span.Arg("invocations", static_cast<std::int64_t>(d.invocations.size()));
  }
  AssignQueues(d);
  return d;
}

void Deployment::Gate(const CompiledDesign& design, const std::string& source,
                      analysis::DiagnosticEngine& diags) {
  {
    obs::ScopedSpan span("verify");
    int errors = 0;
    for (const auto& pk : design.kernels) {
      errors += analysis::VerifyKernel(pk.built.kernel, diags);
    }
    span.Arg("errors", static_cast<std::int64_t>(errors));
  }
  std::vector<const ir::Kernel*> kernels;
  kernels.reserve(design.kernels.size());
  for (const auto& pk : design.kernels) kernels.push_back(&pk.built.kernel);
  {
    obs::ScopedSpan span("lint");
    const analysis::Plan plan = design.AnalysisPlan();
    analysis::CheckDataflow(plan, diags);
    analysis::LintPlan(plan, diags);
    // Lint each distinct kernel once, with the stats of its first
    // invocation (representative bindings, as synthesis uses).
    std::vector<bool> linted(kernels.size(), false);
    for (const auto& inv : design.invocations) {
      const auto idx = static_cast<std::size_t>(inv.kernel_index);
      if (linted[idx]) continue;
      linted[idx] = true;
      analysis::LintKernel(*kernels[idx], &inv.stats, diags);
    }
    span.Arg("errors", static_cast<std::int64_t>(diags.error_count()));
    span.Arg("warnings", static_cast<std::int64_t>(diags.warning_count()));
  }
  {
    // Translation validation: re-parse the .cl text and prove it matches
    // the plan (CLF8xx). This is the only check of the *source* rather
    // than the IR, so an emitter bug cannot ship a kernel the static
    // analyses never saw.
    obs::ScopedSpan span("srclint");
    srclint::LintProgram(source, kernels, diags);
    span.Arg("bytes", static_cast<std::int64_t>(source.size()));
    span.Arg("errors", static_cast<std::int64_t>(diags.error_count()));
  }
  if (obs::Tracer* tracer = obs::Tracer::Current()) {
    diags.MirrorToTrace(*tracer);
  }
  if (diags.HasErrors()) {
    throw VerifyError("static analysis rejected the deployment plan:\n" +
                      diags.ToText());
  }
}

void Deployment::Synthesize(CompiledDesign& d) {
  std::vector<bool> seen(d.kernels.size(), false);
  // Representative bindings: first invocation of each kernel.
  std::vector<ir::Bindings> rep(d.kernels.size());
  for (const auto& inv : d.invocations) {
    const auto idx = static_cast<std::size_t>(inv.kernel_index);
    if (!seen[idx]) {
      seen[idx] = true;
      rep[idx] = inv.bindings;
    }
  }
  if (!d.options.compile_cache) {
    std::vector<fpga::SynthInput> inputs;
    inputs.reserve(d.kernels.size());
    for (std::size_t i = 0; i < d.kernels.size(); ++i) {
      inputs.push_back({&d.kernels[i].built.kernel, rep[i]});
    }
    d.bitstream = fpga::Synthesize(inputs, d.options.board,
                                   d.options.recipe.aoc, d.options.cost_model);
    return;
  }
  // Cached path: per-kernel designs are board-independent, so each is
  // looked up by content fingerprint and only misses pay the synthesis
  // cost; AssembleBitstream (totals, fit, route, fmax) is cheap and always
  // runs against this deployment's board.
  CompileCache& cache = *d.options.compile_cache;
  obs::Registry& reg = *obs::Registry::Current();
  std::vector<fpga::KernelDesign> designs;
  designs.reserve(d.kernels.size());
  for (std::size_t i = 0; i < d.kernels.size(); ++i) {
    const ir::Kernel& kernel = d.kernels[i].built.kernel;
    // Content-addressable kernels (folded planner) are fingerprinted by
    // their schedule content key -- a string hash; only kernels without
    // one (pipelined planner) pay a codegen run for the fingerprint.
    const auto key =
        d.kernels[i].content_key.empty()
            ? CompileCache::DesignKeyFor(kernel, rep[i], d.options.recipe.aoc,
                                         d.options.cost_model)
            : CompileCache::DesignKeyFromContent(
                  cache.InternKey(d.kernels[i].content_key), kernel.autorun,
                  kernel.name, rep[i], d.options.recipe.aoc,
                  d.options.cost_model);
    if (auto hit = cache.LookupDesign(key)) {
      hit->kernel = &kernel;  // cached copies carry no deployment pointer
      designs.push_back(std::move(*hit));
      reg.counter("compile.cache.hits").Add(1.0);
      continue;
    }
    designs.push_back(fpga::SynthesizeKernelDesign(
        {&kernel, rep[i]}, d.options.recipe.aoc, d.options.cost_model));
    cache.InsertDesign(key, designs.back());
    reg.counter("compile.cache.misses").Add(1.0);
  }
  d.bitstream = fpga::AssembleBitstream(std::move(designs), d.options.board,
                                        d.options.recipe.aoc,
                                        d.options.cost_model);
}

Deployment::Deployment(const DeployOptions& options,
                       std::string flightrec_path)
    : flightrec_path_(std::move(flightrec_path)),
      telemetry_(std::make_shared<obs::Telemetry>()),
      diags_(std::make_shared<analysis::DiagnosticEngine>(
          &telemetry_->registry)),
      flightrec_(std::make_shared<telemetry::FlightRecorder>(
          options.flightrec_capacity)) {
  for (const auto& [code, severity] : options.analysis.severity_overrides) {
    diags_->OverrideSeverity(code, severity);
  }
}

Deployment::Deployment(std::shared_ptr<const CompiledDesign> design,
                       std::string flightrec_path)
    : Deployment(design->options, std::move(flightrec_path)) {
  design_ = std::move(design);
  for (const analysis::Diagnostic& diag : design_->diagnostics) {
    diags_->Report(diag);
  }
  PrepareRuntime();
}

Deployment Deployment::Instantiate(std::string flightrec_path) const {
  return Deployment(design_, std::move(flightrec_path));
}

Deployment Deployment::Compile(const graph::Graph& g,
                               const DeployOptions& options) {
  // Fail fast on malformed hardening knobs (CLF507): a watchdog of zero or
  // a zero retry budget would otherwise surface as a confusing runtime
  // fault on the first batch.
  ocl::ValidateRuntimeOptions(options.runtime);
  Deployment d(options, options.flightrec_path);
  // Route Registry::Current()/Tracer::Current() -- and with them every
  // stage and every IR pass applied while lowering -- into this
  // deployment's telemetry.
  obs::ScopedTelemetry scoped(d.telemetry_.get());
  // Every IR node this compile builds (lowering, schedule passes, analysis
  // rewrites) is bump-allocated from one arena; nodes that escape into the
  // CompileCache keep the arena alive through their control blocks, so the
  // scope can end with the compile.
  auto ir_arena = std::make_shared<common::Arena>();
  common::ArenaScope arena_scope(ir_arena);
  auto design = std::make_shared<CompiledDesign>();
  try {
    {
      // Gate every schedule primitive applied while lowering: a pass
      // composition that produces malformed IR aborts at the pass that
      // produced it, not at some downstream symptom.
      ir::ScopedPassVerifier pass_gate(
          [&d](const ir::Stmt& result, const char* pass) {
            const int before = d.diags_->error_count();
            (void)analysis::VerifyStmt(result, *d.diags_);
            if (d.diags_->error_count() > before) {
              throw VerifyError("IR verifier rejected the result of pass " +
                                std::string(pass) + ":\n" +
                                d.diags_->ToText());
            }
          });
      *design = Plan(g, options);
    }
    Gate(*design, design->Source(), *d.diags_);
  } catch (const VerifyError& e) {
    // Compile-time postmortem: the rejected pass's diagnostics go out
    // through the same flight-recorder dump as a runtime fault would.
    d.flightrec_->Note("fault", "VerifyError", {}, e.what());
    d.DumpFlightRecorder();
    throw;
  }
  {
    obs::ScopedSpan span("synthesis");
    Synthesize(*design);
    span.Arg("status",
             std::string(fpga::SynthStatusName(design->bitstream.status)));
  }
  obs::Registry& reg = d.telemetry_->registry;
  reg.gauge("compile.arena.bytes")
      .Set(static_cast<double>(ir_arena->bytes_used()));
  reg.gauge("compile.arena.nodes")
      .Set(static_cast<double>(ir_arena->num_allocations()));
  RecordCompileMetrics(*design, reg);
  design->diagnostics = d.diags_->diagnostics();
  for (const obs::SpanRecord& span : d.telemetry_->tracer.spans()) {
    // Top-level compile spans only: the gate's mirrored diagnostics are
    // depth-0 spans too, in category "diag".
    if (span.depth == 0 && span.category == "compile") {
      design->phase_spans.push_back(span);
    }
  }
  d.design_ = std::move(design);
  d.PrepareRuntime();
  return d;
}

void Deployment::PrepareRuntime() {
  if (!ok()) return;
  obs::ScopedSpan span(&telemetry_->tracer, "prepare_runtime");
  const CompiledDesign& d = *design_;
  runtime_ = std::make_unique<ocl::Runtime>(d.bitstream, d.options.cost_model,
                                            d.options.runtime);
  runtime_->set_flight_recorder(flightrec_.get());
  input_buffer_ = runtime_->CreateBuffer(
      d.fused.node(d.fused.input_id()).output_shape.NumElements());
  output_buffer_ = runtime_->CreateBuffer(
      d.fused.node(d.fused.output_id()).output_shape.NumElements());
  // Materialize the compile-time queue assignment (AssignQueues); queue 0
  // exists at runtime construction.
  for (int q = 1; q < d.num_queues; ++q) {
    const int created = runtime_->CreateQueue();
    CLFLOW_CHECK_MSG(created == q, "queue ids diverged from the plan");
  }
}

ocl::KernelLaunch Deployment::MakeLaunch(const PlannedInvocation& inv,
                                         bool functional) {
  const PlannedKernel& pk =
      design_->kernels[static_cast<std::size_t>(inv.kernel_index)];
  ocl::KernelLaunch launch;
  launch.name = pk.built.kernel.name;
  launch.stats = inv.stats;
  launch.reads_channels = inv.reads_channels;
  launch.writes_channels = inv.writes_channels;
  if (functional) {
    const NodeId node_id = inv.node;
    launch.functional = [this, node_id] {
      const graph::Graph& fused = design_->fused;
      const Node& n = fused.node(node_id);
      std::vector<Tensor> inputs;
      inputs.reserve(n.inputs.size());
      for (NodeId in : n.inputs) inputs.push_back(acts_.at(in));
      Tensor out =
          graph::ExecuteNode(n, inputs, design_->options.functional_threads);
      if (node_id == fused.output_id()) {
        const auto src = out.data();
        auto dst = output_buffer_->view();
        std::copy(src.begin(), src.end(), dst.begin());
      }
      acts_[node_id] = std::move(out);
    };
  }
  return launch;
}

void Deployment::DumpFlightRecorder() const {
  if (flightrec_path_.empty() || flightrec_ == nullptr) return;
  // Mirror the accumulated diagnostics so the dump stands alone: the
  // postmortem reader gets CLF codes next to the command stream without
  // needing the process's diagnostics output.
  for (const analysis::Diagnostic& diag : diags_->diagnostics()) {
    telemetry::FlightEvent ev;
    ev.kind = "diag";
    ev.label = diag.code;
    ev.detail = diag.message;
    flightrec_->Record(std::move(ev));
  }
  if (flightrec_->overflowed()) {
    const std::string msg =
        "flight recorder dropped " + std::to_string(flightrec_->dropped()) +
        " event(s) before the dump (capacity " +
        std::to_string(flightrec_->capacity()) + ")";
    diags_->Report(analysis::Diagnostic::Make(
        analysis::kFlightRecorderOverflow, {}, msg));
    flightrec_->Note("diag", std::string(analysis::kFlightRecorderOverflow.id),
                     {}, msg);
  }
  // Sequence the dump filename: the first postmortem keeps the documented
  // path, later ones get ".1", ".2", ... so a run with several escaping
  // faults never overwrites an earlier crash's evidence.
  flightrec_->DumpToFile(
      telemetry::SequencedDumpPath(flightrec_path_,
                                   flightrec_dumps_++));
}

RunResult Deployment::Run(const Tensor& input, bool functional) {
  if (!ok()) {
    throw RuntimeApiError("deployment did not synthesize: " +
                          design_->bitstream.status_detail);
  }
  const CompiledDesign& d = *design_;
  if (functional) {
    acts_.clear();
    acts_[d.fused.input_id()] = input;
  }

  const std::int64_t reprograms_before = runtime_->reprograms();
  RunResult result;
  // Open the request context: a deterministic trace id (monotonic per
  // deployment) stamped into every event this run enqueues, so the trace
  // export can chain them causally and the flight recorder can attribute
  // its window to requests.
  result.trace_id = ++next_trace_id_;
  const telemetry::TraceContext ctx{result.trace_id, result.trace_id};
  runtime_->set_trace_context(ctx);
  flightrec_->Note("request", "run#" + std::to_string(result.trace_id), ctx,
                   functional ? "functional" : "timing");
  try {
    runtime_->EnqueueWrite(0, input_buffer_, input.data(), "write_input");
    int last_queue = 0;
    for (std::size_t i = 0; i < d.invocations.size(); ++i) {
      const auto& inv = d.invocations[i];
      ocl::KernelLaunch launch = MakeLaunch(inv, functional);
      if (inv.autorun) {
        runtime_->RunAutorun(std::move(launch));
      } else {
        const int q = d.invocation_queues[i];
        runtime_->EnqueueKernel(q, std::move(launch));
        last_queue = q;
      }
    }

    const std::int64_t out_elems =
        d.fused.node(d.fused.output_id()).output_shape.NumElements();
    result.output = Tensor(Shape{out_elems});
    runtime_->EnqueueRead(last_queue, output_buffer_, result.output.data(),
                          "read_output");
    if (!functional) result.output = Tensor();
    result.latency = runtime_->Finish();
    // Per-request latency feeds the deployment's log-bucketed histogram:
    // a serving loop can call Run unboundedly without growing telemetry.
    telemetry_->registry.histogram("run.latency_us")
        .Observe(result.latency.us());
  } catch (const RuntimeFaultError& e) {
    // Surface the fault through the same diagnostics channel as the
    // compile-time checks before rethrowing, so tooling that renders
    // diagnostics() shows runtime faults next to static findings.
    if (const analysis::CodeInfo* info = analysis::FindCode(e.code())) {
      analysis::DiagLocation loc;
      loc.kernel = e.kernel();
      loc.buffer = e.channel();
      diags_->Report(analysis::Diagnostic::Make(
          *info, std::move(loc),
          e.what() + (e.queue_snapshot().empty()
                          ? std::string()
                          : " [" + e.queue_snapshot() + "]")));
    }
    // The fault escapes this Run: close the request and write the
    // postmortem (the runtime already recorded the fault event itself).
    runtime_->clear_trace_context();
    DumpFlightRecorder();
    throw;
  }
  runtime_->clear_trace_context();
  if (runtime_->reprograms() > reprograms_before) {
    // The run survived a device loss: record the recovery as a warning.
    diags_->Report(analysis::Diagnostic::Make(
        analysis::kRuntimeDeviceLost, {},
        "device reset during Run(): recovered by " +
            std::to_string(runtime_->reprograms() - reprograms_before) +
            " reprogram(s) costing " +
            std::to_string(runtime_->retry_policy().reprogram_cost.us()) +
            " us each"));
  }
  return result;
}

double Deployment::EstimateFps(const Tensor& input,
                               bool verify_against_reference) {
  if (verify_against_reference) {
    RunResult r = Run(input, /*functional=*/true);
    Tensor expected = graph::Execute(design_->fused, input,
                                     design_->options.functional_threads);
    Tensor got = r.output.Reshaped(expected.shape());
    if (!Tensor::AllClose(got, expected, 1e-3f, 1e-4f)) {
      throw Error("FPGA functional output diverges from the reference (max "
                  "rel diff " +
                  std::to_string(Tensor::MaxRelDiff(got, expected)) + ")");
    }
  }
  const RunResult timing = Run(input, /*functional=*/false);
  return 1.0 / timing.latency.seconds();
}

std::vector<OpProfileEntry> Deployment::ProfileOps() {
  if (!ok()) {
    throw RuntimeApiError("deployment did not synthesize");
  }
  std::map<std::string, OpProfileEntry> by_class;
  SimTime total;
  const CompiledDesign& d = *design_;
  for (const auto& inv : d.invocations) {
    const auto& pk = d.kernels[static_cast<std::size_t>(inv.kernel_index)];
    OpProfileEntry& e = by_class[pk.op_class];
    e.op_class = pk.op_class;
    e.flops += graph::NodeCost(d.fused.node(inv.node), d.fused).flops;
    const SimTime t = fpga::InvocationTime(inv.stats, d.options.board,
                                           d.bitstream.fmax_mhz,
                                           d.options.cost_model);
    e.kernel_time += t;
    total += t;
  }
  std::vector<OpProfileEntry> entries;
  entries.reserve(by_class.size());
  for (auto& [_, e] : by_class) {
    e.runtime_share = total > kSimTimeZero
                          ? e.kernel_time.seconds() / total.seconds()
                          : 0.0;
    e.gflops = e.kernel_time > kSimTimeZero
                   ? e.flops / e.kernel_time.seconds() / 1e9
                   : 0.0;
    entries.push_back(e);
  }
  std::sort(entries.begin(), entries.end(),
            [](const OpProfileEntry& a, const OpProfileEntry& b) {
              return a.flops > b.flops;
            });
  return entries;
}

EventBreakdown Deployment::ProfileEvents(const Tensor& input) {
  if (!ok()) {
    throw RuntimeApiError("deployment did not synthesize");
  }
  runtime_->ClearEvents();
  runtime_->set_profiling(true);
  (void)Run(input, /*functional=*/false);
  runtime_->set_profiling(false);

  EventBreakdown breakdown;
  for (const ocl::EventPool::View ev : runtime_->event_pool()) {
    switch (ev.kind) {
      case ocl::CommandKind::kWriteBuffer:
        breakdown.write += ev.duration();
        break;
      case ocl::CommandKind::kKernel:
        breakdown.kernel += ev.duration();
        break;
      case ocl::CommandKind::kReadBuffer:
        breakdown.read += ev.duration();
        break;
    }
  }
  runtime_->ClearEvents();
  return breakdown;
}

std::string Deployment::GeneratedSource() const {
  obs::ScopedSpan span(&telemetry_->tracer, "codegen");
  std::string source = design_->Source();
  span.Arg("bytes", static_cast<std::int64_t>(source.size()));
  return source;
}

ocl::Runtime& Deployment::runtime() const {
  if (!runtime_) {
    throw RuntimeApiError("deployment did not synthesize: " +
                          design_->bitstream.status_detail);
  }
  return *runtime_;
}

void Deployment::ExportRuntimeMetrics(obs::Registry& registry,
                                      const obs::Labels& base_labels) const {
  runtime().ExportMetrics(registry, base_labels);
  // Static estimate against the schedule: the synthesis-time estimate
  // uses one representative binding per kernel; the schedule re-analyzes
  // every invocation, so parameterized (folded) kernels move away from 1
  // when layer shapes differ from the representative. prof's per-kernel
  // drift compares the schedule with a per-invocation re-analysis instead.
  const fpga::Bitstream& bitstream = design_->bitstream;
  for (const auto& kd : bitstream.kernels) {
    auto it = runtime_->kernel_usage().find(kd.name);
    if (it == runtime_->kernel_usage().end() ||
        it->second.invocations == 0) {
      continue;
    }
    const SimTime estimate = fpga::InvocationTime(
        kd.static_stats, bitstream.board, bitstream.fmax_mhz,
        design_->options.cost_model);
    const double scheduled_us =
        it->second.total.us() / static_cast<double>(it->second.invocations);
    obs::Labels labels = base_labels;
    labels["kernel"] = kd.name;
    registry.gauge("perf.kernel.static_estimate_us", labels)
        .Set(estimate.us());
    registry.gauge("perf.kernel.scheduled_us", labels).Set(scheduled_us);
    if (estimate > kSimTimeZero) {
      registry.gauge("perf.kernel.static_estimate_ratio", labels)
          .Set(scheduled_us / estimate.us());
    }
  }
}

}  // namespace clflow::core
