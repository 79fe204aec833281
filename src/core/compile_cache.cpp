#include "core/compile_cache.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "codegen/opencl_codegen.hpp"
#include "common/fnv.hpp"
#include "obs/metrics.hpp"

namespace clflow::core {

namespace {

/// Typed fold over common::FnvBytes/FnvMix for the cache keys.
struct Fnv {
  std::uint64_t h = common::kFnvOffset;

  void Str(std::string_view s) {
    U64(s.size());
    common::FnvBytes(h, s.data(), s.size());
  }
  void U64(std::uint64_t v) { common::FnvMix(h, v); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) {
    std::uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    U64(u);
  }
  void Bool(bool v) { U64(v ? 1 : 0); }
};

/// Every CostModel constant, in declaration order. New fields must be
/// added here (DESIGN.md section 11 documents the key derivation).
void MixCostModel(Fnv& f, const fpga::CostModel& m) {
  f.I64(m.kernel_base_alut);
  f.I64(m.alut_per_loop);
  f.I64(m.alut_per_unfused_add);
  f.I64(m.dsp_per_complex_op);
  f.I64(m.alut_per_complex_op);
  f.I64(m.lsu_base_alut);
  f.I64(m.lsu_alut_per_byte_width);
  f.I64(m.lsu_base_bram);
  f.I64(m.lsu_bram_per_16byte_width);
  f.I64(m.cached_lsu_bram);
  f.F64(m.nonaligned_alut_factor);
  f.F64(m.nonaligned_bram_factor);
  f.F64(m.ff_per_alut);
  f.I64(m.bram_bytes);
  f.I64(m.channel_base_alut);
  f.F64(m.pressure_alut_weight);
  f.F64(m.pressure_bram_weight);
  f.F64(m.pressure_dsp_weight);
  f.F64(m.pressure_per_kbit_lsu_width);
  f.F64(m.pressure_per_lsu);
  f.F64(m.pressure_nonseq_lsu_multiplier);
  f.F64(m.fmax_linear);
  f.F64(m.fmax_quadratic);
  f.F64(m.route_fail_pressure);
  f.F64(m.burst_bytes);
  f.F64(m.data_bytes);
  f.I64(m.ops_per_dsp);
  f.F64(m.cached_lsu_reuse);
}

std::int64_t DesignBytes(const CompileCache::DesignKey& key,
                         const fpga::KernelDesign& d) {
  return static_cast<std::int64_t>(sizeof(fpga::KernelDesign)) +
         static_cast<std::int64_t>(d.static_stats.accesses.size() *
                                   sizeof(ir::AccessSite)) +
         static_cast<std::int64_t>(d.name.size() + key.kernel.size());
}

/// Representative bindings serialized by parameter name so the unordered
/// map's iteration order cannot leak into any cache key.
void MixBindings(Fnv& f, const ir::Bindings& bindings) {
  std::vector<std::pair<std::string, std::int64_t>> bound;
  bound.reserve(bindings.size());
  for (const auto& [var, value] : bindings) {
    bound.emplace_back(var->name, value);
  }
  std::sort(bound.begin(), bound.end());
  f.U64(bound.size());
  for (const auto& [name, value] : bound) {
    f.Str(name);
    f.I64(value);
  }
}

std::int64_t StatsBytes(const std::string& key, const ir::KernelStats& s) {
  return static_cast<std::int64_t>(sizeof(ir::KernelStats)) +
         static_cast<std::int64_t>(key.size()) +
         static_cast<std::int64_t>(s.accesses.size() *
                                   sizeof(ir::AccessSite));
}

std::int64_t KernelBytes(const std::string& key, const ir::BuiltKernel& b) {
  // Structural nodes are shared with live deployments; charge the owning
  // containers plus a flat estimate per parameter/buffer handle.
  return static_cast<std::int64_t>(sizeof(ir::BuiltKernel)) +
         static_cast<std::int64_t>(key.size()) +
         static_cast<std::int64_t>(
             (b.params.size() + b.workspaces.size() +
              b.kernel.buffer_args.size() + b.kernel.scalar_args.size() +
              b.kernel.local_buffers.size()) *
             48);
}

}  // namespace

CompileCacheStats CompileCacheStats::Since(const CompileCacheStats& base)
    const {
  CompileCacheStats d;
  d.design_hits = design_hits - base.design_hits;
  d.design_misses = design_misses - base.design_misses;
  d.lower_hits = lower_hits - base.lower_hits;
  d.lower_misses = lower_misses - base.lower_misses;
  d.stats_hits = stats_hits - base.stats_hits;
  d.stats_misses = stats_misses - base.stats_misses;
  d.entries = entries;
  d.bytes = bytes;
  return d;
}

CompileCache::DesignKey CompileCache::DesignKeyFor(
    const ir::Kernel& kernel, const ir::Bindings& bindings,
    const fpga::AocOptions& aoc, const fpga::CostModel& model) {
  const std::string source = codegen::EmitProgram({&kernel});
  Fnv f;
  f.Str(source);
  MixBindings(f, bindings);
  f.Bool(aoc.fp_relaxed);
  f.Bool(aoc.fpc);
  MixCostModel(f, model);
  return DesignKey{f.h, source.size(), kernel.name};
}

CompileCache::DesignKey CompileCache::DesignKeyFromContent(
    const std::string& content_key, bool autorun, const std::string& name,
    const ir::Bindings& bindings, const fpga::AocOptions& aoc,
    const fpga::CostModel& model) {
  return DesignKeyFromContent(
      common::InternedString{content_key, common::FnvHash(content_key)},
      autorun, name, bindings, aoc, model);
}

CompileCache::DesignKey CompileCache::DesignKeyFromContent(
    const common::InternedString& content_key, bool autorun,
    const std::string& name, const ir::Bindings& bindings,
    const fpga::AocOptions& aoc, const fpga::CostModel& model) {
  // Seed from the key's precomputed FNV state instead of rehashing its
  // bytes; the length is mixed separately to keep the prefix-free
  // property of Fnv::Str.
  Fnv f;
  f.h = content_key.hash;
  f.U64(content_key.view.size());
  f.Bool(autorun);
  MixBindings(f, bindings);
  f.Bool(aoc.fp_relaxed);
  f.Bool(aoc.fpc);
  MixCostModel(f, model);
  return DesignKey{f.h, content_key.view.size(), name};
}

common::InternedString CompileCache::InternKey(std::string_view key) {
  const std::scoped_lock lock(mu_);
  return keys_.Intern(key);
}

std::string CompileCache::ConvKernelKey(const ir::ConvSpec& spec,
                                        const ir::ConvSchedule& sched,
                                        const std::string& name) {
  std::string key = "conv|" + name;
  auto add = [&key](std::int64_t v) { key += '|' + std::to_string(v); };
  add(spec.c1);
  add(spec.h1);
  add(spec.w1);
  add(spec.k);
  add(spec.f);
  add(spec.stride);
  add(spec.depthwise);
  add(spec.has_bias);
  add(static_cast<std::int64_t>(spec.activation));
  add(sched.fuse_activation);
  add(sched.cached_writes);
  add(sched.unroll_filter);
  add(sched.tile_c1);
  add(sched.tile_w2);
  add(sched.tile_c2);
  add(sched.weight_cache);
  add(sched.symbolic);
  add(sched.pin_strides);
  return key;
}

std::optional<fpga::KernelDesign> CompileCache::LookupDesign(
    const DesignKey& key) {
  const std::scoped_lock lock(mu_);
  auto it = designs_.find(key);
  if (it == designs_.end()) {
    ++stats_.design_misses;
    return std::nullopt;
  }
  ++stats_.design_hits;
  return it->second;
}

void CompileCache::InsertDesign(const DesignKey& key,
                                const fpga::KernelDesign& design) {
  const std::scoped_lock lock(mu_);
  auto [it, inserted] = designs_.emplace(key, design);
  if (!inserted) return;  // racing miss: first insert wins
  it->second.kernel = nullptr;
  ++stats_.entries;
  stats_.bytes += DesignBytes(key, design);
}

std::optional<ir::BuiltKernel> CompileCache::LookupKernel(
    const std::string& key) {
  const std::scoped_lock lock(mu_);
  auto it = kernels_.find(keys_.Intern(key).view.data());
  if (it == kernels_.end()) {
    ++stats_.lower_misses;
    return std::nullopt;
  }
  ++stats_.lower_hits;
  return it->second;
}

void CompileCache::InsertKernel(const std::string& key,
                                const ir::BuiltKernel& built) {
  const std::scoped_lock lock(mu_);
  auto [it, inserted] = kernels_.emplace(keys_.Intern(key).view.data(), built);
  if (!inserted) return;
  ++stats_.entries;
  stats_.bytes += KernelBytes(key, built);
}

std::string CompileCache::StatsKeyFor(const std::string& content_key,
                                      bool autorun,
                                      const ir::Bindings& bindings) {
  std::vector<std::pair<std::string, std::int64_t>> bound;
  bound.reserve(bindings.size());
  for (const auto& [var, value] : bindings) {
    bound.emplace_back(var->name, value);
  }
  std::sort(bound.begin(), bound.end());
  std::string key = content_key;
  key += autorun ? "|stats:a" : "|stats";
  for (const auto& [name, value] : bound) {
    key += '|';
    key += name;
    key += '=';
    key += std::to_string(value);
  }
  return key;
}

std::optional<ir::KernelStats> CompileCache::LookupStats(
    const std::string& key) {
  const std::scoped_lock lock(mu_);
  auto it = kernel_stats_.find(keys_.Intern(key).view.data());
  if (it == kernel_stats_.end()) {
    ++stats_.stats_misses;
    return std::nullopt;
  }
  ++stats_.stats_hits;
  return it->second;
}

void CompileCache::InsertStats(const std::string& key,
                               const ir::KernelStats& stats) {
  const std::scoped_lock lock(mu_);
  auto [it, inserted] =
      kernel_stats_.emplace(keys_.Intern(key).view.data(), stats);
  if (!inserted) return;
  ++stats_.entries;
  stats_.bytes += StatsBytes(key, stats);
}

void CompileCache::Clear() {
  const std::scoped_lock lock(mu_);
  designs_.clear();
  kernels_.clear();
  kernel_stats_.clear();
  stats_.entries = 0;
  stats_.bytes = 0;
}

CompileCacheStats CompileCache::stats() const {
  const std::scoped_lock lock(mu_);
  return stats_;
}

void CompileCache::ExportMetrics(obs::Registry& registry,
                                 const std::string& prefix,
                                 const CompileCacheStats& base) const {
  const CompileCacheStats s = stats().Since(base);
  auto set = [&](const char* name, double v) {
    registry.gauge(prefix + name).Set(v);
  };
  set("hits", static_cast<double>(s.hits()));
  set("misses", static_cast<double>(s.misses()));
  set("hit_rate", s.hit_rate());
  set("design.hits", static_cast<double>(s.design_hits));
  set("design.misses", static_cast<double>(s.design_misses));
  set("lower.hits", static_cast<double>(s.lower_hits));
  set("lower.misses", static_cast<double>(s.lower_misses));
  set("stats.hits", static_cast<double>(s.stats_hits));
  set("stats.misses", static_cast<double>(s.stats_misses));
  set("entries", static_cast<double>(s.entries));
  set("bytes", static_cast<double>(s.bytes));
}

const std::shared_ptr<CompileCache>& CompileCache::SharedPtr() {
  static const auto* instance =
      new std::shared_ptr<CompileCache>(std::make_shared<CompileCache>());
  return *instance;
}

}  // namespace clflow::core
