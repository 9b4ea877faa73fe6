// Direct kernel probe: each of the four PLF kernels on every compiled ISA,
// over inner-inner inputs at an in-cache and a DRAM-sized pattern count.
// Bytes and flops per site are the analytic counts of src/platform (the
// ones platform_test asserts), so the bandwidth is computed, not measured
// by hardware counters.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/core/kernels.hpp"
#include "src/platform/cost_model.hpp"
#include "src/util/aligned.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kInCachePatterns = 4096;      // 512 KiB per CLA
constexpr std::int64_t kDramPatterns = 256 * 1024;   // 32 MiB per CLA

struct ProbeBuffers {
  explicit ProbeBuffers(std::int64_t patterns)
      : n(patterns),
        left(static_cast<std::size_t>(patterns) * 16),
        right(left.size()),
        parent(left.size()),
        sum(left.size()),
        left_scale(static_cast<std::size_t>(patterns), 0),
        right_scale(left_scale.size(), 0),
        parent_scale(left_scale.size(), 0),
        weights(left_scale.size(), 1u),
        table(64, 0.25),
        diag(16, 1.0 / 16.0),
        dtab(48, 0.5) {
    for (std::size_t i = 0; i < left.size(); ++i) {
      left[i] = 0.1 + 0.8 * static_cast<double>(i % 13) / 13.0;
      right[i] = 0.2 + 0.7 * static_cast<double>(i % 11) / 11.0;
      parent[i] = 0.0;
      sum[i] = 0.0;
    }
  }
  std::int64_t n;
  miniphi::AlignedDoubles left, right, parent, sum;
  std::vector<std::int32_t> left_scale, right_scale, parent_scale;
  std::vector<std::uint32_t> weights;
  miniphi::AlignedDoubles table, diag, dtab;
};

/// Best per-call seconds of `call` over at least `min_reps` calls and
/// `min_seconds` of work.
double best_call_seconds(const std::function<void()>& call, int min_reps, double min_seconds) {
  call();  // warm up caches and page tables
  double best = 1e30;
  const double start = now_s();
  for (int rep = 0; rep < min_reps || now_s() - start < min_seconds; ++rep) {
    const double t0 = now_s();
    call();
    best = std::min(best, now_s() - t0);
  }
  return best;
}

/// Per-call seconds of each kernel, in core::Kernel order.
std::vector<double> time_kernels(const core::KernelOps& ops, ProbeBuffers& b, int min_reps,
                                 double min_seconds) {
  double sink = 0.0;
  std::vector<double> seconds;
  seconds.push_back(best_call_seconds(
      [&] {
        core::NewviewCtx ctx;
        ctx.parent_cla = b.parent.data();
        ctx.parent_scale = b.parent_scale.data();
        ctx.left.cla = b.left.data();
        ctx.left.scale = b.left_scale.data();
        ctx.left.ptable = b.table.data();
        ctx.right.cla = b.right.data();
        ctx.right.scale = b.right_scale.data();
        ctx.right.ptable = b.table.data();
        ctx.wtable = b.table.data();
        ctx.end = b.n;
        ops.newview(ctx);
      },
      min_reps, min_seconds));
  seconds.push_back(best_call_seconds(
      [&] {
        core::EvaluateCtx ctx;
        ctx.left_cla = b.left.data();
        ctx.left_scale = b.left_scale.data();
        ctx.right_cla = b.right.data();
        ctx.right_scale = b.right_scale.data();
        ctx.diag = b.diag.data();
        ctx.weights = b.weights.data();
        ctx.end = b.n;
        sink += ops.evaluate(ctx);
      },
      min_reps, min_seconds));
  seconds.push_back(best_call_seconds(
      [&] {
        core::SumCtx ctx;
        ctx.sum = b.sum.data();
        ctx.left_cla = b.left.data();
        ctx.right_cla = b.right.data();
        ctx.end = b.n;
        ops.derivative_sum(ctx);
      },
      min_reps, min_seconds));
  seconds.push_back(best_call_seconds(
      [&] {
        core::DerivCtx ctx;
        ctx.sum = b.sum.data();
        ctx.weights = b.weights.data();
        ctx.dtab = b.dtab.data();
        ctx.end = b.n;
        ops.derivative_core(ctx);
        sink += ctx.out_first;
      },
      min_reps, min_seconds));
  if (sink == 12345.678) std::fprintf(stderr, "probe sink\n");
  return seconds;
}

}  // namespace

std::string run_kernel_probe(Report& report, double triad_gbps) {
  const char* kernel_names[] = {"newview", "evaluate", "derivsum", "derivcore"};
  const core::TraceKernel trace_kernels[] = {core::TraceKernel::kNewview,
                                             core::TraceKernel::kEvaluate,
                                             core::TraceKernel::kDerivSum,
                                             core::TraceKernel::kDerivCore};
  const std::pair<const char*, miniphi::simd::Isa> isas[] = {
      {"scalar", miniphi::simd::Isa::kScalar},
      {"avx2", miniphi::simd::Isa::kAvx2},
      {"avx512", miniphi::simd::Isa::kAvx512}};
  std::ostringstream block;
  block << "{\"probe\": {\"in_cache_patterns\": " << kInCachePatterns
        << ", \"dram_patterns\": " << kDramPatterns << ", \"inputs\": \"inner x inner\"";
  for (int k = 0; k < 4; ++k) {
    const miniphi::platform::KernelProfile profile =
        miniphi::platform::kernel_profile(trace_kernels[k], false, false);
    block << ", \"" << kernel_names[k] << "\": {\"bytes_per_site_computed\": "
          << profile.bytes_read + profile.bytes_written
          << ", \"flops_per_site_computed\": " << profile.flops << "}";
  }
  block << "}}";
  ProbeBuffers in_cache(kInCachePatterns);
  ProbeBuffers dram(kDramPatterns);
  for (const auto& [isa_name, isa] : isas) {
    core::KernelOps ops;
    try {
      ops = core::get_kernel_ops(isa);
    } catch (const std::exception&) {
      continue;  // not compiled in or not supported here: metrics stay 0
    }
    const ScopedSpan span("probe.kernels");
    const std::vector<double> small = time_kernels(ops, in_cache, 5, 0.02);
    const std::vector<double> large = time_kernels(ops, dram, 4, 0.05);
    for (int k = 0; k < 4; ++k) {
      const std::string base = std::string("core.") + kernel_names[k] + "." + isa_name;
      const double ns_small = small[static_cast<std::size_t>(k)] * 1e9 / kInCachePatterns;
      const double ns_large = large[static_cast<std::size_t>(k)] * 1e9 / kDramPatterns;
      const miniphi::platform::KernelProfile profile =
          miniphi::platform::kernel_profile(trace_kernels[k], false, false);
      const double bytes = profile.bytes_read + profile.bytes_written;
      const double gbps = bytes / ns_large;  // bytes per ns == GB/s
      report.set(base + ".incache_ns_per_site", ns_small);
      report.set(base + ".ns_per_site", ns_large);
      report.set(base + ".gbps_computed", gbps);
      report.set(base + ".roofline_frac", triad_gbps > 0.0 ? gbps / triad_gbps : 0.0);
    }
  }
  return block.str();
}

}  // namespace perfbench
