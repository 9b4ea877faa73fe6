// Ablation (paper Section V-B): the individual kernel optimizations,
// measured with the real kernels on this host via google-benchmark:
//   * ISA back-end (scalar vs AVX2 vs AVX-512) — V-B1/V-B3 vectorization
//   * streaming stores on/off — V-B5
//   * software prefetch distance 0/4/8/16 — V-B6
//   * the general-state newview at S = 20 (protein, Section VII) per ISA,
//     in cache and RAM-resident, with GFLOP/s from the analytic counts in
//     platform::general_kernel_profile
#include <benchmark/benchmark.h>

#include <memory>

#include "src/bio/aa.hpp"
#include "src/core/general/general_kernels.hpp"
#include "src/core/general/general_tables.hpp"
#include "src/core/kernels.hpp"
#include "src/core/ptable.hpp"
#include "src/model/general.hpp"
#include "src/model/gtr.hpp"
#include "src/platform/cost_model.hpp"
#include "src/util/aligned.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace miniphi;

constexpr std::int64_t kSites = 1 << 17;  // 128 K sites ≈ 16 MB per CLA: RAM-resident

struct Fixture {
  AlignedDoubles left = AlignedDoubles(static_cast<std::size_t>(kSites) * core::kSiteBlock);
  AlignedDoubles right = AlignedDoubles(left.size());
  AlignedDoubles out = AlignedDoubles(left.size());
  std::vector<std::int32_t> left_scale = std::vector<std::int32_t>(kSites, 0);
  std::vector<std::int32_t> right_scale = left_scale;
  std::vector<std::int32_t> out_scale = left_scale;
  AlignedDoubles ptable1 = AlignedDoubles(core::kPtableSize);
  AlignedDoubles ptable2 = AlignedDoubles(core::kPtableSize);
  AlignedDoubles wtable;

  Fixture() {
    Rng rng(5);
    for (auto& value : left) value = rng.uniform(0.1, 1.0);
    for (auto& value : right) value = rng.uniform(0.1, 1.0);
    const model::GtrModel model(model::GtrParams::jc69(0.9));
    core::build_ptable(model, 0.08, ptable1);
    core::build_ptable(model, 0.21, ptable2);
    wtable = core::build_wtable(model);
  }
};

Fixture& fixture() {
  static Fixture instance;
  return instance;
}

simd::Isa isa_from_index(std::int64_t index) {
  switch (index) {
    case 0: return simd::Isa::kScalar;
    case 1: return simd::Isa::kAvx2;
    default: return simd::Isa::kAvx512;
  }
}

void BM_Newview(benchmark::State& state) {
  const auto isa = isa_from_index(state.range(0));
  if (!simd::isa_supported(isa)) {
    state.SkipWithError("ISA not supported on this host");
    return;
  }
  auto& f = fixture();
  const auto ops = core::get_kernel_ops(isa);
  core::NewviewCtx ctx;
  ctx.parent_cla = f.out.data();
  ctx.parent_scale = f.out_scale.data();
  ctx.left = {f.left.data(), f.left_scale.data(), nullptr, f.ptable1.data(), nullptr};
  ctx.right = {f.right.data(), f.right_scale.data(), nullptr, f.ptable2.data(), nullptr};
  ctx.wtable = f.wtable.data();
  ctx.end = kSites;
  ctx.tuning.streaming_stores = state.range(1) != 0;
  ctx.tuning.prefetch_distance = static_cast<int>(state.range(2));
  for (auto _ : state) {
    ops.newview(ctx);
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kSites);
  state.SetLabel(simd::to_string(isa) + (ctx.tuning.streaming_stores ? "/stream" : "/plain") +
                 "/pf" + std::to_string(ctx.tuning.prefetch_distance));
}
// ISA sweep with default tuning, then tuning ablations on the widest ISA.
BENCHMARK(BM_Newview)
    ->Args({0, 1, 8})
    ->Args({1, 1, 8})
    ->Args({2, 1, 8})
    ->Args({2, 0, 8})
    ->Args({2, 1, 0})
    ->Args({2, 1, 4})
    ->Args({2, 1, 16});

void BM_DerivativeSum(benchmark::State& state) {
  const auto isa = isa_from_index(state.range(0));
  if (!simd::isa_supported(isa)) {
    state.SkipWithError("ISA not supported on this host");
    return;
  }
  auto& f = fixture();
  const auto ops = core::get_kernel_ops(isa);
  core::SumCtx ctx;
  ctx.sum = f.out.data();
  ctx.left_cla = f.left.data();
  ctx.right_cla = f.right.data();
  ctx.end = kSites;
  ctx.tuning.streaming_stores = state.range(1) != 0;
  ctx.tuning.prefetch_distance = static_cast<int>(state.range(2));
  for (auto _ : state) {
    ops.derivative_sum(ctx);
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kSites);
  state.SetLabel(simd::to_string(isa) + (ctx.tuning.streaming_stores ? "/stream" : "/plain") +
                 "/pf" + std::to_string(ctx.tuning.prefetch_distance));
}
BENCHMARK(BM_DerivativeSum)
    ->Args({0, 1, 8})
    ->Args({1, 1, 8})
    ->Args({2, 1, 8})
    ->Args({2, 0, 8})
    ->Args({2, 1, 0});

/// Protein (20 states, Poisson + Γ) newview inputs built with the engine's
/// own table builders, for `sites` patterns.
struct GeneralFixture {
  model::GeneralModel model = model::GeneralModel::poisson(20, 0.8);
  core::GeneralDims dims = core::general_dims(model);
  std::int64_t sites;
  AlignedDoubles left;
  AlignedDoubles right;
  AlignedDoubles out;
  std::vector<std::int32_t> scale;
  std::vector<std::int32_t> out_scale;
  std::vector<std::uint8_t> codes;
  AlignedDoubles ptable1 = AlignedDoubles(core::gptable_size(dims));
  AlignedDoubles ptable2 = AlignedDoubles(core::gptable_size(dims));
  AlignedDoubles ump1;
  AlignedDoubles wtable = core::build_general_wtable(model);

  explicit GeneralFixture(std::int64_t count) : sites(count) {
    const auto block = static_cast<std::size_t>(dims.block());
    left.resize(static_cast<std::size_t>(sites) * block);
    right.resize(left.size());
    out.resize(left.size());
    scale.assign(static_cast<std::size_t>(sites), 0);
    out_scale = scale;
    codes.resize(static_cast<std::size_t>(sites));
    Rng rng(9);
    const auto padded = static_cast<std::size_t>(dims.padded);
    for (std::size_t i = 0; i < left.size(); ++i) {
      const bool padding = static_cast<int>(i % padded) >= dims.states;
      left[i] = padding ? 0.0 : rng.uniform(0.1, 1.0);
      right[i] = padding ? 0.0 : rng.uniform(0.1, 1.0);
    }
    for (auto& code : codes) code = static_cast<std::uint8_t>(rng.below(bio::kAaStates));
    core::build_general_ptable(model, 0.08, ptable1);
    core::build_general_ptable(model, 0.21, ptable2);
    const auto masks = bio::aa_code_masks();
    ump1.resize(core::gblock_table_size(dims, masks.size()));
    core::build_general_ump(model, ptable1, masks, ump1);
  }
};

constexpr std::int64_t kGeneralInCacheSites = 1 << 10;  // 768 KB per CLA
constexpr std::int64_t kGeneralRamSites = 1 << 16;      // 48 MB per CLA: past L3

GeneralFixture& general_fixture(std::int64_t sites) {
  static GeneralFixture in_cache(kGeneralInCacheSites);
  static GeneralFixture ram(kGeneralRamSites);
  return sites == kGeneralInCacheSites ? in_cache : ram;
}

/// Args: ISA index, pattern count, left child a tip (0/1).
void BM_GeneralNewview(benchmark::State& state) {
  const auto isa = isa_from_index(state.range(0));
  if (!simd::isa_supported(isa)) {
    state.SkipWithError("ISA not supported on this host");
    return;
  }
  auto& f = general_fixture(state.range(1));
  const bool left_tip = state.range(2) != 0;
  const auto ops = core::get_general_kernel_ops(isa);
  core::GNewviewCtx ctx;
  ctx.parent_cla = f.out.data();
  ctx.parent_scale = f.out_scale.data();
  ctx.left = {f.left.data(), f.scale.data(), left_tip ? f.codes.data() : nullptr,
              f.ptable1.data(), f.ump1.data()};
  ctx.right = {f.right.data(), f.scale.data(), nullptr, f.ptable2.data(), nullptr};
  ctx.wtable = f.wtable.data();
  ctx.dims = f.dims;
  ctx.end = f.sites;
  for (auto _ : state) {
    ops.newview(ctx);
    benchmark::DoNotOptimize(f.out.data());
  }
  const auto sites = static_cast<double>(state.iterations()) * static_cast<double>(f.sites);
  const platform::KernelProfile profile = platform::general_kernel_profile(
      core::TraceKernel::kNewview, f.dims.states, f.dims.rates, left_tip, false);
  state.counters["ns_per_site"] =
      benchmark::Counter(sites * 1e-9, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["GFLOPs"] = benchmark::Counter(sites * profile.flops * 1e-9,
                                                benchmark::Counter::kIsRate);
  state.SetLabel(simd::to_string(isa) + (left_tip ? "/tip-inner" : "/inner-inner") +
                 (f.sites == kGeneralRamSites ? "/ram" : "/in-cache"));
}
BENCHMARK(BM_GeneralNewview)
    ->ArgsProduct({{0, 1, 2}, {kGeneralInCacheSites, kGeneralRamSites}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
