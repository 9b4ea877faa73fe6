// Shared implementation of the general-state-count kernels, templated on
// the SIMD pack width (W = 1 gives the scalar reference; W = 4 / 8 are
// instantiated in translation units compiled with the matching -m flags).
//
// newview keeps each S-long state transform in a tile of Pack<W> registers
// (paper Section V-B1/B3: the state loop stays in registers, FMAs only, no
// memory traffic between steps).  The tile is sized at compile time from
// NV = padded / W; rows wider than kTileVectors are cut into lane chunks,
// each running the full state loop.  Every output lane sees the same FMA
// sequence in the same order (zero coefficients skipped) whatever tile or
// chunk it falls in, so tiling never changes a bit of the result.  Pack<1>
// degenerates to clean scalar code, so one implementation serves as both
// reference and vectorized version.
#pragma once

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "src/core/general/general_kernels.hpp"
#include "src/simd/pack.hpp"
#include "src/util/error.hpp"

namespace miniphi::core {

template <int W>
struct GeneralSimdKernels {
  using P = simd::Pack<W>;
  static_assert(kMaxPaddedStates % W == 0);

  /// Accumulators per lane chunk: eight plus a broadcast and a row load fit
  /// the 16 vector registers of AVX2 and SSE2; on AVX-512 (32 registers)
  /// eight vectors already span kMaxPaddedStates, so it never chunks.  The
  /// tile loops carry `#pragma GCC unroll` so the tile arrays become
  /// registers at -O2 as well as -O3.
  static constexpr int kTileVectors = 8;

  /// Calls f(std::integral_constant<int, T>, lane) for the lane chunks that
  /// cover an NV-vector row, in increasing lane order.
  template <int NV, typename F>
  static inline void for_each_chunk(F&& f) {
    constexpr int kTile = std::min(NV, kTileVectors);
    for (int chunk = 0; chunk + kTile <= NV; chunk += kTile) {
      f(std::integral_constant<int, kTile>{}, chunk * W);
    }
    if constexpr (NV % kTile != 0) {
      f(std::integral_constant<int, NV % kTile>{}, (NV - NV % kTile) * W);
    }
  }

  /// acc[j] = Σ_k coef[k] · rows[k·padded + j·W], k < nrows, skipping zero
  /// coefficients; `rows` already points at the chunk's first lane.
  template <int T>
  static inline void transform_tile(const double* rows, const double* coef, int nrows,
                                    int padded, P (&acc)[T]) {
#pragma GCC unroll 8
    for (int j = 0; j < T; ++j) acc[j] = P::zero();
    for (int k = 0; k < nrows; ++k) {
      const double value = coef[k];
      if (value == 0.0) continue;
      const P broadcast = P::broadcast(value);
      const double* row = rows + static_cast<std::ptrdiff_t>(k) * padded;
#pragma GCC unroll 8
      for (int j = 0; j < T; ++j) acc[j] = P::fma(broadcast, P::load(row + j * W), acc[j]);
    }
  }

  /// One child's rate-c vector over the chunk starting at `lane`: the tip
  /// table row, or the transform of the child CLA through its P matrix.
  template <int T>
  static inline void child_tile(const GChildInput& child, const GeneralDims& dims,
                                std::int64_t s, int c, int lane, P (&acc)[T]) {
    const int padded = dims.padded;
    if (child.is_tip()) {
      const double* row =
          child.ump + (static_cast<std::ptrdiff_t>(child.codes[s]) * dims.rates + c) * padded;
#pragma GCC unroll 8
      for (int j = 0; j < T; ++j) acc[j] = P::load(row + lane + j * W);
    } else {
      transform_tile(child.ptable + static_cast<std::ptrdiff_t>(c) * dims.states * padded + lane,
                     child.cla + s * dims.block() + static_cast<std::ptrdiff_t>(c) * padded,
                     dims.states, padded, acc);
    }
  }

  template <int NV>
  static void newview_tiled(GNewviewCtx& ctx) {
    const GeneralDims dims = ctx.dims;
    const int padded = dims.padded;
    const int block = dims.block();
    const bool stream = ctx.tuning.streaming_stores;
    const std::int64_t dist = ctx.tuning.prefetch_distance;

    alignas(64) double x3[kMaxPaddedStates];

    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      if (dist > 0 && s + dist < ctx.end) {
        if (!ctx.left.is_tip()) simd::prefetch_read(ctx.left.cla + (s + dist) * block);
        if (!ctx.right.is_tip()) simd::prefetch_read(ctx.right.cla + (s + dist) * block);
      }

      double max_abs = 0.0;
      double* out = ctx.parent_cla + s * block;
      for (int c = 0; c < dims.rates; ++c) {
        // x3 = a ∘ b, chunk by chunk.
        for_each_chunk<NV>([&](auto tile, int lane) {
          constexpr int T = decltype(tile)::value;
          P acc[T];
          child_tile(ctx.left, dims, s, c, lane, acc);
#pragma GCC unroll 8
          for (int j = 0; j < T; ++j) acc[j].store(x3 + lane + j * W);
          child_tile(ctx.right, dims, s, c, lane, acc);
#pragma GCC unroll 8
          for (int j = 0; j < T; ++j) {
            (P::load(x3 + lane + j * W) * acc[j]).store(x3 + lane + j * W);
          }
        });

        // y3 = W x3 over eigen rows (padding lanes of wtable are 0).
        // max(0, |y|) == |y| bit for bit, so the zero start changes nothing.
        P vmax = P::zero();
        double* out_rate = out + static_cast<std::ptrdiff_t>(c) * padded;
        for_each_chunk<NV>([&](auto tile, int lane) {
          constexpr int T = decltype(tile)::value;
          P acc[T];
          transform_tile(ctx.wtable + lane, x3, dims.states, padded, acc);
#pragma GCC unroll 8
          for (int j = 0; j < T; ++j) {
            vmax = P::max(vmax, P::abs(acc[j]));
            if (stream) {
              acc[j].stream(out_rate + lane + j * W);
            } else {
              acc[j].store(out_rate + lane + j * W);
            }
          }
        });
        max_abs = std::max(max_abs, vmax.horizontal_max());
      }

      std::int32_t increment = 0;
      if (max_abs < kScaleThreshold) {
        // Rare: rescale the freshly written block in place.
        const P factor = P::broadcast(kScaleFactor);
        for (int k = 0; k < block; k += W) (P::load(out + k) * factor).store(out + k);
        increment = 1;
      }
      const std::int32_t left_scale = ctx.left.is_tip() ? 0 : ctx.left.scale[s];
      const std::int32_t right_scale = ctx.right.is_tip() ? 0 : ctx.right.scale[s];
      ctx.parent_scale[s] = left_scale + right_scale + increment;
    }
    if (stream) simd::stream_fence();
  }

  /// Tile dispatch: one instantiation per padded width 8, 16, ..., 64.
  template <int... M>
  static void newview_dispatch(GNewviewCtx& ctx, std::integer_sequence<int, M...>) {
    const bool found =
        ((ctx.dims.padded == 8 * (M + 1) && (newview_tiled<8 * (M + 1) / W>(ctx), true)) || ...);
    MINIPHI_CHECK(found, "general newview: padded state count must be a multiple of 8 up to " +
                             std::to_string(kMaxPaddedStates));
  }

  static void newview(GNewviewCtx& ctx) {
    newview_dispatch(ctx, std::make_integer_sequence<int, kMaxPaddedStates / 8>{});
  }

  static double evaluate(const GEvaluateCtx& ctx) {
    constexpr double kLikelihoodFloor = 1e-300;
    const GeneralDims dims = ctx.dims;
    const int block = dims.block();
    double total = 0.0;
    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      const double* yp = ctx.left_cla + s * block;
      P acc = P::zero();
      if (ctx.right_codes != nullptr) {
        const double* tab =
            ctx.evtab + static_cast<std::ptrdiff_t>(ctx.right_codes[s]) * block;
        for (int k = 0; k < block; k += W) {
          acc = P::fma(P::load(yp + k), P::load(tab + k), acc);
        }
      } else {
        const double* yq = ctx.right_cla + s * block;
        for (int k = 0; k < block; k += W) {
          acc = P::fma(P::load(yp + k) * P::load(yq + k), P::load(ctx.diag + k), acc);
        }
      }
      double site = std::max(acc.horizontal_sum(), kLikelihoodFloor);
      const std::int32_t scales = (ctx.left_scale ? ctx.left_scale[s] : 0) +
                                  (ctx.right_scale ? ctx.right_scale[s] : 0);
      total += ctx.weights[s] * (std::log(site) + scales * kLogScaleThreshold);
    }
    return total;
  }

  static void derivative_sum(GSumCtx& ctx) {
    const GeneralDims dims = ctx.dims;
    const int block = dims.block();
    const bool stream = ctx.tuning.streaming_stores;
    const std::int64_t dist = ctx.tuning.prefetch_distance;
    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      if (dist > 0 && s + dist < ctx.end) {
        simd::prefetch_read(ctx.left_cla + (s + dist) * block);
        if (ctx.right_cla != nullptr) simd::prefetch_read(ctx.right_cla + (s + dist) * block);
      }
      const double* yp = ctx.left_cla + s * block;
      const double* yq = (ctx.right_codes != nullptr)
                             ? ctx.tipvec + static_cast<std::ptrdiff_t>(ctx.right_codes[s]) * block
                             : ctx.right_cla + s * block;
      double* out = ctx.sum + s * block;
      for (int k = 0; k < block; k += W) {
        const P prod = P::load(yp + k) * P::load(yq + k);
        if (stream) {
          prod.stream(out + k);
        } else {
          prod.store(out + k);
        }
      }
    }
    if (stream) simd::stream_fence();
  }

  static void derivative_core(GDerivCtx& ctx) {
    constexpr double kLikelihoodFloor = 1e-300;
    const GeneralDims dims = ctx.dims;
    const int block = dims.block();
    const double* d0 = ctx.dtab;
    const double* d1 = ctx.dtab + block;
    const double* d2 = ctx.dtab + 2 * block;
    double first = 0.0;
    double second = 0.0;
    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      const double* sb = ctx.sum + s * block;
      P a0 = P::zero();
      P a1 = P::zero();
      P a2 = P::zero();
      for (int k = 0; k < block; k += W) {
        const P v = P::load(sb + k);
        a0 = P::fma(v, P::load(d0 + k), a0);
        a1 = P::fma(v, P::load(d1 + k), a1);
        a2 = P::fma(v, P::load(d2 + k), a2);
      }
      const double l0 = std::max(a0.horizontal_sum(), kLikelihoodFloor);
      const double inv = 1.0 / l0;
      const double t1 = a1.horizontal_sum() * inv;
      const double t2 = a2.horizontal_sum() * inv;
      const double w = ctx.weights[s];
      first += w * t1;
      second += w * (t2 - t1 * t1);
    }
    ctx.out_first = first;
    ctx.out_second = second;
  }

  static GeneralKernelOps ops(simd::Isa isa) {
    GeneralKernelOps out;
    out.newview = &newview;
    out.evaluate = &evaluate;
    out.derivative_sum = &derivative_sum;
    out.derivative_core = &derivative_core;
    out.isa = isa;
    return out;
  }
};

}  // namespace miniphi::core
