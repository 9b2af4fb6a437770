// The GBDT engine's two hot kernels. Histogram accumulation has one scalar
// form; the batched forest walk has a scalar and an AVX2 form, picked
// through common::simd_enabled() (common/simd.h). The AVX2 definition lives
// in gbdt_kernels_avx2.cpp, the only translation unit compiled with -mavx2,
// so the rest of the library stays baseline-ISA.
//
//  * hist_accumulate: pure int64 adds into packed (grad << kCountBits) | 1
//    buckets over one run of rows. Integer addition is associative and
//    commutative, so the result is exact whatever the row order or arena.
//  * predict_forest_*: for each row, accumulates out = ((out + lr*v_tree0) +
//    lr*v_tree1) + ... in tree order with separate multiply and add — the
//    identical double-precision operation sequence in both forms (the AVX2
//    TU is compiled without -mfma and uses explicit mul/add intrinsics, so
//    no fused contraction can sneak in). Dispatch changes speed only.
//
// predict_forest_avx2 must only be called when common::simd_supported() is
// true; on a binary built without AVX2 support it is an aborting stub.
#pragma once

#include <cstddef>
#include <cstdint>

namespace helios::ml {

struct PackedForest;

namespace kernels {

/// Bits a packed histogram bucket reserves for its row count: a bucket
/// holds (gradient_sum << kCountBits) + row_count, so one integer add
/// updates both fields. A run must stay below 2^kCountBits rows.
inline constexpr int kCountBits = 24;

/// Accumulate rows[lo, hi) of the row-major uint8 bin plane into two packed
/// histogram arenas h0/h1 (each `total_bins` buckets; the caller adds h1 to
/// h0): h[offset[f] + bins[r*p + f]] += (grad[r] << kCountBits) | 1 for
/// every feature f. Alternating rows between the arenas hides the
/// store-to-load forward that serializes consecutive same-bucket updates.
void hist_accumulate(const std::uint8_t* bins, const int* offset,
                     std::size_t p, const std::uint32_t* rows, std::size_t lo,
                     std::size_t hi, const std::int32_t* grad,
                     std::int64_t* h0, std::int64_t* h1) noexcept;

/// One row's forest walk over the implicit-heap SoA layout: returns base
/// plus lr * leaf_value summed tree-at-a-time. `bins` is the row-major uint8
/// plane. This is the scalar twin of (and the tail handler for) the blocked
/// AVX2 walk below.
[[nodiscard]] double predict_forest_row_scalar(const PackedForest& forest,
                                               const std::uint8_t* bins,
                                               std::size_t p, std::size_t row,
                                               double learning_rate,
                                               double base) noexcept;

/// AVX2 batched walk over rows [lo, hi): blocks of 16 rows (two 8-row lane
/// groups) walk trees two at a time through the implicit heap — gather
/// packed splits, gather the rows' bins for the split features, compare,
/// advance idx = 2*idx + 1 + go_right, repeat forest.levels times — then
/// gather leaf values and accumulate into out[r] in tree order. The four
/// independent walk chains hide the latency of the dependent split->bins
/// gather pair. Rows left over under the block width fall back to
/// predict_forest_row_scalar. Requires the bins plane padded by
/// BinnedMatrix::kSimdPad and rows*p + p <= INT32_MAX (callers guard).
void predict_forest_avx2(const PackedForest& forest, const std::uint8_t* bins,
                         std::size_t p, std::size_t lo, std::size_t hi,
                         double learning_rate, double* out) noexcept;

}  // namespace kernels
}  // namespace helios::ml
