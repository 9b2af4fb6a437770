// AVX2 form of the GBDT batched forest walk — the only translation unit
// compiled with -mavx2 (CMake sets the flag per-file when the compiler
// supports it; HELIOS_HAVE_AVX2 tells common::simd_compiled() the real body
// is here). Everything else in the library stays baseline-ISA, and this
// entry point is reached only behind common::simd_enabled(), so the binary
// runs on CPUs without AVX2.
//
// Intentionally compiled WITHOUT -mfma: predict_forest_avx2 must perform the
// same separate multiply-then-add the scalar walk does; a fused contraction
// would round once instead of twice and break bit-parity.
#include "ml/gbdt_kernels.h"

#include <cstdlib>

#include "ml/gbdt.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace helios::ml::kernels {

#if defined(__AVX2__)

namespace {

/// One heap-walk step for an 8-row lane group: gather the packed splits at
/// `idx` (relative to `sp`), gather the 8 rows' bins for the split features,
/// and advance idx = 2*idx + 1 + go_right. go_right lanes compare to -1, so
/// the advance is 2*idx + 1 - mask.
inline __m256i walk_step(const int* sp, const std::uint8_t* bins,
                         __m256i rowbase, __m256i idx, __m256i xff,
                         __m256i one) noexcept {
  const __m256i pk = _mm256_i32gather_epi32(sp, idx, 4);
  const __m256i addr = _mm256_add_epi32(rowbase, _mm256_srli_epi32(pk, 8));
  // uint8 load via 4-byte gather + mask; the plane is padded by
  // BinnedMatrix::kSimdPad so the overread past the last cell stays in
  // bounds.
  const __m256i bv = _mm256_and_si256(
      _mm256_i32gather_epi32(reinterpret_cast<const int*>(bins), addr, 1),
      xff);
  const __m256i right = _mm256_cmpgt_epi32(bv, _mm256_and_si256(pk, xff));
  return _mm256_sub_epi32(
      _mm256_add_epi32(_mm256_slli_epi32(idx, 1), one), right);
}

/// lr * value[vidx lane] accumulated into (acc_lo, acc_hi) — separate mul
/// then add (no FMA): the same two roundings as the scalar out[r] += lr *
/// value accumulation.
inline void accumulate_leaves(const double* value, __m256i vidx, __m256d lr,
                              __m256d& acc_lo, __m256d& acc_hi) noexcept {
  acc_lo = _mm256_add_pd(
      acc_lo, _mm256_mul_pd(lr, _mm256_i32gather_pd(
                                    value, _mm256_castsi256_si128(vidx), 8)));
  acc_hi = _mm256_add_pd(
      acc_hi, _mm256_mul_pd(lr, _mm256_i32gather_pd(
                                    value, _mm256_extracti128_si256(vidx, 1),
                                    8)));
}

}  // namespace

void predict_forest_avx2(const PackedForest& forest, const std::uint8_t* bins,
                         std::size_t p, std::size_t lo, std::size_t hi,
                         double learning_rate, double* out) noexcept {
  const int* split = forest.split.data();
  const double* value = forest.value.data();
  const std::int32_t D = forest.levels;
  const std::int32_t slots = (1 << D) - 1;   // interior heap slots per tree
  const std::int32_t leaves = slots + 1;     // 2^D leaf values per tree
  const auto n_trees = static_cast<std::size_t>(forest.n_trees);
  const __m256d lr = _mm256_set1_pd(learning_rate);
  const __m256i xff = _mm256_set1_epi32(0xff);
  const __m256i one = _mm256_set1_epi32(1);
  const auto ip = static_cast<int>(p);
  const __m256i lane_off =
      _mm256_mullo_epi32(_mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0),
                         _mm256_set1_epi32(ip));
  std::size_t r = lo;
  // Two 8-row groups x two trees in flight: the heap walk is a chain of
  // dependent gathers (split -> bins -> next idx), so a single group would
  // be latency-bound; four independent chains keep the gather ports busy.
  for (; r + 16 <= hi; r += 16) {
    const __m256i rbA = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(r) * ip), lane_off);
    const __m256i rbB = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(r + 8) * ip), lane_off);
    __m256d accA_lo = _mm256_loadu_pd(out + r);
    __m256d accA_hi = _mm256_loadu_pd(out + r + 4);
    __m256d accB_lo = _mm256_loadu_pd(out + r + 8);
    __m256d accB_hi = _mm256_loadu_pd(out + r + 12);
    std::size_t t = 0;
    for (; t + 2 <= n_trees; t += 2) {
      const int* sp0 = split + t * static_cast<std::size_t>(slots);
      const int* sp1 = sp0 + slots;
      __m256i iA0 = _mm256_setzero_si256();
      __m256i iB0 = _mm256_setzero_si256();
      __m256i iA1 = _mm256_setzero_si256();
      __m256i iB1 = _mm256_setzero_si256();
      for (std::int32_t d = D; d > 0; --d) {
        iA0 = walk_step(sp0, bins, rbA, iA0, xff, one);
        iB0 = walk_step(sp0, bins, rbB, iB0, xff, one);
        iA1 = walk_step(sp1, bins, rbA, iA1, xff, one);
        iB1 = walk_step(sp1, bins, rbB, iB1, xff, one);
      }
      // After D steps idx is in [slots, 2*slots]; leaf value index is
      // t*leaves + idx - slots.
      const __m256i v0 = _mm256_set1_epi32(
          static_cast<int>(t) * leaves - slots);
      const __m256i v1 = _mm256_add_epi32(v0, _mm256_set1_epi32(leaves));
      // Tree t strictly before tree t+1 per accumulator — the identical
      // double-precision add order as the scalar walk.
      accumulate_leaves(value, _mm256_add_epi32(iA0, v0), lr, accA_lo, accA_hi);
      accumulate_leaves(value, _mm256_add_epi32(iB0, v0), lr, accB_lo, accB_hi);
      accumulate_leaves(value, _mm256_add_epi32(iA1, v1), lr, accA_lo, accA_hi);
      accumulate_leaves(value, _mm256_add_epi32(iB1, v1), lr, accB_lo, accB_hi);
    }
    for (; t < n_trees; ++t) {  // odd forest size: last tree, two chains
      const int* sp = split + t * static_cast<std::size_t>(slots);
      __m256i iA = _mm256_setzero_si256();
      __m256i iB = _mm256_setzero_si256();
      for (std::int32_t d = D; d > 0; --d) {
        iA = walk_step(sp, bins, rbA, iA, xff, one);
        iB = walk_step(sp, bins, rbB, iB, xff, one);
      }
      const __m256i v0 = _mm256_set1_epi32(
          static_cast<int>(t) * leaves - slots);
      accumulate_leaves(value, _mm256_add_epi32(iA, v0), lr, accA_lo, accA_hi);
      accumulate_leaves(value, _mm256_add_epi32(iB, v0), lr, accB_lo, accB_hi);
    }
    _mm256_storeu_pd(out + r, accA_lo);
    _mm256_storeu_pd(out + r + 4, accA_hi);
    _mm256_storeu_pd(out + r + 8, accB_lo);
    _mm256_storeu_pd(out + r + 12, accB_hi);
  }
  for (; r < hi; ++r) {
    out[r] = predict_forest_row_scalar(forest, bins, p, r, learning_rate,
                                       out[r]);
  }
}

#else  // !defined(__AVX2__)

// The compiler cannot target AVX2: simd_compiled() is false, so this is
// unreachable. Aborting (rather than silently falling back) turns a broken
// dispatch gate into a loud failure.
void predict_forest_avx2(const PackedForest&, const std::uint8_t*, std::size_t,
                         std::size_t, std::size_t, double, double*) noexcept {
  std::abort();
}

#endif  // defined(__AVX2__)

}  // namespace helios::ml::kernels
