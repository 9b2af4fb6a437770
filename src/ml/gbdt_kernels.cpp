// Scalar GBDT kernels (see gbdt_kernels.h): the one histogram accumulation
// loop, and the forest walk that is the parity reference for the AVX2 TU and
// the only form used when dispatch is off.
#include "ml/gbdt_kernels.h"

#include "ml/gbdt.h"

namespace helios::ml::kernels {

void hist_accumulate(const std::uint8_t* bins, const int* offset,
                     std::size_t p, const std::uint32_t* rows, std::size_t lo,
                     std::size_t hi, const std::int32_t* grad,
                     std::int64_t* h0, std::int64_t* h1) noexcept {
  std::size_t k = lo;
  for (; k + 1 < hi; k += 2) {
    const std::size_t r0 = rows[k];
    const std::size_t r1 = rows[k + 1];
    const std::uint8_t* rb0 = bins + r0 * p;
    const std::uint8_t* rb1 = bins + r1 * p;
    const std::int64_t g0 =
        (static_cast<std::int64_t>(grad[r0]) << kCountBits) | 1;
    const std::int64_t g1 =
        (static_cast<std::int64_t>(grad[r1]) << kCountBits) | 1;
    for (std::size_t f = 0; f < p; ++f) {
      h0[offset[f] + rb0[f]] += g0;
      h1[offset[f] + rb1[f]] += g1;
    }
  }
  for (; k < hi; ++k) {
    const std::uint8_t* rb = bins + rows[k] * p;
    const std::int64_t gp =
        (static_cast<std::int64_t>(grad[rows[k]]) << kCountBits) | 1;
    for (std::size_t f = 0; f < p; ++f) h0[offset[f] + rb[f]] += gp;
  }
}

double predict_forest_row_scalar(const PackedForest& forest,
                                 const std::uint8_t* bins, std::size_t p,
                                 std::size_t row, double learning_rate,
                                 double base) noexcept {
  const std::uint8_t* rb = bins + row * p;
  const std::int32_t D = forest.levels;
  const std::size_t slots = (std::size_t{1} << D) - 1;
  const std::size_t leaves = slots + 1;
  const double* value = forest.value.data();
  for (std::size_t t = 0; t < static_cast<std::size_t>(forest.n_trees); ++t) {
    const std::int32_t* sp = forest.split.data() + t * slots;
    // Implicit-heap walk: exactly D steps; phantom slots under shallow
    // leaves carry the dummy split 0xff, and both their subtrees replicate
    // the leaf, so the fixed-length descent lands on its value regardless.
    std::size_t i = 0;
    for (std::int32_t d = D; d > 0; --d) {
      const std::int32_t pk = sp[i];
      const std::size_t go_right =
          rb[static_cast<std::size_t>(pk >> 8)] > (pk & 0xff) ? 1u : 0u;
      i = 2 * i + 1 + go_right;
    }
    base += learning_rate * value[t * leaves + i - slots];
  }
  return base;
}

}  // namespace helios::ml::kernels
