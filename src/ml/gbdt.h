// Hand-rolled histogram gradient-boosted decision trees (regression,
// squared loss) — the library's stand-in for LightGBM, which the paper uses
// for both the QSSF duration model and the CES node forecaster.
//
// Training follows the histogram algorithm: features are quantile-binned once
// (<= max_bins buckets); each tree picks splits from per-feature gradient
// histograms by best variance gain; leaves output the shrunk mean residual.
// Row subsampling per tree gives stochastic boosting.
//
// Two engines share the scaffolding (binning, row caps, subsampling,
// residuals — identical RNG streams) and must produce bit-identical models:
//
//  * GBDTEngine::kHistogram (default) keeps persistent per-node row sets,
//    builds only the smaller child's histograms and derives the sibling by
//    subtracting from the parent, accumulates histograms row-parallel into
//    per-chunk buffers merged on the shared ThreadPool, and tracks each
//    sampled row's leaf during construction so the per-tree prediction
//    update is an O(1) lookup per row over the binned matrix. A node
//    histogram holds separate int64 gradient sums and row counts; the
//    accumulation kernel (ml/gbdt_kernels.h) packs both into one int64 per
//    bucket only within runs of at most 16384 rows, so training-set size is
//    unbounded.
//  * GBDTEngine::kReference retains the straightforward pre-histogram-engine
//    trainer: every node rebuilds its histograms from scratch and the
//    prediction update re-traverses raw features row by row. It exists as
//    the parity baseline (mirroring common::ExecMode::kSerial).
//
// Bit-for-bit parity across engines and thread counts is possible because
// per-tree gradients are quantized to int64 (QuantizedGradients): integer
// histogram sums are exact under any accumulation order and under sibling
// subtraction, so split decisions and leaf values cannot drift.
//
// The batched predict_many walk additionally has an AVX2 form
// (ml/gbdt_kernels.h) selected at runtime via common::simd_enabled(); it
// performs the same mul/add per row as the scalar walk, so dispatch changes
// speed only. Training has one scalar kernel and never reads the dispatch.
//
// Determinism: fit() is a pure function of (dataset, config) — the same
// inputs produce the same trees bit-for-bit on any thread count and either
// engine (test_prediction_parity pins this). predict()/predict_many() are
// pure functions of the fitted model, and a model restored via load() (see
// docs/FORMATS.md, "GBDT" section) predicts bit-identically to the original
// (test_serialize pins this).
//
// Thread-safety: fit() and load() mutate the model and must not race with
// anything; the const members (predict, predict_many, accessors) are safe to
// call concurrently from any number of threads once training/loading has
// completed. fit() and predict_many() internally parallelize on the shared
// global_pool(); like every pool driver they may be called from anywhere,
// pool tasks included.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"

namespace helios::serialize {
class Reader;
class Writer;
}  // namespace helios::serialize

namespace helios::ml {

enum class GBDTEngine {
  kHistogram,  ///< sibling-subtraction histogram engine (default)
  kReference,  ///< retained from-scratch trainer (parity/benchmark baseline)
};

struct GBDTConfig {
  int n_trees = 80;
  int max_depth = 6;
  double learning_rate = 0.10;
  int min_samples_leaf = 20;
  double subsample = 0.8;   ///< row fraction per tree
  int max_bins = 64;        ///< clamped to 256 (bin ids travel as uint8)
  double lambda = 1.0;      ///< L2 regularisation on leaf values
  std::uint64_t seed = 42;
  /// Cap on training rows (uniform subsample above it); 0 = no cap.
  std::size_t max_training_rows = 0;
  GBDTEngine engine = GBDTEngine::kHistogram;
};

/// Per-tree gradients quantized to a fixed-point int64 grid. The scale is a
/// power of two chosen so the sum over every training row cannot overflow;
/// int64 histogram sums are then exact and order-independent, which is what
/// makes engine/thread-count parity bit-for-bit instead of approximate.
struct QuantizedGradients {
  /// Per-row quantized gradient; fits int32 by construction (the scale caps
  /// |q| below 2^30), halving the memory traffic of every histogram pass.
  std::vector<std::int32_t> q;
  double inv_scale = 1.0;  ///< exact power of two; value = q * inv_scale

  /// Requantize in place (reuses the q buffer across boosting iterations).
  void assign(std::span<const double> gradients);
  /// Same, with max|gradient| already known (callers fuse the scan into the
  /// residual pass).
  void assign(std::span<const double> gradients, double max_abs);

  [[nodiscard]] static QuantizedGradients from(std::span<const double> gradients) {
    QuantizedGradients out;
    out.assign(gradients);
    return out;
  }
};

/// One regression tree over binned features (used internally by the GBDT and
/// exposed for unit testing).
class RegressionTree {
 public:
  struct Node {
    // Leaf iff feature < 0.
    std::int32_t feature = -1;
    std::int32_t split_bin = -1;  ///< go left iff bin(value) <= split_bin
    double threshold = 0.0;  ///< raw-unit equivalent: go left iff value <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;  ///< leaf output
    double gain = 0.0;   ///< split gain (for feature importance)
  };

  /// Fit to the quantized gradients of `rows` over the binned matrix
  /// (row-major for kHistogram, column-major for kReference). `rows` is the
  /// persistent row set, partitioned in place per node. `leaf_of` must have
  /// X.rows entries; the leaf node id of every row in `rows` is recorded
  /// there (other entries are left untouched).
  void fit(const BinnedMatrix& x, const FeatureBinner& binner,
           const QuantizedGradients& grad, std::span<std::uint32_t> rows,
           std::span<std::int32_t> leaf_of, const GBDTConfig& cfg);

  [[nodiscard]] double predict(std::span<const double> features) const noexcept;
  /// Leaf node id reached by binned traversal of `row` (exactly the leaf
  /// predict() reaches on the raw values, since bin <= split_bin iff
  /// value <= threshold).
  [[nodiscard]] std::int32_t leaf_for_binned(const BinnedMatrix& x,
                                             std::size_t row) const noexcept;
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }

  /// Persist / restore the node array ("TREE" section, docs/FORMATS.md).
  /// load() validates the tree shape (preorder child links, exactly one
  /// parent per non-root node, in-range feature ids against `n_features`) so
  /// a corrupt file cannot make predict() read out of bounds or loop
  /// forever, nor make predict_many() disagree with predict(); it throws
  /// serialize::Error instead.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r, std::size_t n_features);

 private:
  std::vector<Node> nodes_;
};

/// Implicit-heap SoA layout of a fitted forest for the SIMD predict walk.
///
/// Every tree is padded to the forest-wide depth `levels` (leaves shallower
/// than that are replicated into both phantom children all the way down), so
/// a walk needs no child pointers at all: from heap slot i the next slot is
/// 2*i + 1 + go_right, and after `levels` steps the slot index maps straight
/// into the per-tree leaf-value row. The inner predict step is two
/// dependent gathers (split, bins) plus pure arithmetic. Node depths come
/// from parent links, which is why RegressionTree::load() refuses a node
/// with two parents.
///
/// Memory is n_trees * (2^levels - 1) int32 splits + n_trees * 2^levels
/// double leaves; build() refuses forests deeper than kMaxLevels (leaving
/// the forest empty, which routes predict_many to the scalar tree-at-a-time
/// path instead).
struct PackedForest {
  std::int32_t n_trees = 0;
  std::int32_t levels = 0;          ///< uniform padded depth of every tree
  std::vector<std::int32_t> split;  ///< n_trees x (2^levels - 1), heap order;
                                    ///< (feature << 8) | split_bin, phantom
                                    ///< slots hold 0xff (feature 0, bin 255)
  std::vector<double> value;        ///< n_trees x 2^levels deepest-level leaves

  static constexpr std::int32_t kMaxLevels = 12;

  /// Rebuild from fitted trees (replaces any previous layout).
  void build(std::span<const RegressionTree> trees);
  [[nodiscard]] bool empty() const noexcept { return n_trees == 0; }
};

class GBDTRegressor {
 public:
  explicit GBDTRegressor(GBDTConfig config = {}) : config_(config) {}

  /// Train on the dataset; replaces any previous model.
  void fit(const Dataset& data);

  [[nodiscard]] double predict(std::span<const double> features) const noexcept;
  /// Batched inference: bins `data` once and walks it tree-at-a-time,
  /// row-parallel. Bitwise-identical to calling predict() per row.
  [[nodiscard]] std::vector<double> predict_many(const Dataset& data) const;

  /// Total split gain accumulated per feature.
  [[nodiscard]] std::vector<double> feature_importance() const;

  /// Training RMSE after each boosting iteration (for convergence tests).
  [[nodiscard]] const std::vector<double>& training_rmse() const noexcept {
    return train_rmse_;
  }
  [[nodiscard]] const GBDTConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool trained() const noexcept { return !trees_.empty(); }
  [[nodiscard]] std::size_t tree_count() const noexcept { return trees_.size(); }
  [[nodiscard]] const std::vector<RegressionTree>& trees() const noexcept {
    return trees_;
  }
  [[nodiscard]] const FeatureBinner& binner() const noexcept { return binner_; }
  /// SoA node layout the SIMD predict path walks (rebuilt by fit()/load()).
  [[nodiscard]] const PackedForest& forest() const noexcept { return forest_; }

  /// Persist the fitted model ("GBDT" section, docs/FORMATS.md): config,
  /// base prediction, binner edges, every tree, and the training-RMSE
  /// curve. Wrap with serialize::save_file for the on-disk frame.
  void save(serialize::Writer& w) const;
  /// Replace this model with the persisted one. The loaded model predicts
  /// bit-identically to the saved one (predict and predict_many). Throws
  /// serialize::Error on malformed input, leaving no partially-adopted
  /// state behind.
  void load(serialize::Reader& r);

 private:
  GBDTConfig config_;
  double base_prediction_ = 0.0;
  std::size_t n_features_ = 0;
  FeatureBinner binner_;
  std::vector<RegressionTree> trees_;
  std::vector<double> train_rmse_;
  PackedForest forest_;  // derived from trees_; rebuilt by fit()/load()
};

}  // namespace helios::ml
