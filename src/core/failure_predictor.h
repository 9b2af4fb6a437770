// Failure-aware node ranking service: GBDT risk scores over per-node
// failure history, feeding the simulator's placement preference.
//
// Trains the histogram GBDT (ml/gbdt.h) on rows from
// ml::build_failure_dataset — per-node failure history at sampled times,
// labeled with "fails within the horizon" — then ranks every node of every
// VC by predicted risk. The ranking plugs straight into
// sim::SimConfig::node_order: VC nodes are homogeneous, so placing in
// risk-ascending order makes the consolidating allocator fill predicted-
// healthy nodes first and leave the predicted-flaky ones as the idle slack,
// which is exactly where a failure costs nothing.
//
// Determinism: fit(), risk(), and rank_nodes() are pure functions of their
// inputs and the fitted model (the GBDT itself is bit-identical across
// thread counts); ranking ties break by node id. The predictor has no file
// format: it is refit from the observed failure history.
//
// Thread-safety: fit() mutates and must be exclusive; the const members are
// safe to share once training completes. fit() parallelizes on the shared
// global_pool() via GBDTRegressor::fit.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/failure_dataset.h"
#include "ml/gbdt.h"
#include "sim/fault_plan.h"
#include "trace/cluster_config.h"

namespace helios::core {

struct FailurePredictorConfig {
  ml::FailureDatasetConfig dataset;
  ml::GBDTConfig gbdt = [] {
    ml::GBDTConfig g;
    g.n_trees = 60;
    g.max_depth = 4;
    g.min_samples_leaf = 10;
    return g;
  }();
};

class FailurePredictor {
 public:
  explicit FailurePredictor(FailurePredictorConfig config = {})
      : config_(std::move(config)) {}

  /// Train on an observed failure history (typically FaultPlan::clipped of
  /// the deployment window's past). Replaces any previous model.
  void fit(const trace::ClusterSpec& spec, const sim::FaultPlan& history);

  /// Predicted risk of (vc, node) failing within config.dataset.horizon of
  /// `at`, given the history. Raw GBDT regression output on 0/1 labels —
  /// comparable across nodes, not a calibrated probability.
  [[nodiscard]] double risk(const ml::NodeFailureHistory& history, int vc,
                            int node, std::int64_t at) const;

  /// Per-VC node ranking by ascending predicted risk at `at` (ties by node
  /// id, so a predictor with nothing to distinguish returns identity).
  /// Directly assignable to sim::SimConfig::node_order.
  [[nodiscard]] std::vector<std::vector<std::int32_t>> rank_nodes(
      const trace::ClusterSpec& spec, const sim::FaultPlan& history,
      std::int64_t at) const;

  [[nodiscard]] bool trained() const noexcept { return model_.trained(); }
  [[nodiscard]] const ml::GBDTRegressor& model() const noexcept {
    return model_;
  }
  [[nodiscard]] const FailurePredictorConfig& config() const noexcept {
    return config_;
  }

 private:
  FailurePredictorConfig config_;
  ml::GBDTRegressor model_;
};

}  // namespace helios::core
