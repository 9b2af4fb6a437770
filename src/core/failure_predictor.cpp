#include "core/failure_predictor.h"

#include <algorithm>
#include <utility>

namespace helios::core {

void FailurePredictor::fit(const trace::ClusterSpec& spec,
                           const sim::FaultPlan& history) {
  const ml::Dataset data =
      ml::build_failure_dataset(spec, history, config_.dataset);
  ml::GBDTRegressor model(config_.gbdt);
  if (!data.empty()) model.fit(data);
  model_ = std::move(model);
}

double FailurePredictor::risk(const ml::NodeFailureHistory& history, int vc,
                              int node, std::int64_t at) const {
  const auto row = history.features(vc, node, at);
  return model_.predict(row);
}

std::vector<std::vector<std::int32_t>> FailurePredictor::rank_nodes(
    const trace::ClusterSpec& spec, const sim::FaultPlan& history,
    std::int64_t at) const {
  const ml::NodeFailureHistory index(spec, history);
  std::vector<std::vector<std::int32_t>> order(spec.vcs.size());
  for (std::size_t vi = 0; vi < spec.vcs.size(); ++vi) {
    const int n_nodes = spec.vcs[vi].nodes;
    std::vector<std::pair<double, std::int32_t>> scored;
    scored.reserve(static_cast<std::size_t>(n_nodes));
    for (int node = 0; node < n_nodes; ++node) {
      const double r = trained()
                           ? risk(index, static_cast<int>(vi), node, at)
                           : 0.0;
      scored.emplace_back(r, node);
    }
    // Ascending risk; node id breaks ties, so an uninformative model (or an
    // untrained predictor) degrades to the allocator's default id order.
    std::sort(scored.begin(), scored.end());
    auto& vc_order = order[vi];
    vc_order.reserve(scored.size());
    for (const auto& [r, node] : scored) vc_order.push_back(node);
  }
  return order;
}

}  // namespace helios::core
