// Marquee-user fairness service (paper Implication #7).
//
// §3.3 finds that a handful of "marquee users" bear most of the cluster's
// queuing delay (in Uranus, the top 1% of users — three people — bear over
// 70% of the queuing time) without being top resource consumers, and
// recommends that "the scheduler can dynamically adjust temporary priorities
// to users, especially to the marquee ones, based on their current job
// queuing statuses". This service implements that recommendation as a third
// service beside QSSF and CES: it watches per-user queuing-delay
// and GPU-time shares on the operated history and exposes a priority
// multiplier that boosts (shrinks the QSSF priority value of) marquee users'
// jobs.
#pragma once

#include <string>
#include <unordered_map>

#include "sim/simulator.h"
#include "trace/trace.h"

namespace helios::core {

struct MarqueeConfig {
  /// A user is "marquee" when they bear more than this share of the
  /// cluster's total queuing delay...
  double queue_share_threshold = 0.05;
  /// ...while consuming less than this share of total GPU time (heavy
  /// consumers queuing a lot is expected, not unfair).
  double gpu_share_ceiling = 0.10;
  /// Multiplier applied to a marquee user's job priority values (QSSF runs
  /// the lowest value first, so < 1 boosts them).
  double priority_boost = 0.5;
};

class MarqueeService {
 public:
  explicit MarqueeService(MarqueeConfig config = {}) : config_(config) {}

  /// Recompute marquee users from an *operated* trace (start times must
  /// reflect a real schedule, e.g. sim::operate_fifo output).
  void update(const trace::Trace& operated);

  [[nodiscard]] bool is_marquee(const std::string& user) const;
  [[nodiscard]] std::size_t marquee_count() const noexcept {
    return marquee_.size();
  }

  /// Priority multiplier for one job (priority_boost for marquee users'
  /// jobs, 1.0 otherwise).
  [[nodiscard]] double multiplier(const trace::Trace& t,
                                  const trace::JobRecord& job) const;

  /// Wrap a base priority function (e.g. the QSSF evaluator's) with the
  /// marquee adjustment; `t` must outlive the returned function.
  [[nodiscard]] sim::PriorityFn adjust(sim::PriorityFn base,
                                       const trace::Trace& t) const;

  [[nodiscard]] const MarqueeConfig& config() const noexcept { return config_; }

 private:
  MarqueeConfig config_;
  std::unordered_map<std::string, bool> marquee_;
};

}  // namespace helios::core
