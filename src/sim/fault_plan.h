// Deterministic node-failure/recovery schedules for the simulator.
//
// The paper's §3.3 final-status breakdown shows a large fraction of Helios
// GPU jobs end failed or killed, and "Prediction of GPU Failures Under Deep
// Learning Workloads" (Liu et al.) attributes much of that to unhealthy
// nodes failing repeatedly. A FaultPlan models that: per node, failures
// arrive as a Poisson process (exponential inter-arrival, per-node MTBF) and
// each failure takes the node down for an exponential repair time. A
// configurable fraction of nodes is "flaky" — their failure rate is
// multiplied — which concentrates failures on few nodes exactly as observed,
// and is the signal the failure predictor (core/failure_predictor.h) learns.
//
// Determinism: every node draws from its own RNG substream derived from
// (seed, vc, node), so the plan is a pure function of (spec, config, window)
// — independent of generation order, sharding, or thread count. Events are
// grouped per VC and time-sorted, matching the VC-sharded simulator: a shard
// consumes only its own VC's stream, so common::ExecMode::kParallel and kSerial
// replay identical event sequences.
//
// Failures whose repair would complete after the plan window never emit a
// recovery event: the node stays down past the horizon (dead hardware), the
// common source of jobs still queued when the simulation ends.
//
// A plan has no file format: it is regenerated from (spec, config, window),
// or rebuilt from an explicit event list with from_events().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/cluster_config.h"

namespace helios::sim {

/// What happens to the work of a job killed by a node failure when the
/// simulator requeues it.
enum class FaultRestart {
  kRestart,  ///< lose all progress: the job runs its full duration again
  kResume,   ///< checkpoint semantics: only the remaining work is redone
};

struct FaultPlanConfig {
  /// Mean time between failures of a healthy node, in days.
  double mtbf_days = 60.0;
  /// Fraction of nodes whose failure rate is multiplied by flaky_multiplier.
  double flaky_fraction = 0.0;
  double flaky_multiplier = 8.0;
  /// Repair time: min_downtime + Exp(mean_downtime - min_downtime) seconds.
  std::int64_t mean_downtime = 4 * 3600;
  std::int64_t min_downtime = 300;
  std::uint64_t seed = 1;
};

/// One scheduled event. `node` is the VC-local node index (0-based position
/// within the VC), so a per-VC shard needs no global renumbering.
struct NodeFaultEvent {
  std::int64_t time = 0;
  std::int32_t node = 0;
  bool recovery = false;  ///< false = node fails, true = node returns

  [[nodiscard]] friend bool operator==(const NodeFaultEvent&,
                                       const NodeFaultEvent&) = default;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Generate the schedule for every node of `spec` over [begin, end).
  [[nodiscard]] static FaultPlan generate(const trace::ClusterSpec& spec,
                                          const FaultPlanConfig& config,
                                          UnixTime begin, UnixTime end);

  /// Build a plan from explicit per-VC event lists — replayed maintenance
  /// logs or hand-built scenarios. Events are sorted into canonical order
  /// (time, recoveries first, node); out-of-range VC lists are dropped and
  /// flaky flags default to false.
  [[nodiscard]] static FaultPlan from_events(
      const trace::ClusterSpec& spec, UnixTime begin, UnixTime end,
      std::vector<std::vector<NodeFaultEvent>> events);

  [[nodiscard]] bool empty() const noexcept {
    return failure_count_ == 0;
  }
  [[nodiscard]] int vc_count() const noexcept {
    return static_cast<int>(events_.size());
  }
  /// Time-sorted events of one VC (recoveries before failures at equal
  /// times; node index breaks remaining ties).
  [[nodiscard]] std::span<const NodeFaultEvent> vc_events(int vc) const noexcept {
    if (vc < 0 || vc >= vc_count()) return {};
    return events_[static_cast<std::size_t>(vc)];
  }
  [[nodiscard]] std::size_t failure_count() const noexcept {
    return failure_count_;
  }
  /// Whether (vc, node) drew the elevated failure rate.
  [[nodiscard]] bool is_flaky(int vc, int node) const noexcept;
  [[nodiscard]] UnixTime window_begin() const noexcept { return begin_; }
  [[nodiscard]] UnixTime window_end() const noexcept { return end_; }

  /// Keep only events in [t0, t1) — e.g. the observed history a failure
  /// predictor may train on. Window narrows to the intersection.
  [[nodiscard]] FaultPlan clipped(UnixTime t0, UnixTime t1) const;

  [[nodiscard]] friend bool operator==(const FaultPlan& a, const FaultPlan& b) {
    return a.begin_ == b.begin_ && a.end_ == b.end_ &&
           a.events_ == b.events_ && a.flaky_ == b.flaky_;
  }

 private:
  UnixTime begin_ = 0;
  UnixTime end_ = 0;
  std::vector<std::vector<NodeFaultEvent>> events_;  ///< per VC, time-sorted
  std::vector<std::vector<char>> flaky_;             ///< per VC, per node
  std::size_t failure_count_ = 0;
};

}  // namespace helios::sim
