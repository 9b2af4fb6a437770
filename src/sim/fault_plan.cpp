#include "sim/fault_plan.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/rng.h"
#include "serialize/binary.h"

namespace helios::sim {

namespace {

/// SplitMix64-style finalizer decorrelating (seed, vc, node) substreams.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Sort key: recoveries before failures at equal times (capacity returns
/// before it is removed), node index as the final tie-break.
bool event_before(const NodeFaultEvent& a, const NodeFaultEvent& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  if (a.recovery != b.recovery) return a.recovery;
  return a.node < b.node;
}

constexpr std::uint32_t kFaultPlanTag = serialize::fourcc("FPLN");
constexpr std::uint32_t kFaultPlanVersion = 1;

}  // namespace

FaultPlan FaultPlan::generate(const trace::ClusterSpec& spec,
                              const FaultPlanConfig& config, UnixTime begin,
                              UnixTime end) {
  FaultPlan plan;
  plan.config_ = config;
  plan.begin_ = begin;
  plan.end_ = end;
  plan.events_.resize(spec.vcs.size());
  plan.flaky_.resize(spec.vcs.size());
  if (end <= begin || config.mtbf_days <= 0.0) {
    for (std::size_t vi = 0; vi < spec.vcs.size(); ++vi) {
      plan.flaky_[vi].assign(
          static_cast<std::size_t>(spec.vcs[vi].nodes), 0);
    }
    return plan;
  }
  const double base_rate = 1.0 / (config.mtbf_days * 86400.0);
  const std::int64_t mean_extra =
      std::max<std::int64_t>(1, config.mean_downtime - config.min_downtime);
  for (std::size_t vi = 0; vi < spec.vcs.size(); ++vi) {
    const int n_nodes = spec.vcs[vi].nodes;
    plan.flaky_[vi].assign(static_cast<std::size_t>(n_nodes), 0);
    auto& events = plan.events_[vi];
    for (int node = 0; node < n_nodes; ++node) {
      Rng rng(mix64(config.seed, (static_cast<std::uint64_t>(vi) << 32) |
                                     static_cast<std::uint64_t>(node)));
      const bool flaky = rng.bernoulli(config.flaky_fraction);
      plan.flaky_[vi][static_cast<std::size_t>(node)] = flaky ? 1 : 0;
      const double rate =
          base_rate * (flaky ? std::max(1.0, config.flaky_multiplier) : 1.0);
      std::int64_t t = begin;
      for (;;) {
        t += std::max<std::int64_t>(
            1, static_cast<std::int64_t>(rng.exponential(rate)));
        if (t >= end) break;
        events.push_back({t, node, /*recovery=*/false});
        ++plan.failure_count_;
        const std::int64_t down =
            config.min_downtime +
            std::max<std::int64_t>(
                0, static_cast<std::int64_t>(
                       rng.exponential(1.0 / static_cast<double>(mean_extra))));
        t += std::max<std::int64_t>(1, down);
        if (t >= end) break;  // repair crosses the horizon: node stays down
        events.push_back({t, node, /*recovery=*/true});
      }
    }
    std::sort(events.begin(), events.end(), event_before);
  }
  return plan;
}

FaultPlan FaultPlan::from_events(
    const trace::ClusterSpec& spec, UnixTime begin, UnixTime end,
    std::vector<std::vector<NodeFaultEvent>> events) {
  FaultPlan plan;
  plan.begin_ = begin;
  plan.end_ = end;
  events.resize(spec.vcs.size());
  plan.events_ = std::move(events);
  plan.flaky_.resize(spec.vcs.size());
  for (std::size_t vi = 0; vi < spec.vcs.size(); ++vi) {
    plan.flaky_[vi].assign(static_cast<std::size_t>(spec.vcs[vi].nodes), 0);
    auto& vc_events = plan.events_[vi];
    std::sort(vc_events.begin(), vc_events.end(), event_before);
    for (const NodeFaultEvent& e : vc_events) {
      if (!e.recovery) ++plan.failure_count_;
    }
  }
  return plan;
}

bool FaultPlan::is_flaky(int vc, int node) const noexcept {
  if (vc < 0 || vc >= vc_count()) return false;
  const auto& f = flaky_[static_cast<std::size_t>(vc)];
  if (node < 0 || node >= static_cast<int>(f.size())) return false;
  return f[static_cast<std::size_t>(node)] != 0;
}

FaultPlan FaultPlan::clipped(UnixTime t0, UnixTime t1) const {
  FaultPlan out;
  out.config_ = config_;
  out.begin_ = std::max(begin_, t0);
  out.end_ = std::min(end_, t1);
  out.flaky_ = flaky_;
  out.events_.resize(events_.size());
  for (std::size_t vi = 0; vi < events_.size(); ++vi) {
    for (const NodeFaultEvent& e : events_[vi]) {
      if (e.time < t0 || e.time >= t1) continue;
      out.events_[vi].push_back(e);
      if (!e.recovery) ++out.failure_count_;
    }
  }
  return out;
}

void FaultPlan::save(serialize::Writer& w) const {
  w.begin_section(kFaultPlanTag);
  w.u32(kFaultPlanVersion);
  w.f64(config_.mtbf_days);
  w.f64(config_.flaky_fraction);
  w.f64(config_.flaky_multiplier);
  w.i64(config_.mean_downtime);
  w.i64(config_.min_downtime);
  w.u64(config_.seed);
  w.i64(begin_);
  w.i64(end_);
  w.u32(static_cast<std::uint32_t>(events_.size()));
  for (std::size_t vi = 0; vi < events_.size(); ++vi) {
    w.u64(flaky_[vi].size());
    for (const char f : flaky_[vi]) w.u8(f != 0 ? 1 : 0);
    w.u64(events_[vi].size());
    for (const NodeFaultEvent& e : events_[vi]) {
      w.i64(e.time);
      w.i32(e.node);
      w.u8(e.recovery ? 1 : 0);
    }
  }
  w.end_section();
}

void FaultPlan::load(serialize::Reader& r) {
  serialize::Reader s = r.section(kFaultPlanTag);
  const std::uint32_t version = s.u32();
  if (version != kFaultPlanVersion) {
    throw serialize::Error(serialize::ErrorCode::kUnsupportedVersion,
                           "fault plan section version " +
                               std::to_string(version));
  }
  // Stage into locals so a throw mid-read cannot leave a half-loaded plan.
  FaultPlanConfig config;
  config.mtbf_days = s.f64();
  config.flaky_fraction = s.f64();
  config.flaky_multiplier = s.f64();
  config.mean_downtime = s.i64();
  config.min_downtime = s.i64();
  config.seed = s.u64();
  const UnixTime begin = s.i64();
  const UnixTime end = s.i64();
  const std::uint32_t n_vcs = s.u32();
  // Each VC carries at least its two u64 counts: reject a hostile VC count
  // before it sizes the per-VC vectors.
  if (n_vcs > s.remaining() / 16) {
    throw serialize::Error(serialize::ErrorCode::kTruncated,
                           "fault plan declares " + std::to_string(n_vcs) +
                               " vcs beyond the remaining payload");
  }
  std::vector<std::vector<NodeFaultEvent>> events(n_vcs);
  std::vector<std::vector<char>> flaky(n_vcs);
  std::size_t failures = 0;
  for (std::uint32_t vi = 0; vi < n_vcs; ++vi) {
    const std::size_t n_nodes = s.length(1);
    flaky[vi].resize(n_nodes);
    for (std::size_t ni = 0; ni < n_nodes; ++ni) {
      flaky[vi][ni] = s.u8() != 0 ? 1 : 0;
    }
    const std::size_t n_events = s.length(13);  // i64 + i32 + u8 per event
    events[vi].reserve(n_events);
    std::int64_t prev_time = std::numeric_limits<std::int64_t>::min();
    for (std::size_t ei = 0; ei < n_events; ++ei) {
      NodeFaultEvent e;
      e.time = s.i64();
      e.node = s.i32();
      e.recovery = s.u8() != 0;
      if (e.time < prev_time) {
        throw serialize::Error(serialize::ErrorCode::kCorrupt,
                               "fault plan events out of order in vc " +
                                   std::to_string(vi));
      }
      prev_time = e.time;
      if (e.node < 0 || static_cast<std::size_t>(e.node) >= n_nodes) {
        throw serialize::Error(serialize::ErrorCode::kCorrupt,
                               "fault plan node " + std::to_string(e.node) +
                                   " out of range in vc " + std::to_string(vi));
      }
      if (!e.recovery) ++failures;
      events[vi].push_back(e);
    }
  }
  s.close("fault plan");
  config_ = config;
  begin_ = begin;
  end_ = end;
  events_ = std::move(events);
  flaky_ = std::move(flaky);
  failure_count_ = failures;
}

}  // namespace helios::sim
