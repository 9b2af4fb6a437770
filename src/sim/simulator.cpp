#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "sim/bucket_integrator.h"
#include "sim/peak_power.h"
#include "sim/vc_simulator.h"

namespace helios::sim {

using trace::JobRecord;
using trace::Trace;

namespace {

/// The digest behind outcomes_digest and SimResult::outcomes_digest:
/// MurmurHash3 x64-128's block step over two 64-bit words per block and its
/// finalizer. The count is the first block; each outcome is three blocks,
/// with its 32-bit fields packed in pairs.
class OutcomeHasher {
 public:
  explicit OutcomeHasher(std::size_t count) noexcept {
    block(static_cast<std::uint64_t>(count), 0);
  }

  void add(const JobOutcome& o) noexcept {
    block(static_cast<std::uint64_t>(o.trace_index),
          static_cast<std::uint64_t>(o.submit));
    block(static_cast<std::uint64_t>(o.start), static_cast<std::uint64_t>(o.end));
    block(pack(o.gpus, o.kills), pack(o.vc, o.rejected ? 1 : 0));
  }

  [[nodiscard]] OutcomesDigest finish() noexcept {
    h1_ += h2_;
    h2_ += h1_;
    h1_ = fmix(h1_);
    h2_ = fmix(h2_);
    h1_ += h2_;
    h2_ += h1_;
    return {h1_, h2_};
  }

 private:
  static constexpr std::uint64_t kC1 = 0x87c37b91114253d5ull;
  static constexpr std::uint64_t kC2 = 0x4cf5ad432745937full;

  static std::uint64_t pack(std::int32_t lo, std::int32_t hi) noexcept {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(lo)) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32;
  }

  static std::uint64_t fmix(std::uint64_t k) noexcept {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
  }

  void block(std::uint64_t k1, std::uint64_t k2) noexcept {
    h1_ ^= std::rotl(k1 * kC1, 31) * kC2;
    h1_ = (std::rotl(h1_, 27) + h2_) * 5 + 0x52dce729;
    h2_ ^= std::rotl(k2 * kC2, 33) * kC1;
    h2_ = (std::rotl(h2_, 31) + h1_) * 5 + 0x38495ab5;
  }

  std::uint64_t h1_ = 0;
  std::uint64_t h2_ = 0;
};

}  // namespace

OutcomesDigest outcomes_digest(std::span<const JobOutcome> outcomes) noexcept {
  OutcomeHasher h(outcomes.size());
  for (const JobOutcome& o : outcomes) h.add(o);
  return h.finish();
}

std::string_view to_string(SchedulerPolicy p) noexcept {
  switch (p) {
    case SchedulerPolicy::kFifo:
      return "FIFO";
    case SchedulerPolicy::kSjf:
      return "SJF";
    case SchedulerPolicy::kSrtf:
      return "SRTF";
    case SchedulerPolicy::kQssf:
      return "QSSF";
  }
  return "?";
}

std::span<const SchedulerPolicy> all_policies() noexcept {
  static constexpr SchedulerPolicy kAll[] = {
      SchedulerPolicy::kFifo, SchedulerPolicy::kSjf, SchedulerPolicy::kSrtf,
      SchedulerPolicy::kQssf};
  return kAll;
}

SchedulerPolicy policy_from_string(std::string_view name) {
  std::string upper(name);
  for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  for (SchedulerPolicy p : all_policies()) {
    if (upper == to_string(p)) return p;
  }
  throw std::invalid_argument("unknown scheduler policy: " + std::string(name));
}

ClusterSimulator::ClusterSimulator(trace::ClusterSpec spec, SimConfig config)
    : spec_(std::move(spec)), config_(std::move(config)) {}

SimResult ClusterSimulator::run(const Trace& t) const {
  SimResult result;
  const std::size_t n_vcs = spec_.vcs.size();

  // Map trace VC-interner ids -> cluster-spec VC indices.
  std::vector<int> vc_of_id(t.vcs().size(), -1);
  for (int vi = 0; vi < static_cast<int>(n_vcs); ++vi) {
    const auto id = t.vcs().find(spec_.vcs[static_cast<std::size_t>(vi)].name);
    if (id != StringInterner::kNotFound) vc_of_id[id] = vi;
  }

  // Collect GPU jobs (trace is sorted by submit time), pre-fill their
  // outcomes in trace order, and route each to its VC shard. Jobs whose VC
  // is not in the cluster spec are rejected immediately, exactly as the
  // event loop used to do on arrival.
  UnixTime window_begin = 0;
  UnixTime window_end = 1;
  std::vector<std::vector<std::size_t>> vc_arrivals(n_vcs);
  result.outcomes.reserve(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const JobRecord& j = t.jobs()[i];
    if (!j.is_gpu_job()) continue;
    if (result.outcomes.empty()) window_begin = j.submit_time;
    window_end = std::max<UnixTime>(window_end, j.submit_time + j.duration + 1);
    JobOutcome o;
    o.trace_index = i;
    o.submit = j.submit_time;
    o.gpus = j.num_gpus;
    o.vc = j.vc < vc_of_id.size() ? vc_of_id[j.vc] : -1;
    const std::size_t oi = result.outcomes.size();
    if (o.vc < 0) {
      o.rejected = true;
      o.start = o.submit;
      o.end = o.submit;
      ++result.rejected_jobs;
    } else {
      vc_arrivals[static_cast<std::size_t>(o.vc)].push_back(oi);
    }
    result.outcomes.push_back(o);
  }

  PowerController* const controller = config_.power_controller;
  if (controller != nullptr) {
    window_begin = controller->window_begin;
    window_end = controller->window_end;
    if (controller->tick_interval <= 0) {
      throw std::invalid_argument("power controller tick interval must be positive");
    }
  }

  // One shard per VC; each owns its nodes, queue, and series accumulators,
  // so shards share no mutable state and may run concurrently. A VC without
  // GPU jobs gets a shard too: its segments bill the idle baseline, and a
  // power controller may sleep its nodes.
  std::vector<std::unique_ptr<VcSimulator>> shards;
  shards.reserve(n_vcs);
  for (std::size_t vi = 0; vi < n_vcs; ++vi) {
    shards.push_back(VcSimulator::create(spec_, static_cast<int>(vi), config_,
                                         window_begin, t, vc_arrivals[vi],
                                         result.outcomes));
  }
  // A tick barrier holds microseconds of shard work, less than a fork-join
  // costs, so each tick advances its due shards inline in VC order; only the
  // final drain forks. Shards are independent between ticks, so the result
  // is the same under either exec mode.
  if (controller != nullptr) {
    for (std::int64_t tick = window_begin + controller->tick_interval;
         tick < window_end; tick += controller->tick_interval) {
      for (auto& shard : shards) {
        if (shard->next_event() <= tick) shard->advance(tick);
      }
      controller->on_tick(shards, tick);
    }
  }
  if (config_.execution == common::ExecMode::kSerial || shards.size() <= 1) {
    for (auto& shard : shards) shard->advance(std::numeric_limits<std::int64_t>::max());
  } else {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards.size());
    for (auto& shard : shards) {
      tasks.push_back(
          [&shard] { shard->advance(std::numeric_limits<std::int64_t>::max()); });
    }
    parallel_run_tasks(std::move(tasks));
  }

  // Deterministic merge in VC order. Every busy-segment term is an exact
  // integer product of a count and a duration (see bucket_integrator.h), so
  // the merged count series equal a serial accumulation bit-for-bit. The
  // power terms may carry non-integer watts (gpu_watts_fn, cap shares), but
  // this loop runs serially in VC order under BOTH exec modes, so the
  // accumulation order — and with it every double — is identical for
  // kSerial/kParallel. One pass per VC log feeds the three count columns
  // through one integrator and bills the power interval, clamped to the
  // exact window.
  CountIntegrator counts_acc(window_begin, window_end, config_.series_step);
  BucketIntegrator power_acc(window_begin, window_end, config_.series_step);
  std::vector<double> vc_energy(n_vcs, 0.0);
  std::vector<std::span<const BusySegment>> logs(n_vcs);
  // A controller's window is exact: nothing after window_end enters a
  // series. Without one, the series run to the end of their last bucket.
  const UnixTime series_end = controller != nullptr
                                  ? window_end
                                  : std::numeric_limits<UnixTime>::max();
  for (std::size_t vi = 0; vi < n_vcs; ++vi) {
    const VcSimulator::Counters counters = shards[vi]->finish();
    logs[vi] = shards[vi]->segments();
    for (const BusySegment& seg : logs[vi]) {
      counts_acc.add(seg.t0, std::min(seg.t1, series_end),
                     {seg.nodes, seg.gpus, seg.active});
      const UnixTime t0 = std::max(seg.t0, window_begin);
      const UnixTime t1 = std::min(seg.t1, window_end);
      if (t1 <= t0 || seg.watts == 0.0) continue;
      vc_energy[vi] += seg.watts * static_cast<double>(t1 - t0);
      power_acc.add(t0, t1, seg.watts);
    }
    result.preemptions += counters.preemptions;
    result.rejected_jobs += counters.rejected;
    result.job_kills += counters.kills;
    result.node_failures += counters.failures;
  }
  auto counts = std::move(counts_acc).mean_series();
  result.busy_nodes = std::move(counts[0]);
  result.busy_gpus = std::move(counts[1]);
  result.active_nodes = std::move(counts[2]);
  result.power_watts = std::move(power_acc).mean_series();
  for (std::size_t vi = 0; vi < n_vcs; ++vi) {
    result.energy_joules += vc_energy[vi];
  }
  result.peak_power_watts.begin = window_begin;
  result.peak_power_watts.step = config_.series_step;
  result.peak_power_watts.values =
      peak_power_series(logs, window_begin, window_end, config_.series_step);
  for (double v : result.peak_power_watts.values) {
    result.max_power_watts = std::max(result.max_power_watts, v);
  }

  // ---- metrics ----------------------------------------------------------
  // Only means and counts are reported; plain integer sums are exact (JCTs
  // and delays are whole seconds) and avoid a streaming-moments division per
  // job. The same pass feeds every outcome into the digest.
  struct MeanAcc {
    std::int64_t sum = 0;
    std::int64_t count = 0;
    [[nodiscard]] double mean() const noexcept {
      return count > 0
                 ? static_cast<double>(sum) / static_cast<double>(count)
                 : 0.0;
    }
  };
  MeanAcc jct;
  MeanAcc delay;
  std::vector<MeanAcc> vc_delay(n_vcs);
  std::vector<MeanAcc> vc_jct(n_vcs);
  OutcomeHasher digest(result.outcomes.size());
  for (const auto& o : result.outcomes) {
    digest.add(o);
    if (o.rejected) continue;
    if (o.start == trace::kNeverStarted || o.end == trace::kNeverStarted) {
      // Never started inside the horizon (or killed by a failure and never
      // rescheduled): no completion time exists, so the job cannot enter the
      // JCT/delay means — but it *was* delayed past any threshold, so it
      // counts as queued instead of vanishing from the stats entirely.
      ++result.unfinished_jobs;
      ++result.queued_jobs;
      continue;
    }
    jct.sum += o.jct();
    ++jct.count;
    delay.sum += o.queue_delay();
    ++delay.count;
    if (o.queue_delay() >= config_.queued_threshold) ++result.queued_jobs;
    if (o.vc >= 0) {
      auto& vd = vc_delay[static_cast<std::size_t>(o.vc)];
      auto& vj = vc_jct[static_cast<std::size_t>(o.vc)];
      vd.sum += o.queue_delay();
      ++vd.count;
      vj.sum += o.jct();
      ++vj.count;
    }
  }
  result.outcomes_digest = digest.finish();
  result.avg_jct = jct.mean();
  result.avg_queue_delay = delay.mean();
  result.vc_stats.reserve(n_vcs);
  for (std::size_t vi = 0; vi < n_vcs; ++vi) {
    VCStat s;
    s.name = spec_.vcs[vi].name;
    s.gpus = spec_.vcs[vi].total_gpus();
    s.jobs = vc_jct[vi].count;
    s.avg_queue_delay = vc_delay[vi].mean();
    s.avg_jct = vc_jct[vi].mean();
    s.energy_joules = vc_energy[vi];
    result.vc_stats.push_back(std::move(s));
  }
  return result;
}

std::size_t apply_schedule(Trace& t, const SimResult& result) {
  std::size_t updated = 0;
  for (const auto& o : result.outcomes) {
    // Rejected jobs carry start == submit as a sentinel for reporting, but
    // they never ran — writing that back would fabricate a schedule for a
    // job the cluster refused (and count it as updated).
    if (o.rejected || o.start == trace::kNeverStarted) continue;
    t.jobs()[o.trace_index].start_time = o.start;
    ++updated;
  }
  return updated;
}

SimResult operate_fifo(Trace& t, std::int64_t series_step) {
  SimConfig cfg;
  cfg.policy = SchedulerPolicy::kFifo;
  cfg.series_step = series_step;
  cfg.backfill = true;  // match the production scheduler's behaviour
  ClusterSimulator sim(t.cluster(), cfg);
  SimResult r = sim.run(t);
  apply_schedule(t, r);
  return r;
}

}  // namespace helios::sim
