#include "analysis/cluster_stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "common/civil_time.h"
#include "sim/bucket_integrator.h"

namespace helios::analysis {

using trace::JobRecord;
using trace::Trace;

namespace {

/// Adds job `j`'s busy interval, clipped to end at `end`, to `acc` (which
/// clips the start). CPU jobs and jobs that never started add nothing.
void add_busy(sim::BucketIntegrator& acc, const JobRecord& j, UnixTime end) {
  if (!j.started() || j.num_gpus <= 0) return;
  acc.add(j.start_time, std::min<UnixTime>(j.end_time(), end),
          static_cast<double>(j.num_gpus));
}

/// `busy` divided by `capacity` (when positive), sorted ascending. Busy
/// GPU-seconds are exact non-negative integers with at most step x VC GPUs
/// distinct values on a feasible schedule, so a counting sort over them
/// replaces the comparison sort; positive division preserves order, so the
/// result equals sorting the divided samples bit for bit. Key ranges much
/// wider than the sample count (over-committed schedules) sort instead.
std::vector<double> sorted_utilization(std::vector<double> busy,
                                       double capacity) {
  const auto scale = [capacity](double v) {
    return capacity > 0.0 ? v / capacity : v;
  };
  const double max_busy =
      busy.empty() ? 0.0 : *std::max_element(busy.begin(), busy.end());
  if (max_busy > 4.0 * static_cast<double>(busy.size()) + 65536.0) {
    for (double& v : busy) v = scale(v);
    std::sort(busy.begin(), busy.end());
    return busy;
  }
  std::vector<std::uint32_t> count(static_cast<std::size_t>(max_busy) + 1, 0);
  for (const double v : busy) ++count[static_cast<std::size_t>(v)];
  auto out = busy.begin();
  for (std::size_t key = 0; key < count.size(); ++key) {
    out = std::fill_n(out, count[key], scale(static_cast<double>(key)));
  }
  return busy;
}

}  // namespace

std::vector<double> busy_gpu_seconds(const Trace& t, UnixTime begin, UnixTime end,
                                     std::int64_t step, const JobPredicate& pred) {
  if (end <= begin) return {};
  sim::BucketIntegrator acc(begin, end, step);
  for (const JobRecord& j : t.jobs()) {
    if (pred && !pred(j)) continue;
    add_busy(acc, j, end);
  }
  return std::move(acc).integrals();
}

UtilizationSeries utilization_series(const Trace& t, UnixTime begin, UnixTime end,
                                     std::int64_t step, const JobPredicate& pred) {
  UtilizationSeries s;
  s.begin = begin;
  s.step = step;
  s.values = busy_gpu_seconds(t, begin, end, step, pred);
  const double capacity =
      static_cast<double>(t.cluster().total_gpus()) * static_cast<double>(step);
  if (capacity > 0.0) {
    for (auto& v : s.values) v /= capacity;
  }
  return s;
}

std::array<double, 24> hourly_profile(const UtilizationSeries& s) {
  std::array<double, 24> sum{};
  std::array<double, 24> count{};
  for (std::size_t i = 0; i < s.values.size(); ++i) {
    const UnixTime mid = s.time_at(i) + s.step / 2;
    const int h = hour_of(mid);
    sum[static_cast<std::size_t>(h)] += s.values[i];
    count[static_cast<std::size_t>(h)] += 1.0;
  }
  std::array<double, 24> avg{};
  for (int h = 0; h < 24; ++h) {
    avg[static_cast<std::size_t>(h)] =
        count[static_cast<std::size_t>(h)] > 0.0
            ? sum[static_cast<std::size_t>(h)] / count[static_cast<std::size_t>(h)]
            : 0.0;
  }
  return avg;
}

std::array<double, 24> hourly_submission_rate(const Trace& t, UnixTime begin,
                                              UnixTime end) {
  std::array<double, 24> counts{};
  for (const auto& j : t.jobs()) {
    if (!j.is_gpu_job()) continue;
    if (j.submit_time < begin || j.submit_time >= end) continue;
    ++counts[static_cast<std::size_t>(hour_of(j.submit_time))];
  }
  const double days = static_cast<double>(end - begin) /
                      static_cast<double>(kSecondsPerDay);
  if (days > 0.0) {
    for (auto& c : counts) c /= days;
  }
  return counts;
}

std::vector<MonthlyActivity> monthly_trends(const Trace& t, UnixTime begin,
                                            UnixTime end) {
  // Month keys in chronological order.
  std::map<int, MonthlyActivity> months;  // key = year * 100 + month
  for (const auto& j : t.jobs()) {
    if (!j.is_gpu_job()) continue;
    if (j.submit_time < begin || j.submit_time >= end) continue;
    const CivilTime c = to_civil(j.submit_time);
    auto& m = months[c.year * 100 + c.month];
    m.year = c.year;
    m.month = c.month;
    if (j.num_gpus == 1) {
      ++m.single_gpu_jobs;
    } else {
      ++m.multi_gpu_jobs;
    }
  }
  // Utilization per month: integrate busy GPU-seconds month by month.
  for (auto& [key, m] : months) {
    const UnixTime mb = std::max(begin, from_civil(m.year, m.month, 1));
    const int next_month = m.month == 12 ? 1 : m.month + 1;
    const int next_year = m.month == 12 ? m.year + 1 : m.year;
    const UnixTime me = std::min(end, from_civil(next_year, next_month, 1));
    if (me <= mb) continue;
    const auto whole = busy_gpu_seconds(t, mb, me, me - mb);
    const auto single = busy_gpu_seconds(t, mb, me, me - mb, [](const JobRecord& j) {
      return j.num_gpus == 1;
    });
    const double capacity = static_cast<double>(t.cluster().total_gpus()) *
                            static_cast<double>(me - mb);
    if (capacity > 0.0 && !whole.empty()) {
      m.avg_utilization = whole[0] / capacity;
      m.util_from_single = single[0] / capacity;
      m.util_from_multi = m.avg_utilization - m.util_from_single;
    }
  }
  std::vector<MonthlyActivity> out;
  out.reserve(months.size());
  for (const auto& [key, m] : months) out.push_back(m);
  return out;
}

std::vector<VCBehavior> vc_behaviors(const Trace& t, UnixTime begin, UnixTime end,
                                     std::int64_t minute_step) {
  // One pass over the trace: GPU-job indices grouped by interned VC id, so
  // each VC below integrates and scans only its own jobs.
  const auto& jobs = t.jobs();
  std::vector<std::vector<std::size_t>> by_vc(t.vcs().size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].is_gpu_job() && jobs[i].vc < by_vc.size()) {
      by_vc[jobs[i].vc].push_back(i);
    }
  }
  const std::vector<std::size_t> no_jobs;

  const auto& vcs = t.cluster().vcs;
  std::vector<VCBehavior> out;
  out.reserve(vcs.size());
  for (int vi = 0; vi < static_cast<int>(vcs.size()); ++vi) {
    VCBehavior b;
    b.vc_index = vi;
    b.name = vcs[static_cast<std::size_t>(vi)].name;
    b.gpus = vcs[static_cast<std::size_t>(vi)].total_gpus();
    const auto vc_id = t.vcs().find(b.name);
    const auto& members = vc_id < by_vc.size() ? by_vc[vc_id] : no_jobs;

    if (end > begin) {
      sim::BucketIntegrator acc(begin, end, minute_step);
      for (const std::size_t i : members) add_busy(acc, jobs[i], end);
      b.utilization = stats::box_stats_sorted(sorted_utilization(
          std::move(acc).integrals(),
          static_cast<double>(b.gpus) * static_cast<double>(minute_step)));
    }

    stats::RunningStats req;
    stats::RunningStats delay;
    stats::RunningStats dur;
    for (const std::size_t i : members) {
      const JobRecord& j = jobs[i];
      if (j.submit_time < begin || j.submit_time >= end) continue;
      req.add(j.num_gpus);
      delay.add(static_cast<double>(j.queue_delay()));
      dur.add(j.duration);
    }
    b.avg_gpu_request = req.mean();
    b.avg_queue_delay = delay.mean();
    b.avg_duration = dur.mean();
    b.jobs = req.count();
    out.push_back(b);
  }
  std::sort(out.begin(), out.end(),
            [](const VCBehavior& a, const VCBehavior& b) { return a.gpus > b.gpus; });
  return out;
}

}  // namespace helios::analysis
