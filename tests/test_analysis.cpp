#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "analysis/cluster_stats.h"
#include "analysis/job_stats.h"
#include "analysis/user_stats.h"
#include "common/rng.h"
#include "trace/parallel_loader.h"
#include "trace/synthetic.h"

namespace helios::analysis {
namespace {

using trace::JobState;
using trace::Trace;

trace::ClusterSpec spec_2x8() {
  trace::ClusterSpec s;
  s.name = "A";
  s.vcs = {{"vcA", 1, 8}, {"vcB", 1, 8}};
  s.nodes = 2;
  return s;
}

TEST(BusyGpuSeconds, ExactIntervalAccounting) {
  Trace t(spec_2x8());
  // 4 GPUs from t=0 for 100s; 8 GPUs from t=50 for 100s.
  t.add(0, 100, 4, 4, "u", "vcA", "a", JobState::kCompleted);
  t.add(50, 100, 8, 8, "u", "vcB", "b", JobState::kCompleted);
  const auto busy = busy_gpu_seconds(t, 0, 200, 50);
  ASSERT_EQ(busy.size(), 4u);
  EXPECT_DOUBLE_EQ(busy[0], 4 * 50.0);            // [0,50): job a only
  EXPECT_DOUBLE_EQ(busy[1], 4 * 50.0 + 8 * 50.0); // [50,100): both
  EXPECT_DOUBLE_EQ(busy[2], 8 * 50.0);            // [100,150): job b only
  EXPECT_DOUBLE_EQ(busy[3], 0.0);
}

TEST(BusyGpuSeconds, ClipsToWindow) {
  Trace t(spec_2x8());
  t.add(-100, 300, 2, 2, "u", "vcA", "a", JobState::kCompleted);  // spans window
  const auto busy = busy_gpu_seconds(t, 0, 100, 100);
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_DOUBLE_EQ(busy[0], 2 * 100.0);
}

TEST(BusyGpuSeconds, PredicateFilters) {
  Trace t(spec_2x8());
  t.add(0, 100, 4, 4, "u", "vcA", "a", JobState::kCompleted);
  t.add(0, 100, 2, 2, "u", "vcB", "b", JobState::kCompleted);
  const auto only_big = busy_gpu_seconds(
      t, 0, 100, 100, [](const trace::JobRecord& j) { return j.num_gpus >= 4; });
  EXPECT_DOUBLE_EQ(only_big[0], 400.0);
}

/// Brute force: every second a matching GPU job runs inside [begin, end)
/// adds its GPUs to the bucket holding that second.
std::vector<double> per_second_busy(const Trace& t, UnixTime begin, UnixTime end,
                                    std::int64_t step, const JobPredicate& pred) {
  std::vector<double> busy(static_cast<std::size_t>((end - begin + step - 1) / step),
                           0.0);
  for (const auto& j : t.jobs()) {
    if (!j.started() || j.num_gpus <= 0 || (pred && !pred(j))) continue;
    const UnixTime hi = std::min<UnixTime>(j.end_time(), end);
    for (UnixTime sec = std::max<UnixTime>(j.start_time, begin); sec < hi; ++sec) {
      busy[static_cast<std::size_t>((sec - begin) / step)] += j.num_gpus;
    }
  }
  return busy;
}

void expect_bits_equal(const std::vector<double>& got,
                       const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t b = 0; b < want.size(); ++b) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[b]),
              std::bit_cast<std::uint64_t>(want[b]))
        << "bucket " << b << ": " << got[b] << " vs " << want[b];
  }
}

TEST(BusyGpuSeconds, MatchesPerSecondReferenceBitForBit) {
  // A window of two and a half days that is aligned to none of the steps;
  // jobs cross both window edges, have zero length, never start, run for
  // days, or use no GPUs.
  const UnixTime begin = from_civil(2020, 5, 1) + 137;
  const UnixTime end = begin + 2 * kSecondsPerDay + kSecondsPerDay / 2 + 41;
  const std::int64_t day = kSecondsPerDay;
  Rng rng(2024);
  Trace t(spec_2x8());
  for (int i = 0; i < 160; ++i) {
    const auto kind = rng.uniform_index(6);
    UnixTime start = begin + rng.uniform_int(-day, end - begin + day);
    std::int64_t duration = rng.uniform_int(1, 7200);
    if (kind == 0) start = begin - rng.uniform_int(1, day);   // crosses begin
    if (kind == 1) start = end - rng.uniform_int(1, 7200);    // crosses end
    if (kind == 2) duration = 0;                              // zero length
    if (kind == 3) duration = rng.uniform_int(day, 5 * day);  // runs for days
    const auto gpus = static_cast<std::int32_t>(rng.uniform_int(0, 64));
    auto& j = t.add(start - rng.uniform_int(0, 600),
                    static_cast<std::int32_t>(duration), gpus, 4, "u",
                    i % 2 == 0 ? "vcA" : "vcB", "j", JobState::kCompleted);
    j.start_time = kind == 4 ? trace::kNeverStarted : start;
  }
  const JobPredicate big = [](const trace::JobRecord& j) {
    return j.num_gpus >= 8;
  };
  for (const std::int64_t step : {1, 60, 600, 86400}) {
    SCOPED_TRACE(step);
    expect_bits_equal(busy_gpu_seconds(t, begin, end, step),
                      per_second_busy(t, begin, end, step, nullptr));
    expect_bits_equal(busy_gpu_seconds(t, begin, end, step, big),
                      per_second_busy(t, begin, end, step, big));
  }
  EXPECT_TRUE(busy_gpu_seconds(t, end, begin, 60).empty());  // empty window
}

TEST(UtilizationSeries, NormalizedByCapacity) {
  Trace t(spec_2x8());
  t.add(0, 100, 8, 8, "u", "vcA", "a", JobState::kCompleted);  // half capacity
  const auto s = utilization_series(t, 0, 100, 100);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.values[0], 0.5);
}

TEST(HourlyProfile, AveragesByHourOfDay) {
  UtilizationSeries s;
  s.begin = from_civil(2020, 6, 1);
  s.step = 3600;
  s.values.assign(48, 0.0);
  s.values[3] = 0.4;   // day 1, 03h
  s.values[27] = 0.8;  // day 2, 03h
  const auto prof = hourly_profile(s);
  EXPECT_NEAR(prof[3], 0.6, 1e-12);
  EXPECT_NEAR(prof[4], 0.0, 1e-12);
}

TEST(HourlySubmissionRate, PerDayAverage) {
  Trace t(spec_2x8());
  const auto base = from_civil(2020, 6, 1);
  // 4 GPU jobs at 09h over two days, 1 CPU job (excluded).
  t.add(base + 9 * 3600, 10, 1, 1, "u", "vcA", "a", JobState::kCompleted);
  t.add(base + 9 * 3600 + 60, 10, 1, 1, "u", "vcA", "a", JobState::kCompleted);
  t.add(base + kSecondsPerDay + 9 * 3600, 10, 1, 1, "u", "vcA", "a",
        JobState::kCompleted);
  t.add(base + 9 * 3600, 10, 0, 1, "u", "vcA", "cpu", JobState::kCompleted);
  const auto rate = hourly_submission_rate(t, base, base + 2 * kSecondsPerDay);
  EXPECT_NEAR(rate[9], 1.5, 1e-12);
  EXPECT_NEAR(rate[10], 0.0, 1e-12);
}

TEST(MonthlyTrends, SplitsSingleAndMulti) {
  Trace t(spec_2x8());
  t.add(from_civil(2020, 5, 10), 1000, 1, 1, "u", "vcA", "a", JobState::kCompleted);
  t.add(from_civil(2020, 5, 11), 1000, 8, 8, "u", "vcA", "a", JobState::kCompleted);
  t.add(from_civil(2020, 6, 2), 1000, 1, 1, "u", "vcA", "a", JobState::kCompleted);
  const auto months = monthly_trends(t, from_civil(2020, 5, 1), from_civil(2020, 7, 1));
  ASSERT_EQ(months.size(), 2u);
  EXPECT_EQ(months[0].month, 5);
  EXPECT_EQ(months[0].single_gpu_jobs, 1);
  EXPECT_EQ(months[0].multi_gpu_jobs, 1);
  EXPECT_EQ(months[1].single_gpu_jobs, 1);
  EXPECT_GT(months[0].avg_utilization, 0.0);
  EXPECT_NEAR(months[0].avg_utilization,
              months[0].util_from_single + months[0].util_from_multi, 1e-12);
}

TEST(JobSizeDistribution, FractionsAndCdf) {
  Trace t(spec_2x8());
  for (int i = 0; i < 3; ++i) {
    t.add(0, 100, 1, 1, "u", "vcA", "a", JobState::kCompleted);
  }
  t.add(0, 100, 8, 8, "u", "vcA", "a", JobState::kCompleted);
  const auto dist = job_size_distribution(t);
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_EQ(dist[0].gpus, 1);
  EXPECT_DOUBLE_EQ(dist[0].job_fraction, 0.75);
  // GPU time: 3*100 vs 800.
  EXPECT_NEAR(dist[0].gpu_time_fraction, 300.0 / 1100.0, 1e-12);
  EXPECT_DOUBLE_EQ(dist[1].job_cdf, 1.0);
  EXPECT_DOUBLE_EQ(dist[1].gpu_time_cdf, 1.0);
}

TEST(StatusByGpuCount, SkipsNonPowerOfTwo) {
  Trace t(spec_2x8());
  t.add(0, 10, 3, 3, "u", "vcA", "a", JobState::kCompleted);  // non-pow2
  t.add(0, 10, 4, 4, "u", "vcA", "a", JobState::kCompleted);
  t.add(0, 10, 4, 4, "u", "vcA", "a", JobState::kFailed);
  const auto by = status_by_gpu_count(t);
  ASSERT_EQ(by.size(), 1u);
  EXPECT_EQ(by[0].gpus, 4);
  EXPECT_DOUBLE_EQ(by[0].completed, 0.5);
  EXPECT_DOUBLE_EQ(by[0].failed, 0.5);
}

TEST(GpuTimeByState, NormalizedShares) {
  Trace t(spec_2x8());
  t.add(0, 100, 1, 1, "u", "vcA", "a", JobState::kCompleted);
  t.add(0, 300, 1, 1, "u", "vcA", "a", JobState::kCanceled);
  const auto s = gpu_time_by_state(t);
  EXPECT_DOUBLE_EQ(s[0], 0.25);
  EXPECT_DOUBLE_EQ(s[1], 0.75);
  EXPECT_DOUBLE_EQ(s[2], 0.0);
}

TEST(Summarize, CountsAndAverages) {
  Trace t(spec_2x8());
  t.add(0, 100, 2, 2, "u1", "vcA", "a", JobState::kCompleted);
  t.add(10, 300, 4, 4, "u2", "vcA", "b", JobState::kCompleted);
  t.add(20, 7, 0, 2, "u1", "vcB", "c", JobState::kFailed);
  const auto s = summarize(t);
  EXPECT_EQ(s.total_jobs, 3);
  EXPECT_EQ(s.gpu_jobs, 2);
  EXPECT_EQ(s.cpu_jobs, 1);
  EXPECT_DOUBLE_EQ(s.avg_gpus_per_gpu_job, 3.0);
  EXPECT_DOUBLE_EQ(s.avg_gpu_job_duration, 200.0);
  EXPECT_DOUBLE_EQ(s.median_gpu_job_duration, 200.0);
  EXPECT_DOUBLE_EQ(s.avg_cpu_job_duration, 7.0);
  EXPECT_EQ(s.max_gpus, 4);
  EXPECT_EQ(s.users, 2);
}

// ---------------------------------------------------------------------------
// User stats
// ---------------------------------------------------------------------------

TEST(UserAggregates, PerUserTotals) {
  Trace t(spec_2x8());
  t.add(0, 100, 2, 2, "alice", "vcA", "a", JobState::kCompleted);
  t.add(0, 50, 1, 1, "alice", "vcA", "a", JobState::kFailed);
  t.add(0, 10, 0, 8, "bob", "vcB", "c", JobState::kCompleted);
  const auto users = user_aggregates(t);
  ASSERT_EQ(users.size(), 2u);
  const auto& alice = users[0].gpu_jobs == 2 ? users[0] : users[1];
  EXPECT_DOUBLE_EQ(alice.gpu_time, 250.0);
  EXPECT_EQ(alice.gpu_jobs_completed, 1);
  EXPECT_DOUBLE_EQ(alice.completion_rate(), 0.5);
  const auto& bob = users[0].gpu_jobs == 2 ? users[1] : users[0];
  EXPECT_DOUBLE_EQ(bob.cpu_time, 80.0);
  EXPECT_DOUBLE_EQ(bob.completion_rate(), 0.0);  // no GPU jobs
}

TEST(ShareCurve, LorenzShape) {
  const auto curve = share_curve({10.0, 30.0, 60.0});
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_DOUBLE_EQ(curve[0].value_fraction, 0.0);
  EXPECT_DOUBLE_EQ(curve[1].value_fraction, 0.6);   // top user
  EXPECT_DOUBLE_EQ(curve[2].value_fraction, 0.9);
  EXPECT_DOUBLE_EQ(curve[3].value_fraction, 1.0);
  EXPECT_NEAR(curve[1].user_fraction, 1.0 / 3.0, 1e-12);
}

TEST(TopShare, ExactAndEdgeCases) {
  const std::vector<double> v = {1.0, 1.0, 1.0, 97.0};
  EXPECT_DOUBLE_EQ(top_share(v, 0.25), 0.97);
  EXPECT_DOUBLE_EQ(top_share(v, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(top_share({}, 0.5), 0.0);
}

TEST(VcBehaviors, SortedBySizeWithStats) {
  Trace t(spec_2x8());
  t.add(from_civil(2020, 5, 2), 600, 8, 8, "u", "vcA", "a", JobState::kCompleted);
  const auto b = vc_behaviors(t, from_civil(2020, 5, 1), from_civil(2020, 5, 3),
                              3600);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0].gpus, b[1].gpus);  // equal-size VCs; both present
  const auto& with_job = b[0].jobs > 0 ? b[0] : b[1];
  EXPECT_EQ(with_job.jobs, 1);
  EXPECT_DOUBLE_EQ(with_job.avg_gpu_request, 8.0);
  EXPECT_DOUBLE_EQ(with_job.avg_duration, 600.0);
}

/// Utilization series of spec VC `vc_index` (capacity = that VC's GPUs), the
/// independent oracle for vc_behaviors: jobs are matched by the VC's name,
/// since a parsed trace interns VC names in first-occurrence order.
std::vector<double> vc_series(const Trace& t, int vc_index, UnixTime begin,
                              UnixTime end, std::int64_t step) {
  const auto& vc = t.cluster().vcs[static_cast<std::size_t>(vc_index)];
  const auto vc_id = t.vcs().find(vc.name);
  std::vector<double> v =
      busy_gpu_seconds(t, begin, end, step, [vc_id](const trace::JobRecord& j) {
        return j.vc == vc_id;
      });
  const double capacity =
      static_cast<double>(vc.total_gpus()) * static_cast<double>(step);
  for (double& x : v) x /= capacity;
  return v;
}

TEST(VcBehaviors, ResolvesVcByNameNotSpecIndex) {
  // The first row belongs to the second spec VC, so the interner gives vcB
  // id 0 and vcA id 1: the reverse of the spec indices.
  Trace t(spec_2x8());
  const auto day = from_civil(2020, 5, 2);
  t.add(day, 3600, 8, 8, "u", "vcB", "b", JobState::kCompleted);
  t.add(day, 3600, 2, 2, "u", "vcA", "a", JobState::kCompleted);
  ASSERT_EQ(t.vcs().find("vcB"), 0u);

  const auto b = vc_behaviors(t, day, day + 3600, 60);
  ASSERT_EQ(b.size(), 2u);
  for (const auto& vc : b) {
    const double util = vc.name == "vcB" ? 1.0 : 0.25;
    const double req = vc.name == "vcB" ? 8.0 : 2.0;
    EXPECT_EQ(vc.utilization.median, util) << vc.name;
    EXPECT_EQ(vc.utilization.q1, util) << vc.name;
    EXPECT_EQ(vc.avg_gpu_request, req) << vc.name;
  }
  EXPECT_EQ(vc_series(t, 0, day, day + 3600, 600)[0], 0.25);
  EXPECT_EQ(vc_series(t, 1, day, day + 3600, 600)[0], 1.0);
}

void expect_same_box(const stats::BoxStats& a, const stats::BoxStats& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.q1), std::bit_cast<std::uint64_t>(b.q1));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.median),
            std::bit_cast<std::uint64_t>(b.median));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.q3), std::bit_cast<std::uint64_t>(b.q3));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.whisker_lo),
            std::bit_cast<std::uint64_t>(b.whisker_lo));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.whisker_hi),
            std::bit_cast<std::uint64_t>(b.whisker_hi));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean), std::bit_cast<std::uint64_t>(b.mean));
  EXPECT_EQ(a.count, b.count);
}

void expect_same_behaviors(const std::vector<VCBehavior>& a,
                           const std::vector<VCBehavior>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].name);
    EXPECT_EQ(a[i].vc_index, b[i].vc_index);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].jobs, b[i].jobs);
    EXPECT_EQ(a[i].avg_gpu_request, b[i].avg_gpu_request);
    EXPECT_EQ(a[i].avg_queue_delay, b[i].avg_queue_delay);
    EXPECT_EQ(a[i].avg_duration, b[i].avg_duration);
    expect_same_box(a[i].utilization, b[i].utilization);
  }
}

Trace small_venus() {
  return trace::SyntheticTraceGenerator(
             trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 7,
                                            0.05))
      .generate();
}

TEST(VcBehaviors, ParsedTraceMatchesGeneratedTrace) {
  const Trace generated = small_venus();
  std::ostringstream csv;
  generated.save_csv(csv);
  trace::LoadOptions opts;
  opts.threads = 4;
  opts.min_chunk_bytes = 1 << 12;
  const Trace parsed =
      trace::ParallelLoader(opts).load(csv.str(), generated.cluster());
  // The test only has teeth if parsing renumbered some VC.
  bool renumbered = false;
  for (const auto& vc : generated.cluster().vcs) {
    renumbered |= generated.vcs().find(vc.name) != parsed.vcs().find(vc.name);
  }
  ASSERT_TRUE(renumbered);

  const UnixTime begin = trace::helios_trace_begin();
  const UnixTime end = begin + 30 * kSecondsPerDay;
  expect_same_behaviors(vc_behaviors(parsed, begin, end),
                        vc_behaviors(generated, begin, end));
}

TEST(VcBehaviors, BoxEqualsSortingBoxStatsOfTheSeries) {
  // vc_behaviors orders the samples by counting sort (or by sorting, when
  // an over-committed VC's key range is too wide); either way its box must
  // be the sorting stats::box_stats of the VC's own series, bit for bit.
  Trace heavy(spec_2x8());
  const auto day = from_civil(2020, 5, 2);
  heavy.add(day, 7200, 100000, 8, "u", "vcA", "wide", JobState::kCompleted);
  heavy.add(day + 600, 1800, 3, 8, "u", "vcB", "narrow", JobState::kCompleted);
  const Trace venus = small_venus();
  const UnixTime begin = trace::helios_trace_begin();
  const struct {
    const Trace* t;
    UnixTime begin;
    UnixTime end;
  } cases[] = {{&heavy, day - 1800, day + 9000},
               {&venus, begin, begin + 30 * kSecondsPerDay}};
  for (const auto& c : cases) {
    for (const std::int64_t step : {60, 600}) {
      for (const auto& b : vc_behaviors(*c.t, c.begin, c.end, step)) {
        SCOPED_TRACE(b.name);
        expect_same_box(b.utilization,
                        stats::box_stats(vc_series(*c.t, b.vc_index, c.begin,
                                                   c.end, step)));
      }
    }
  }
}

}  // namespace
}  // namespace helios::analysis
