// BucketIntegrator: the O(1) difference-array integrator must match a naive
// walk-every-bucket reference exactly, and accumulation of integer-valued
// inputs must be order-independent bit-for-bit (what the sharded simulator's
// per-VC segment replay relies on).
#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/bucket_integrator.h"

namespace helios::sim {
namespace {

struct Interval {
  UnixTime t0;
  UnixTime t1;
  double value;
};

/// Naive reference: walk every covered bucket, summing value x seconds.
std::vector<double> naive_sums(UnixTime begin, UnixTime end, std::int64_t step,
                               const std::vector<Interval>& intervals) {
  std::vector<double> sums(static_cast<std::size_t>(
                               std::max<std::int64_t>(1, (end - begin + step - 1) / step)),
                           0.0);
  for (auto [t0, t1, value] : intervals) {
    if (value == 0.0 || t1 <= t0) continue;
    t0 = std::max(t0, begin);
    t1 = std::min<UnixTime>(t1, begin + static_cast<UnixTime>(sums.size()) * step);
    if (t1 <= t0) continue;
    auto b = static_cast<std::size_t>((t0 - begin) / step);
    const auto b_end = static_cast<std::size_t>((t1 - 1 - begin) / step);
    for (; b <= b_end && b < sums.size(); ++b) {
      const UnixTime lo = begin + static_cast<UnixTime>(b) * step;
      const UnixTime hi = lo + step;
      sums[b] += value * static_cast<double>(std::min(t1, hi) - std::max(t0, lo));
    }
  }
  return sums;
}

std::vector<double> naive_means(UnixTime begin, UnixTime end, std::int64_t step,
                                const std::vector<Interval>& intervals) {
  auto means = naive_sums(begin, end, step, intervals);
  for (double& v : means) v /= static_cast<double>(step);
  return means;
}

TEST(BucketIntegrator, MatchesNaiveReferenceExactly) {
  const UnixTime begin = 1000;
  const UnixTime end = 1000 + 600 * 50;
  const std::int64_t step = 600;
  Rng rng(42);
  std::vector<Interval> intervals;
  for (int i = 0; i < 500; ++i) {
    const auto t0 = static_cast<UnixTime>(
        900 + static_cast<std::int64_t>(rng.uniform_index(600 * 52)));
    const auto len = static_cast<std::int64_t>(rng.uniform_index(600 * 10));
    const auto value = static_cast<double>(rng.uniform_index(64));
    intervals.push_back({t0, t0 + len, value});
  }
  // Edge shapes: zero value, inverted, fully outside, bucket-aligned ends,
  // single-second, and window-spanning intervals.
  intervals.push_back({2000, 3000, 0.0});
  intervals.push_back({5000, 4000, 3.0});
  intervals.push_back({0, 999, 7.0});
  intervals.push_back({end, end + 5000, 7.0});
  intervals.push_back({1000, 1600, 2.0});
  intervals.push_back({1600, 2200, 2.0});
  intervals.push_back({1234, 1235, 5.0});
  intervals.push_back({0, end + 10000, 1.0});

  BucketIntegrator acc(begin, end, step);
  for (const auto& iv : intervals) acc.add(iv.t0, iv.t1, iv.value);
  const auto series = std::move(acc).mean_series();
  const auto expected = naive_means(begin, end, step, intervals);

  ASSERT_EQ(series.values.size(), expected.size());
  ASSERT_EQ(series.begin, begin);
  ASSERT_EQ(series.step, step);
  for (std::size_t b = 0; b < expected.size(); ++b) {
    // Integer-valued inputs: exact, not approximate.
    ASSERT_EQ(series.values[b], expected[b]) << "bucket " << b;
  }
}

TEST(BucketIntegrator, AddOrderDoesNotChangeASingleBit) {
  // The sharded simulator replays per-VC segment logs into one shared
  // integrator in VC order; serial mode replays the same segments in a
  // different interleaving. Integer-valued inputs make accumulation exactly
  // commutative, so both must agree bit-for-bit.
  const UnixTime begin = 0;
  const UnixTime end = 600 * 30;
  const std::int64_t step = 600;
  Rng rng(7);

  std::vector<Interval> intervals;
  for (int i = 0; i < 300; ++i) {
    const auto t0 = static_cast<UnixTime>(rng.uniform_index(600 * 30));
    const auto t1 = t0 + static_cast<std::int64_t>(rng.uniform_index(4000));
    const auto value = static_cast<double>(rng.uniform_index(100));
    intervals.push_back({t0, t1, value});
  }

  BucketIntegrator forward(begin, end, step);
  for (const auto& iv : intervals) forward.add(iv.t0, iv.t1, iv.value);
  BucketIntegrator backward(begin, end, step);
  for (auto it = intervals.rbegin(); it != intervals.rend(); ++it) {
    backward.add(it->t0, it->t1, it->value);
  }
  BucketIntegrator shuffled(begin, end, step);
  for (std::size_t i = 0; i < intervals.size(); i += 2) {
    shuffled.add(intervals[i].t0, intervals[i].t1, intervals[i].value);
  }
  for (std::size_t i = 1; i < intervals.size(); i += 2) {
    shuffled.add(intervals[i].t0, intervals[i].t1, intervals[i].value);
  }

  const auto want = std::move(forward).mean_series();
  const auto rev = std::move(backward).mean_series();
  const auto mix = std::move(shuffled).mean_series();
  ASSERT_EQ(rev.values.size(), want.values.size());
  ASSERT_EQ(mix.values.size(), want.values.size());
  for (std::size_t b = 0; b < want.values.size(); ++b) {
    ASSERT_EQ(rev.values[b], want.values[b]) << "bucket " << b;
    ASSERT_EQ(mix.values[b], want.values[b]) << "bucket " << b;
  }
}

TEST(BucketIntegrator, IntegralsAreExactBucketSums) {
  // integrals() is the undivided read-out analysis::busy_gpu_seconds returns:
  // it must equal the walk-every-bucket sums exactly, and mean_series() must
  // be exactly integrals() / step. The window end is not step-aligned.
  const UnixTime begin = 500;
  const UnixTime end = 500 + 60 * 97 + 13;
  const std::int64_t step = 60;
  Rng rng(11);
  std::vector<Interval> intervals;
  for (int i = 0; i < 400; ++i) {
    const auto t0 = static_cast<UnixTime>(rng.uniform_index(60 * 100));
    const auto len = static_cast<std::int64_t>(rng.uniform_index(60 * 30));
    intervals.push_back({t0, t0 + len, static_cast<double>(rng.uniform_index(64))});
  }
  BucketIntegrator acc(begin, end, step);
  for (const auto& iv : intervals) acc.add(iv.t0, iv.t1, iv.value);
  const auto sums = BucketIntegrator(acc).integrals();
  const auto expected = naive_sums(begin, end, step, intervals);
  const auto means = std::move(acc).mean_series();
  ASSERT_EQ(sums.size(), expected.size());
  ASSERT_EQ(means.values.size(), expected.size());
  for (std::size_t b = 0; b < expected.size(); ++b) {
    ASSERT_EQ(sums[b], expected[b]) << "bucket " << b;
    ASSERT_EQ(means.values[b], sums[b] / static_cast<double>(step)) << b;
  }
}

TEST(CountIntegrator, ColumnsMatchBucketIntegratorBitForBit) {
  // The simulator's merge feeds its three count columns through one
  // CountIntegrator; each column must equal a BucketIntegrator fed the
  // same intervals, zero columns included, in forward and reverse order —
  // with intervals overhanging both ends of an unaligned window.
  const UnixTime begin = 250;
  const UnixTime end = 250 + 600 * 40 + 77;
  const std::int64_t step = 600;
  Rng rng(3);
  struct Row {
    UnixTime t0;
    UnixTime t1;
    CountIntegrator::Counts v;
  };
  std::vector<Row> rows;
  for (int i = 0; i < 600; ++i) {
    Row r;
    r.t0 = static_cast<UnixTime>(rng.uniform_index(600 * 43));
    r.t1 = r.t0 + static_cast<std::int64_t>(rng.uniform_index(5000)) - 50;
    for (auto& x : r.v) {
      x = rng.uniform_index(3) == 0
              ? 0
              : static_cast<std::int32_t>(rng.uniform_index(4096));
    }
    rows.push_back(r);
  }
  CountIntegrator forward(begin, end, step);
  CountIntegrator backward(begin, end, step);
  BucketIntegrator cols[3] = {{begin, end, step}, {begin, end, step},
                              {begin, end, step}};
  for (const Row& r : rows) {
    forward.add(r.t0, r.t1, r.v);
    for (std::size_t c = 0; c < 3; ++c) cols[c].add(r.t0, r.t1, r.v[c]);
  }
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    backward.add(it->t0, it->t1, it->v);
  }
  const auto fwd = std::move(forward).mean_series();
  const auto rev = std::move(backward).mean_series();
  for (std::size_t c = 0; c < 3; ++c) {
    const auto want = std::move(cols[c]).mean_series();
    ASSERT_EQ(fwd[c].begin, want.begin);
    ASSERT_EQ(fwd[c].step, want.step);
    ASSERT_EQ(fwd[c].values, want.values) << "column " << c;
    ASSERT_EQ(rev[c].values, want.values) << "column " << c;
  }
}

TEST(BucketIntegrator, MinimumOneBucket) {
  BucketIntegrator acc(100, 100, 600);  // empty window still yields a bucket
  EXPECT_EQ(acc.bucket_count(), 1u);
  acc.add(100, 700, 4.0);
  EXPECT_EQ(std::move(acc).mean_series().values[0], 4.0);
}

}  // namespace
}  // namespace helios::sim
