#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "stats/correlation.h"
#include "stats/ecdf.h"
#include "stats/histogram.h"
#include "stats/metrics.h"
#include "stats/summary.h"

namespace helios::stats {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
  EXPECT_DOUBLE_EQ(rs.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(3);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 7.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Quantile, InterpolatesLikeNumpy) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
}

TEST(Quantile, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{7.0}, 0.99), 7.0);
}

TEST(BoxStats, MatchesPaperDefinition) {
  // 1..100 plus one far outlier; whiskers clamp at 1.5 IQR.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  v.push_back(1000.0);
  const BoxStats b = box_stats(v);
  EXPECT_NEAR(b.median, 51.0, 1e-9);
  EXPECT_GT(b.q3, b.q1);
  EXPECT_LT(b.whisker_hi, 1000.0);  // outlier excluded
  EXPECT_DOUBLE_EQ(b.whisker_lo, 1.0);
  EXPECT_EQ(b.count, 101);
}

TEST(BoxStats, SortedVariantOnCountingSortedIntegersMatches) {
  // vc_behaviors feeds box_stats_sorted with integer busy GPU-seconds that
  // were counting-sorted and then divided by a positive capacity; that must
  // reproduce the sorting box_stats of the divided samples bit for bit.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = 1 + rng.uniform_index(400);
    const auto keys = 1 + rng.uniform_index(trial % 2 == 0 ? 8 : 5000);
    const double capacity = static_cast<double>(60 * (1 + rng.uniform_index(64)));
    std::vector<std::uint64_t> busy(n);
    for (auto& b : busy) b = rng.uniform_index(keys);
    std::vector<double> samples;
    for (const auto b : busy) samples.push_back(static_cast<double>(b) / capacity);

    std::vector<std::size_t> count(keys, 0);
    for (const auto b : busy) ++count[b];
    std::vector<double> sorted;
    for (std::size_t k = 0; k < keys; ++k) {
      sorted.insert(sorted.end(), count[k], static_cast<double>(k) / capacity);
    }

    const BoxStats want = box_stats(samples);
    const BoxStats got = box_stats_sorted(sorted);
    ASSERT_EQ(got.count, want.count);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.q1), std::bit_cast<std::uint64_t>(want.q1));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.median),
              std::bit_cast<std::uint64_t>(want.median));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.q3), std::bit_cast<std::uint64_t>(want.q3));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.whisker_lo),
              std::bit_cast<std::uint64_t>(want.whisker_lo));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.whisker_hi),
              std::bit_cast<std::uint64_t>(want.whisker_hi));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.mean), std::bit_cast<std::uint64_t>(want.mean));
  }
  EXPECT_EQ(box_stats_sorted(std::vector<double>{}).count, 0);
}

TEST(Ecdf, EvaluatesFractions) {
  Ecdf e({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(e(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e(3.0), 0.6);
  EXPECT_DOUBLE_EQ(e(5.0), 1.0);
  EXPECT_DOUBLE_EQ(e(100.0), 1.0);
}

TEST(Ecdf, IsMonotone) {
  Rng rng(11);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.lognormal(5.0, 2.0));
  Ecdf e(v);
  double prev = 0.0;
  for (double x : log_space_points(0.1, 1e6, 200)) {
    const double f = e(x);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(Ecdf, InverseRoundTrip) {
  Ecdf e({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(e.inverse(0.25), 10.0);
  EXPECT_DOUBLE_EQ(e.inverse(0.5), 20.0);
  EXPECT_DOUBLE_EQ(e.inverse(1.0), 40.0);
}

TEST(LogSpacePoints, EndpointsAndMonotone) {
  const auto pts = log_space_points(1.0, 1e6, 7);
  ASSERT_EQ(pts.size(), 7u);
  EXPECT_NEAR(pts.front(), 1.0, 1e-9);
  EXPECT_NEAR(pts.back(), 1e6, 1e-3);
  for (std::size_t i = 1; i < pts.size(); ++i) EXPECT_GT(pts[i], pts[i - 1]);
}

TEST(Histogram, BinningAndFractions) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(5.6);
  h.add(99.0);  // clamped into last bucket
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(5), 2.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.fraction(5), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

TEST(LogHistogram, CoversDecades) {
  LogHistogram h(1.0, 1e6, 6);
  h.add(3.0);      // decade 0
  h.add(300.0);    // decade 2
  h.add(3e5);      // decade 5
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(2), 1.0);
  EXPECT_DOUBLE_EQ(h.count(5), 1.0);
  EXPECT_NEAR(h.bin_lo(1), 10.0, 1e-6);
  EXPECT_NEAR(h.bin_hi(1), 100.0, 1e-4);
}

TEST(Metrics, SmapeBounds) {
  const std::vector<double> a = {100.0, 100.0};
  const std::vector<double> p = {100.0, 0.0};
  EXPECT_DOUBLE_EQ(smape(a, a), 0.0);
  EXPECT_DOUBLE_EQ(smape(a, p), 100.0);  // one exact, one maximally wrong
}

TEST(Metrics, MaeRmse) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> p = {2.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(mae(a, p), 1.0);
  EXPECT_NEAR(rmse(a, p), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Metrics, R2PerfectAndMean) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r2(a, a), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_DOUBLE_EQ(r2(a, mean_pred), 0.0);
}

TEST(Correlation, PearsonKnownValues) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0, 10.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> yneg(y.rbegin(), y.rend());
  EXPECT_NEAR(pearson(x, yneg), -1.0, 1e-12);
}

TEST(Correlation, SpearmanMonotoneNonlinear) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 1; i <= 50; ++i) {
    x.push_back(i);
    y.push_back(std::exp(0.2 * i));  // monotone but nonlinear
  }
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
  EXPECT_LT(pearson(x, y), 0.99);  // pearson penalises nonlinearity
}

}  // namespace
}  // namespace helios::stats
