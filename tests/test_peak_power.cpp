// peak_power_series: the k-way merge over per-VC segment cursors must apply
// power edges in exactly the order a global stable sort by time of every
// VC's edges (gathered in VC order) produces, so the running draw visits the
// same partial sums and every peak is the same double. The reference below
// is that gather-and-sort sweep, kept verbatim as the specification.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "sim/peak_power.h"

namespace helios::sim {
namespace {

using Logs = std::vector<std::vector<BusySegment>>;

std::vector<std::span<const BusySegment>> spans(const Logs& logs) {
  return {logs.begin(), logs.end()};
}

/// Gather every clamped, nonzero power interval's edges in VC order,
/// stable-sort them by time, and sweep.
std::vector<double> reference_peaks(const Logs& logs, UnixTime begin,
                                    UnixTime end, std::int64_t step) {
  struct Edge {
    UnixTime time;
    double delta;
  };
  std::vector<Edge> edges;
  for (const auto& log : logs) {
    for (const BusySegment& seg : log) {
      const UnixTime t0 = std::max(seg.t0, begin);
      const UnixTime t1 = std::min(seg.t1, end);
      if (t1 <= t0 || seg.watts == 0.0) continue;
      edges.push_back({t0, seg.watts});
      edges.push_back({t1, -seg.watts});
    }
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const Edge& a, const Edge& b) { return a.time < b.time; });
  std::vector<double> peak(static_cast<std::size_t>(
                               std::max<std::int64_t>(1, (end - begin + step - 1) / step)),
                           0.0);
  double cur = 0.0;
  std::size_t b = 0;
  for (std::size_t i = 0; i < edges.size();) {
    const UnixTime t = edges[i].time;
    while (b + 1 < peak.size() &&
           t >= begin + static_cast<UnixTime>(b + 1) * step) {
      ++b;
      peak[b] = std::max(peak[b], cur);
    }
    for (; i < edges.size() && edges[i].time == t; ++i) cur += edges[i].delta;
    peak[b] = std::max(peak[b], cur);
  }
  return peak;
}

void expect_bitwise_equal(const std::vector<double>& want,
                          const std::vector<double>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "bucket " << i;
  }
}

/// A contiguous log over [t, ...) from (duration, watts) pairs, closed by an
/// open-ended segment like a shard's trailing one.
std::vector<BusySegment> log_of(
    UnixTime t, const std::vector<std::pair<std::int64_t, double>>& parts,
    double tail_watts) {
  std::vector<BusySegment> log;
  for (auto [d, w] : parts) {
    log.push_back({t, t + d, 0, 0, 0, w});
    t += d;
  }
  log.push_back({t, std::numeric_limits<std::int64_t>::max(), 0, 0, 0,
                 tail_watts});
  return log;
}

TEST(PeakPowerSweep, EqualTimeEdgesAcrossVcsApplyInVcThenLogOrder) {
  // Every boundary is shared by several VCs, and the watts are chosen so a
  // different association of the running sum changes low-order bits.
  const Logs logs = {
      log_of(0, {{300, 0.1}, {300, 1e15 + 0.3}, {600, 0.7}}, 3.3),
      log_of(0, {{300, 0.2}, {300, 0.3}, {600, 1e15 + 0.1}}, 0.9),
      {},                                            // VC with no log
      log_of(0, {{600, 0.0}, {600, 0.0}}, 0.0),      // zero-watt VC
      log_of(300, {{300, 0.3}, {900, 2.2}}, 0.1),
  };
  const auto want = reference_peaks(logs, 0, 3000, 600);
  expect_bitwise_equal(want, peak_power_series(spans(logs), 0, 3000, 600));
  EXPECT_GT(want[1], 1e15);
}

TEST(PeakPowerSweep, ClampsToTheWindowOnBothSides) {
  const Logs logs = {
      log_of(-500, {{700, 1.5}, {1000, 2.25}}, 0.75),
      log_of(100, {{50, 4.0}}, 1.0),
  };
  for (const UnixTime end : {UnixTime{150}, UnixTime{1234}, UnixTime{5000}}) {
    expect_bitwise_equal(reference_peaks(logs, 0, end, 600),
                         peak_power_series(spans(logs), 0, end, 600));
  }
}

TEST(PeakPowerSweep, BucketsAfterTheFinalEdgeGetNoCarry) {
  // 0.1 + 0.2 + 0.3 - 0.1 - 0.2 - 0.3 leaves a positive residue in the
  // running draw; buckets past the last edge must still read exactly 0.
  const Logs logs = {
      {{0, 1000, 0, 0, 0, 0.1}},
      {{0, 1000, 0, 0, 0, 0.2}},
      {{0, 1000, 0, 0, 0, 0.3}},
  };
  const auto got = peak_power_series(spans(logs), 0, 6000, 600);
  expect_bitwise_equal(reference_peaks(logs, 0, 6000, 600), got);
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got[0], 0.1 + 0.2 + 0.3);
  EXPECT_EQ(got[1], 0.1 + 0.2 + 0.3);  // carried across the 600 s boundary
  for (std::size_t b = 2; b < got.size(); ++b) EXPECT_EQ(got[b], 0.0) << b;
}

TEST(PeakPowerSweep, NoEdgesYieldsZeroBuckets) {
  const Logs logs = {{}, log_of(0, {{100, 0.0}}, 0.0)};
  const auto got = peak_power_series(spans(logs), 0, 1200, 600);
  EXPECT_EQ(got, std::vector<double>(2, 0.0));
  EXPECT_EQ(peak_power_series({}, 0, 0, 600), std::vector<double>(1, 0.0));
}

TEST(PeakPowerSweep, MatchesStableSortReferenceOnRandomLogs) {
  // Coarse 60 s time grid so boundaries collide across VCs; non-integer
  // watts spanning 16 orders of magnitude so any reordering shows.
  std::mt19937_64 rng(20211114);
  const double watts[] = {0.0, 0.1, 0.7, 3.3, 212.5, 1e15 + 0.3, 1e-3};
  for (int round = 0; round < 200; ++round) {
    Logs logs(1 + rng() % 7);
    for (auto& log : logs) {
      if (rng() % 6 == 0) continue;  // empty VC
      std::vector<std::pair<std::int64_t, double>> parts(rng() % 12);
      for (auto& [d, w] : parts) {
        d = 60 * static_cast<std::int64_t>(1 + rng() % 20);
        w = watts[rng() % std::size(watts)];
      }
      const auto start = 60 * static_cast<UnixTime>(rng() % 10) - 300;
      log = log_of(start, parts, watts[rng() % std::size(watts)]);
    }
    const UnixTime end = 60 * static_cast<UnixTime>(rng() % 200);
    const std::int64_t step = rng() % 2 == 0 ? 600 : 90;
    expect_bitwise_equal(reference_peaks(logs, 0, end, step),
                         peak_power_series(spans(logs), 0, end, step));
  }
}

}  // namespace
}  // namespace helios::sim
