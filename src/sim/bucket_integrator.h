// Bucketed time integrals of piecewise-constant functions.
//
// BucketIntegrator integrates one function of any double values: the
// simulator's power series and the analysis layer's busy GPU-seconds
// (analysis::busy_gpu_seconds, vc_behaviors). CountIntegrator integrates
// three integer-valued functions reported over the same intervals: the
// simulator's busy-node / busy-GPU / powered-node series (which the CES
// service reads). Callers report intervals of constant value via add(), and
// mean_series() / integrals() consume the integrator and return per-bucket
// means / per-bucket integrals, built in its own storage.
//
// add() is O(1) regardless of interval length: each interval contributes a
// +value/-value pair to a difference array (slope_, covering whole buckets)
// plus partial-bucket corrections at the two endpoints (offset_); one
// prefix-sum pass in integrals() reconstructs every bucket integral. The
// previous implementation walked every covered bucket, which cost
// O(duration/step) per call — thousands of iterations for a week-long
// interval at the default 600 s step.
//
// Exactness: when the reported values are integers (node and GPU counts are)
// every term is an integer-valued product of a count and a duration, so sums
// are exact in double as long as bucket integrals stay below 2^53 — and
// therefore independent of add() order. That is what lets the sharded
// simulator replay per-VC BusySegment logs into one shared integrator (in
// any order) and still reproduce a serial accumulation bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "forecast/series.h"

namespace helios::sim {

class BucketIntegrator {
 public:
  /// Buckets of `step` seconds covering [begin, end); at least one bucket.
  BucketIntegrator(UnixTime begin, UnixTime end, std::int64_t step);

  /// Accumulate `value` over [t0, t1) (clamped to the bucket window).
  /// Inline: the simulator's segment merge calls it once per segment.
  void add(UnixTime t0, UnixTime t1, double value) {
    if (value == 0.0 || t1 <= t0) return;
    const UnixTime window_end =
        begin_ + static_cast<UnixTime>(offset_.size()) * step_;
    t0 = t0 < begin_ ? begin_ : t0;
    t1 = t1 > window_end ? window_end : t1;
    if (t1 <= t0) return;
    const auto b0 = static_cast<std::size_t>((t0 - begin_) / step_);
    const auto b1 = static_cast<std::size_t>((t1 - 1 - begin_) / step_);
    const UnixTime hi0 = begin_ + static_cast<UnixTime>(b0 + 1) * step_;
    const UnixTime hi1 = begin_ + static_cast<UnixTime>(b1 + 1) * step_;
    // Open the interval: bucket b0 gets the partial tail [t0, hi0); every
    // bucket after b0 gets value*step via the slope prefix. Close it: bucket
    // b1 gives back the unused tail [t1, hi1); buckets after b1 cancel.
    offset_[b0] += value * static_cast<double>(hi0 - t0);
    slope_[b0 + 1] += value;
    offset_[b1] -= value * static_cast<double>(hi1 - t1);
    slope_[b1 + 1] -= value;
  }

  /// Per-bucket integrals (value x seconds), one per bucket. Exact — and
  /// equal to walking every bucket each interval covers — when the added
  /// values are integers (see the file comment).
  [[nodiscard]] std::vector<double> integrals() &&;

  /// Per-bucket mean values: integrals() / step.
  [[nodiscard]] forecast::TimeSeries mean_series() &&;

  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return offset_.size();
  }
  [[nodiscard]] UnixTime begin() const noexcept { return begin_; }
  [[nodiscard]] std::int64_t step() const noexcept { return step_; }

 private:
  UnixTime begin_;
  std::int64_t step_;
  /// slope_[b] holds the net value entering at bucket b; the running prefix
  /// sum times step is the whole-bucket contribution. Size bucket_count()+1
  /// so interval ends landing in the last bucket have somewhere to subtract.
  std::vector<double> slope_;
  /// Partial-bucket corrections for interval endpoints. Size bucket_count().
  std::vector<double> offset_;
};

/// Bucketed integrals of three integer-valued functions that change at the
/// same instants. add() runs the clamp and bucket arithmetic once per
/// interval for all three columns. Each column is a single difference array
/// whose prefix sums are the bucket integrals: an interval [t0, t1) adds its
/// head term at b0 and its tail correction at b1, and cancels each in the
/// next cell. With integer values every term and every prefix sum is an
/// exact integer (below 2^53), so the integrals equal BucketIntegrator's bit
/// for bit and in any add() order — but non-integer values would round
/// differently, which is why power keeps its own BucketIntegrator.
class CountIntegrator {
 public:
  static constexpr std::size_t kColumns = 3;
  using Counts = std::array<std::int32_t, kColumns>;

  /// Buckets of `step` seconds covering [begin, end); at least one bucket.
  CountIntegrator(UnixTime begin, UnixTime end, std::int64_t step);

  /// Accumulate `counts` over [t0, t1) (clamped to the bucket window).
  /// Inline: the simulator's segment merge calls it once per segment.
  void add(UnixTime t0, UnixTime t1, const Counts& counts) {
    if ((counts[0] == 0 && counts[1] == 0 && counts[2] == 0) || t1 <= t0) {
      return;
    }
    t0 = t0 < begin_ ? begin_ : t0;
    t1 = t1 > window_end_ ? window_end_ : t1;
    if (t1 <= t0) return;
    const auto b0 = static_cast<std::size_t>((t0 - begin_) / step_);
    const auto b1 = static_cast<std::size_t>((t1 - 1 - begin_) / step_);
    const UnixTime lo0 = begin_ + static_cast<UnixTime>(b0) * step_;
    const UnixTime lo1 = begin_ + static_cast<UnixTime>(b1) * step_;
    const auto head = static_cast<double>(lo0 + step_ - t0);  // [t0, hi0)
    const auto skip = static_cast<double>(t0 - lo0);          // [lo0, t0)
    const auto tail = static_cast<double>(lo1 + step_ - t1);  // [t1, hi1)
    const auto used = static_cast<double>(t1 - lo1);          // [lo1, t1)
    for (std::size_t c = 0; c < kColumns; ++c) {
      const auto v = static_cast<double>(counts[c]);
      std::vector<double>& d = cells_[c];
      d[b0] += v * head;      // b0 holds [t0, hi0)
      d[b0 + 1] += v * skip;  // later buckets run at v * step
      d[b1] -= v * tail;      // b1 holds [lo1, t1)
      d[b1 + 1] -= v * used;  // later buckets hold nothing
    }
  }

  /// Per-bucket means of every column, built in place.
  [[nodiscard]] std::array<forecast::TimeSeries, kColumns> mean_series() &&;

 private:
  UnixTime begin_;
  std::int64_t step_;
  UnixTime window_end_;
  /// Per column, one cell per bucket plus a spare so an interval ending in
  /// the last bucket has somewhere to cancel.
  std::array<std::vector<double>, kColumns> cells_;
};

}  // namespace helios::sim
