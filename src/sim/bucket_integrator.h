// Bucketed time integral of a piecewise-constant function.
//
// Used for the simulator's busy-node / busy-GPU / powered-node output series
// (which the CES service reads) and the analysis layer's busy GPU-seconds
// (analysis::busy_gpu_seconds, vc_behaviors): callers report intervals of
// constant value via add(), and mean_series() / integrals() read the result
// back as per-bucket means / per-bucket integrals.
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

#include <cstdint>
#include <vector>

#include "forecast/series.h"

namespace helios::sim {

class BucketIntegrator {
 public:
  /// Buckets of `step` seconds covering [begin, end); at least one bucket.
  BucketIntegrator(UnixTime begin, UnixTime end, std::int64_t step);

  /// Accumulate `value` over [t0, t1) (clamped to the bucket window).
  /// Inline: the simulator's segment-merge loop issues paired calls with
  /// identical intervals, and inlining lets the clamp arithmetic be shared.
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
  [[nodiscard]] std::vector<double> integrals() const;

  /// Per-bucket mean values: integrals() / step.
  [[nodiscard]] forecast::TimeSeries mean_series() const;

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

}  // namespace helios::sim
