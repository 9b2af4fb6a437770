// Descriptive statistics: streaming moments, quantiles, box-plot stats.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace helios::stats {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::int64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when n < 2.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile of a sample using linear interpolation between order statistics
/// (type-7, the numpy default). `q` in [0, 1]. Copies + sorts internally.
[[nodiscard]] double quantile(std::span<const double> data, double q);

/// Quantile of data already sorted ascending (no copy).
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q) noexcept;

[[nodiscard]] double median(std::span<const double> data);
[[nodiscard]] double mean(std::span<const double> data) noexcept;
[[nodiscard]] double stddev(std::span<const double> data) noexcept;

/// Box-plot statistics exactly as the paper's Figure 4 defines them:
/// box = Q1..Q3, median line, whiskers at 1.5 * IQR clamped to data range.
struct BoxStats {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double whisker_lo = 0.0;  ///< smallest datum >= q1 - 1.5 * IQR
  double whisker_hi = 0.0;  ///< largest datum <= q3 + 1.5 * IQR
  double mean = 0.0;
  std::int64_t count = 0;

  [[nodiscard]] double iqr() const noexcept { return q3 - q1; }
};

/// Box stats of `data` (copies + sorts, then box_stats_sorted).
[[nodiscard]] BoxStats box_stats(std::span<const double> data);

/// Box stats of data already sorted ascending (no copy) — for callers that
/// can produce the order more cheaply than a comparison sort.
[[nodiscard]] BoxStats box_stats_sorted(std::span<const double> sorted);

}  // namespace helios::stats
