// Regularly sampled time series and basic transforms.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/civil_time.h"

namespace helios::forecast {

/// A regular series: values[i] covers [begin + i*step, begin + (i+1)*step).
struct TimeSeries {
  UnixTime begin = 0;
  std::int64_t step = 600;  ///< seconds per sample (default 10 minutes)
  std::vector<double> values;

  [[nodiscard]] std::size_t size() const noexcept { return values.size(); }
  [[nodiscard]] bool empty() const noexcept { return values.empty(); }
  [[nodiscard]] UnixTime time_at(std::size_t i) const noexcept {
    return begin + static_cast<UnixTime>(i) * step;
  }
  [[nodiscard]] UnixTime end() const noexcept {
    return begin + static_cast<UnixTime>(values.size()) * step;
  }

  /// Sub-series of samples [from, to).
  [[nodiscard]] TimeSeries slice(std::size_t from, std::size_t to) const;

  /// Sub-series covering timestamps [t0, t1) (clamped to the series).
  [[nodiscard]] TimeSeries between(UnixTime t0, UnixTime t1) const;

  /// Index of the sample containing `t`, clamped to [0, size).
  [[nodiscard]] std::size_t index_of(UnixTime t) const noexcept;
};

/// First difference (size n-1); empty for n < 2.
[[nodiscard]] std::vector<double> diff(std::span<const double> v);

}  // namespace helios::forecast
