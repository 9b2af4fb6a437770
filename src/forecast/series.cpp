#include "forecast/series.h"

#include <algorithm>

namespace helios::forecast {

TimeSeries TimeSeries::slice(std::size_t from, std::size_t to) const {
  TimeSeries out;
  from = std::min(from, values.size());
  to = std::clamp(to, from, values.size());
  out.begin = time_at(from);
  out.step = step;
  out.values.assign(values.begin() + static_cast<std::ptrdiff_t>(from),
                    values.begin() + static_cast<std::ptrdiff_t>(to));
  return out;
}

TimeSeries TimeSeries::between(UnixTime t0, UnixTime t1) const {
  const std::size_t from = index_of(t0);
  std::size_t to = index_of(t1);
  if (t1 > time_at(to)) ++to;
  return slice(from, std::min(to, values.size()));
}

std::size_t TimeSeries::index_of(UnixTime t) const noexcept {
  if (step <= 0 || values.empty() || t <= begin) return 0;
  const auto idx = static_cast<std::size_t>((t - begin) / step);
  return std::min(idx, values.size());
}

std::vector<double> diff(std::span<const double> v) {
  std::vector<double> out;
  if (v.size() < 2) return out;
  out.reserve(v.size() - 1);
  for (std::size_t i = 1; i < v.size(); ++i) out.push_back(v[i] - v[i - 1]);
  return out;
}

}  // namespace helios::forecast
