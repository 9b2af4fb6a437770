#include "sim/bucket_integrator.h"

#include <algorithm>
#include <utility>

namespace helios::sim {

BucketIntegrator::BucketIntegrator(UnixTime begin, UnixTime end,
                                   std::int64_t step)
    : begin_(begin), step_(step) {
  const auto buckets = static_cast<std::size_t>(
      std::max<std::int64_t>(1, (end - begin + step - 1) / step));
  slope_.assign(buckets + 1, 0.0);
  offset_.assign(buckets, 0.0);
}

std::vector<double> BucketIntegrator::integrals() && {
  const double step = static_cast<double>(step_);
  double running = 0.0;
  for (std::size_t b = 0; b < offset_.size(); ++b) {
    running += slope_[b];
    offset_[b] = running * step + offset_[b];
  }
  return std::move(offset_);
}

forecast::TimeSeries BucketIntegrator::mean_series() && {
  forecast::TimeSeries s;
  s.begin = begin_;
  s.step = step_;
  s.values = std::move(*this).integrals();
  const double step = static_cast<double>(step_);
  for (double& v : s.values) v /= step;
  return s;
}

CountIntegrator::CountIntegrator(UnixTime begin, UnixTime end,
                                 std::int64_t step)
    : begin_(begin), step_(step) {
  const auto buckets = static_cast<std::size_t>(
      std::max<std::int64_t>(1, (end - begin + step - 1) / step));
  window_end_ = begin + static_cast<UnixTime>(buckets) * step;
  for (auto& cells : cells_) cells.assign(buckets + 1, 0.0);
}

std::array<forecast::TimeSeries, CountIntegrator::kColumns>
CountIntegrator::mean_series() && {
  std::array<forecast::TimeSeries, kColumns> out;
  const double step = static_cast<double>(step_);
  for (std::size_t c = 0; c < kColumns; ++c) {
    std::vector<double>& d = cells_[c];
    d.pop_back();  // the spare cell only ever cancels
    double running = 0.0;
    for (double& v : d) {
      running += v;
      v = running / step;
    }
    out[c].begin = begin_;
    out[c].step = step_;
    out[c].values = std::move(d);
  }
  return out;
}

}  // namespace helios::sim
