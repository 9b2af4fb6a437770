#include "sim/bucket_integrator.h"

#include <algorithm>

namespace helios::sim {

BucketIntegrator::BucketIntegrator(UnixTime begin, UnixTime end,
                                   std::int64_t step)
    : begin_(begin), step_(step) {
  const auto buckets = static_cast<std::size_t>(
      std::max<std::int64_t>(1, (end - begin + step - 1) / step));
  slope_.assign(buckets + 1, 0.0);
  offset_.assign(buckets, 0.0);
}

std::vector<double> BucketIntegrator::integrals() const {
  std::vector<double> out(offset_.size());
  const double step = static_cast<double>(step_);
  double running = 0.0;
  for (std::size_t b = 0; b < offset_.size(); ++b) {
    running += slope_[b];
    out[b] = running * step + offset_[b];
  }
  return out;
}

forecast::TimeSeries BucketIntegrator::mean_series() const {
  forecast::TimeSeries s;
  s.begin = begin_;
  s.step = step_;
  s.values = integrals();
  const double step = static_cast<double>(step_);
  for (double& v : s.values) v /= step;
  return s;
}

}  // namespace helios::sim
