#include "stats/metrics.h"

#include <algorithm>
#include <cmath>

namespace helios::stats {

namespace {
std::size_t common_size(std::span<const double> a, std::span<const double> b) noexcept {
  return std::min(a.size(), b.size());
}
}  // namespace

double smape(std::span<const double> actual,
             std::span<const double> predicted) noexcept {
  const std::size_t n = common_size(actual, predicted);
  if (n == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double denom = std::abs(actual[i]) + std::abs(predicted[i]);
    if (denom > 0.0) acc += 200.0 * std::abs(actual[i] - predicted[i]) / denom;
  }
  return acc / static_cast<double>(n);
}

double mae(std::span<const double> actual,
           std::span<const double> predicted) noexcept {
  const std::size_t n = common_size(actual, predicted);
  if (n == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += std::abs(actual[i] - predicted[i]);
  return acc / static_cast<double>(n);
}

double rmse(std::span<const double> actual,
            std::span<const double> predicted) noexcept {
  const std::size_t n = common_size(actual, predicted);
  if (n == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = actual[i] - predicted[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(n));
}

double r2(std::span<const double> actual,
          std::span<const double> predicted) noexcept {
  const std::size_t n = common_size(actual, predicted);
  if (n == 0) return 0.0;
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean += actual[i];
  mean /= static_cast<double>(n);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = actual[i] - predicted[i];
    const double t = actual[i] - mean;
    ss_res += r * r;
    ss_tot += t * t;
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace helios::stats
