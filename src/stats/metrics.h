// Forecast / regression error metrics.
//
// SMAPE is the headline metric of the paper's CES evaluation ("around 3.6%
// error rate (measured in Symmetric Mean Absolute Percentage Error)").
#pragma once

#include <span>

namespace helios::stats {

/// Symmetric Mean Absolute Percentage Error, in percent (0..200):
/// mean of 200 * |y - yhat| / (|y| + |yhat|); terms with both values 0
/// contribute 0.
[[nodiscard]] double smape(std::span<const double> actual,
                           std::span<const double> predicted) noexcept;

/// Mean Absolute Error.
[[nodiscard]] double mae(std::span<const double> actual,
                         std::span<const double> predicted) noexcept;

/// Root Mean Squared Error.
[[nodiscard]] double rmse(std::span<const double> actual,
                          std::span<const double> predicted) noexcept;

/// Coefficient of determination R^2 (can be negative for bad fits).
[[nodiscard]] double r2(std::span<const double> actual,
                        std::span<const double> predicted) noexcept;

}  // namespace helios::stats
