// Measurement helpers shared by the perfbench workloads: sample summaries,
// in-memory span tracing with self times, process counters, the metric
// tables the benchmark emits, and the result line it prints last.
//
// Everything here runs on the benchmark's own calling thread; spans are
// recorded around calls into the helios library, never inside it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Sample summaries
// ---------------------------------------------------------------------------

/// Median of a sample plus the highest of the tail percentiles
/// {p90, p99, p99.9, p99.99} that still has at least 10 samples beyond it.
/// tail_percentile is 0 (and tail unset) when not even p90 qualifies, i.e.
/// below 100 samples.
struct SampleSummary {
  std::size_t count = 0;
  double median = 0.0;
  double tail_percentile = 0.0;
  double tail = 0.0;
};

[[nodiscard]] SampleSummary summarize(std::vector<double> samples);

/// Nearest-rank percentile (p in (0, 100], resolved to 0.01) of an
/// ascending-sorted sample: the value at 1-based rank ceil(p * n / 100).
[[nodiscard]] double percentile(std::span<const double> sorted, double p);

/// Median of a sample (mean of the two middle values for even sizes).
[[nodiscard]] double median(std::vector<double> samples);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::string detail;  ///< free-form label (e.g. a sweep cell), may be empty
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 for a root

  [[nodiscard]] double duration() const noexcept { return end - start; }
};

/// Records nested spans in memory. Spans open and close in stack order on
/// one thread; a span's parent is whichever span was open when it began.
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  int begin(std::string name, std::string detail = {});
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Writes every span as one JSON document.
  void write_json(std::ostream& out) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op, so one code path serves both
/// the timed run and the traced run.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string detail = {})
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name), std::move(detail))
                              : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children's intervals are clipped to the
/// parent and overlapping children count once).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// For each root span named `root_name`: the summed self time per span name
/// of everything beneath it (the root itself excluded). One map per root,
/// in span order.
[[nodiscard]] std::vector<std::map<std::string, double>> self_time_per_root(
    const std::vector<Span>& spans, std::string_view root_name);

/// Share of each `root_name` root's duration covered by its descendants:
/// 1 - self(root) / duration(root). One value per root, in span order.
[[nodiscard]] std::vector<double> coverage_per_root(
    const std::vector<Span>& spans, std::string_view root_name);

// ---------------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------------

/// User + system CPU seconds of the whole process so far.
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Seconds taken by a fixed single-threaded integer loop. Printed as host
/// context only: it is never a metric and never scales one.
[[nodiscard]] double calibration_loop_seconds();

// ---------------------------------------------------------------------------
// Metric tables and the result line
// ---------------------------------------------------------------------------

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Metrics of the untraced run (--trace 0), in BENCHMARK.json order.
[[nodiscard]] std::span<const MetricDef> end_to_end_metrics();
/// Metrics of the traced run (--trace 1), in BENCHMARK.json order.
[[nodiscard]] std::span<const MetricDef> per_layer_metrics();

/// Collects metrics, context lines and operation outcomes, then prints the
/// human-readable report followed by the one-line JSON result.
class Report {
 public:
  /// Record one operation (an iteration or an output check). A failed one
  /// is printed to stderr immediately.
  void operation(bool ok, std::string_view what);

  /// A metric of the result line. Its name must be in the table of the
  /// run's mode; finish() fails the run otherwise.
  void metric(std::string_view name, double value);

  /// A context line for the human-readable report only.
  void note(std::string_view text);

  /// Prints notes, every metric by name with its unit, and the JSON line.
  /// With `unset_is_zero`, metrics of `table` that were never set are
  /// reported as 0 (a layer the workload does not exercise); otherwise an
  /// unset metric fails the run. A metric outside `table` always fails it.
  /// Returns the process exit code.
  int finish(std::span<const MetricDef> table, bool unset_is_zero,
             std::ostream& out);

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> notes_;
  std::map<std::string, double, std::less<>> values_;
};

}  // namespace perfbench
