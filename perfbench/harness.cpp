#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>
#include <stdexcept>

namespace perfbench {

// ---------------------------------------------------------------------------
// Sample summaries
// ---------------------------------------------------------------------------

namespace {

/// 1-based nearest rank of the percentile `bp` (in basis points) among n
/// samples: ceil(bp * n / 10000), at least 1. Integer arithmetic, so the
/// rank rule has no rounding edge cases.
std::size_t nearest_rank(std::uint64_t bp, std::size_t n) {
  return std::max<std::size_t>(1, (bp * n + 9999) / 10000);
}

}  // namespace

double percentile(std::span<const double> sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  const auto bp = static_cast<std::uint64_t>(std::llround(p * 100.0));
  return sorted[std::min(nearest_rank(bp, sorted.size()), sorted.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

SampleSummary summarize(std::vector<double> samples) {
  SampleSummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = median(samples);
  // Tail percentiles in basis points, highest first.
  for (const std::uint64_t bp : {9999u, 9990u, 9900u, 9000u}) {
    const std::size_t rank = nearest_rank(bp, s.count);
    if (s.count - rank >= 10) {
      s.tail_percentile = static_cast<double>(bp) / 100.0;
      s.tail = samples[rank - 1];
      break;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

int Tracer::begin(std::string name, std::string detail) {
  Span s;
  s.name = std::move(name);
  s.detail = std::move(detail);
  s.start = seconds_between(t0_, Clock::now());
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer: spans must close in stack order");
  }
  spans_[static_cast<std::size_t>(id)].end = seconds_between(t0_, Clock::now());
  open_.pop_back();
}

namespace {

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
}

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Tracer::write_json(std::ostream& out) const {
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"parent\": " << s.parent << ", \"name\": ";
    write_json_string(out, s.name);
    out << ", \"detail\": ";
    write_json_string(out, s.detail);
    out << ", \"start\": " << format_number(s.start)
        << ", \"end\": " << format_number(s.end) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = spans[i].start;  // end of the union covered so far
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, spans[i].end);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

namespace {

/// Index of the root span each span descends from. A parent always precedes
/// its children, so one forward pass suffices.
std::vector<int> root_of(const std::vector<Span>& spans) {
  std::vector<int> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    root[i] = p < 0 ? static_cast<int>(i) : root[static_cast<std::size_t>(p)];
  }
  return root;
}

}  // namespace

std::vector<std::map<std::string, double>> self_time_per_root(
    const std::vector<Span>& spans, std::string_view root_name) {
  const auto self = self_times(spans);
  const auto root = root_of(spans);
  std::map<int, std::size_t> slot;  // root span index -> output position
  std::vector<std::map<std::string, double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0 && spans[i].name == root_name) {
      slot[static_cast<int>(i)] = out.size();
      out.emplace_back();
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = slot.find(root[i]);
    if (it == slot.end() || root[i] == static_cast<int>(i)) continue;
    out[it->second][spans[i].name] += self[i];
  }
  return out;
}

std::vector<double> coverage_per_root(const std::vector<Span>& spans,
                                      std::string_view root_name) {
  const auto self = self_times(spans);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0 && s.name == root_name && s.duration() > 0.0) {
      out.push_back(1.0 - self[i] / s.duration());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------------

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double calibration_loop_seconds() {
  // A volatile seed keeps the compiler from evaluating the loop at build time.
  volatile std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  const auto t0 = Clock::now();
  std::uint64_t x = seed;
  for (int i = 0; i < 100'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double s = seconds_between(t0, Clock::now());
  // Store the result so the loop cannot be removed as dead code.
  volatile std::uint64_t sink = x;
  (void)sink;
  return s;
}

// ---------------------------------------------------------------------------
// Metric tables and the result line
// ---------------------------------------------------------------------------

namespace {

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"iter_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    // qssf_pipeline: span self times per iteration -> qssf_pipeline/iter_s
    {"trace.parse_s", "s"},
    {"sim.operate_fifo_s", "s"},
    {"analysis.characterize_s", "s"},
    {"analysis.vc_behaviors_s", "s"},
    {"core.qssf_fit_s", "s"},
    {"core.evaluate_s", "s"},
    {"sim.run_s.FIFO", "s"},
    {"sim.run_s.SJF", "s"},
    {"sim.run_s.SRTF", "s"},
    {"sim.run_s.QSSF", "s"},
    {"core.ces_history_sim_s", "s"},
    {"core.ces_fit_s", "s"},
    {"core.ces_replay_s", "s"},
    // sweep_grid: standalone serial cell seconds -> sweep_grid/iter_s
    {"sim.cell_s.Venus", "s"},
    {"sim.cell_s.Earth", "s"},
    {"sim.cell_s.Saturn", "s"},
    {"sim.cell_s.Uranus", "s"},
    {"sim.cell_s.Philly", "s"},
    {"sim.cell_s.PAI", "s"},
    {"sim.cell_s.FIFO", "s"},
    {"sim.cell_s.SJF", "s"},
    {"sim.cell_s.SRTF", "s"},
    {"sim.cell_s.QSSF", "s"},
    {"sweep.parallel_efficiency", "ratio"},
    {"sweep.trace_generations", "count"},
    {"sweep.trace_hits", "count"},
    // serve replay, in qssf_pipeline's traced run: no end-to-end metric
    {"svc.ingest_batch_p50_s", "s"},
    {"svc.ingest_batch_p90_s", "s"},
    {"svc.ingest_rows_per_s", "1/s"},
    {"svc.publish_s", "s"},
    {"svc.checkpoint_s", "s"},
    {"svc.checkpoint_bytes", "bytes"},
    {"svc.publishes", "count"},
    {"svc.checkpoints", "count"},
    {"svc.queries", "count"},
    {"svc.query_p50_us", "us"},
    {"svc.query_p99_us", "us"},
    {"core.qssf_fit_serial_s", "s"},
    // every workload
    {"pool.cpu_per_wall", "ratio"},
    {"trace.rows", "count"},
    {"sim.jobs", "count"},
    {"sim.unfinished_jobs", "count"},
    {"bench.iterations", "count"},
    {"bench.trace_overhead_s", "s"},
    {"bench.span_coverage", "ratio"},
};

}  // namespace

std::span<const MetricDef> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricDef> per_layer_metrics() { return kPerLayer; }

void Report::operation(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: FAILED: " << what << "\n";
  }
}

void Report::metric(std::string_view name, double value) {
  values_[std::string(name)] = value;
}

void Report::note(std::string_view text) { notes_.emplace_back(text); }

int Report::finish(std::span<const MetricDef> table, bool unset_is_zero,
                   std::ostream& out) {
  std::set<std::string_view> known;
  for (const MetricDef& m : table) known.insert(m.name);
  for (const auto& [name, value] : values_) {
    operation(known.count(name) == 1, "metric " + name + " is not in the table");
  }
  for (const MetricDef& m : table) {
    if (values_.count(m.name) == 0) {
      operation(unset_is_zero, "metric " + std::string(m.name) + " was not measured");
    }
  }

  for (const auto& line : notes_) out << line << "\n";
  for (const MetricDef& m : table) {
    const auto it = values_.find(m.name);
    const double v = it != values_.end() ? it->second : 0.0;
    char buf[160];
    std::snprintf(buf, sizeof buf, "metric %-28.*s %16.6f %.*s\n",
                  static_cast<int>(m.name.size()), m.name.data(), v,
                  static_cast<int>(m.unit.size()), m.unit.data());
    out << buf;
  }
  out << "fail_ratio " << failed_ << "/" << attempted_ << "\n";

  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto it = values_.find(table[i].name);
    const double v = it != values_.end() ? it->second : 0.0;
    out << (i > 0 ? ", " : "");
    write_json_string(out, table[i].name);
    out << ": {\"value\": " << format_number(v) << ", \"unit\": ";
    write_json_string(out, table[i].unit);
    out << "}";
  }
  out << "}}" << std::endl;
  return failed_ == 0 ? 0 : 1;
}

}  // namespace perfbench
