// Unit tests of the benchmark's own arithmetic: sample summaries (median,
// the highest percentile with at least ten samples beyond it, the count)
// and span self times. Exit status is the number of failed checks.
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

/// 1, 2, ..., n in shuffled order.
std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[(i * 7919) % n] = static_cast<double>(i + 1);
  return v;
}

void test_summaries() {
  using perfbench::summarize;
  {
    const auto s = summarize({});
    check(s.count == 0 && s.tail_percentile == 0.0, "empty sample");
  }
  {
    const auto s = summarize({3.0, 1.0, 2.0});
    check(s.count == 3 && s.median == 2.0, "odd median");
    check(s.tail_percentile == 0.0, "3 samples have no tail percentile");
  }
  check(summarize({4.0, 1.0, 3.0, 2.0}).median == 2.5, "even median");
  {
    // 99 samples: p90 sits at rank 90 with only 9 beyond it.
    const auto s = summarize(ramp(99));
    check(s.count == 99 && s.tail_percentile == 0.0, "99 samples: no tail");
  }
  {
    const auto s = summarize(ramp(100));
    check(s.tail_percentile == 90.0 && s.tail == 90.0, "100 samples: p90 = 90");
  }
  {
    // 999 samples: p99 is rank 990 with 9 beyond, so p90 (rank 900) wins.
    const auto s = summarize(ramp(999));
    check(s.tail_percentile == 90.0 && s.tail == 900.0, "999 samples: p90");
  }
  {
    const auto s = summarize(ramp(1000));
    check(s.tail_percentile == 99.0 && s.tail == 990.0, "1000 samples: p99");
    check(s.median == 500.5, "1000 samples: median");
  }
  {
    const auto s = summarize(ramp(6720));  // one serve replay's queries
    check(s.tail_percentile == 99.0 && s.tail == 6653.0, "6720 samples: p99");
  }
  {
    const auto s = summarize(ramp(100000));
    check(s.tail_percentile == 99.99 && s.tail == 99990.0, "100000 samples: p99.99");
  }
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  check(perfbench::percentile(sorted, 50) == 5.0, "nearest-rank p50");
  check(perfbench::percentile(sorted, 90) == 9.0, "nearest-rank p90");
  check(perfbench::percentile(sorted, 91) == 10.0, "nearest-rank p91");
  check(perfbench::percentile(sorted, 100) == 10.0, "nearest-rank p100");
}

perfbench::Span span(const char* name, double start, double end, int parent) {
  perfbench::Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

void test_self_times() {
  using perfbench::Span;
  // iteration [0, 10): parse [1, 3), fit [3, 8) holding gbdt [4, 6) and a
  // child overrunning its parent [7, 9) that counts only up to 8.
  const std::vector<Span> spans = {
      span("iteration", 0, 10, -1), span("parse", 1, 3, 0),
      span("fit", 3, 8, 0),         span("gbdt", 4, 6, 2),
      span("late", 7, 9, 2),        span("iteration", 20, 24, -1),
      span("parse", 20, 22, 5),     span("parse", 21, 23, 5),
  };
  const auto self = perfbench::self_times(spans);
  check(near(self[0], 3.0), "root self = 10 - parse 2 - fit 5");
  check(near(self[1], 2.0), "leaf self = its duration");
  check(near(self[2], 2.0), "fit self = 5 - gbdt 2 - late clipped to 1");
  check(near(self[3], 2.0) && near(self[4], 2.0), "children leaves");
  check(near(self[5], 1.0), "overlapping children count once: 4 - 3");

  const auto per_root = perfbench::self_time_per_root(spans, "iteration");
  check(per_root.size() == 2, "two iteration roots");
  check(near(per_root[0].at("parse"), 2.0) && near(per_root[0].at("fit"), 2.0) &&
            near(per_root[0].at("gbdt"), 2.0) && per_root[0].count("iteration") == 0,
        "per-root self times by name");
  check(near(per_root[1].at("parse"), 4.0), "same-name spans sum");

  const auto coverage = perfbench::coverage_per_root(spans, "iteration");
  check(coverage.size() == 2 && near(coverage[0], 0.7) && near(coverage[1], 0.75),
        "coverage = 1 - self / duration");

  // The tracer itself nests spans by open order.
  perfbench::Tracer tracer;
  const int outer = tracer.begin("outer");
  const int inner = tracer.begin("inner");
  tracer.end(inner);
  tracer.end(outer);
  check(tracer.spans().size() == 2 && tracer.spans()[1].parent == outer &&
            tracer.spans()[0].parent == -1,
        "tracer records parents");
  check(tracer.spans()[0].start <= tracer.spans()[1].start &&
            tracer.spans()[1].end <= tracer.spans()[0].end,
        "child interval inside parent");
}

}  // namespace

int main() {
  test_summaries();
  test_self_times();
  if (failures == 0) std::puts("perfbench unit tests: all passed");
  return failures;
}
