// Trace-ingestion microbenchmark: serial Trace::load_csv vs the parallel
// loader on a synthetic multi-million-row trace CSV held in memory (so disk
// speed is out of the picture and only parse + intern + merge is measured).
//
// Knobs: HELIOS_INGEST_ROWS (default 1'000'000), HELIOS_INGEST_REPS
// (default 3; best-of is reported), HELIOS_THREADS (default: hardware).
//
// The acceptance bar for the pipeline is >= 2x parallel speedup on >= 4
// cores with serial and parallel loads producing identical Trace contents;
// the identity check runs unconditionally. Every eighth job name needs CSV
// quoting and every third row ends in CRLF, so both the allocation-free
// row split and its quoted fallback are timed and gated.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "common/env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "trace/parallel_loader.h"
#include "trace/trace.h"

namespace {

using namespace helios;

trace::Trace make_synthetic(std::size_t rows, std::uint64_t seed) {
  // Field cardinalities loosely follow the Helios traces: hundreds of users,
  // tens of VCs, thousands of distinct job names.
  Rng rng(seed);
  trace::Trace t;
  std::string user, vc, name;
  for (std::size_t i = 0; i < rows; ++i) {
    user = "u" + std::to_string(rng.uniform_int(0, 999));
    vc = "vc" + std::to_string(rng.uniform_int(0, 29));
    name = "job_" + std::to_string(rng.uniform_int(0, 4999)) + "_v" +
           std::to_string(rng.uniform_int(0, 7));
    if (i % 8 == 0) name += i % 16 == 0 ? ",lr=0.1" : " \"ft\"";
    auto& j = t.add(static_cast<UnixTime>(1'585'699'200 + i / 2),
                    static_cast<std::int32_t>(rng.uniform_int(1, 86'400)),
                    static_cast<std::int32_t>(rng.uniform_int(0, 8)),
                    static_cast<std::int32_t>(rng.uniform_int(1, 48)), user, vc,
                    name, static_cast<trace::JobState>(rng.uniform_int(0, 2)));
    j.start_time = j.submit_time + rng.uniform_int(0, 3'600);
  }
  return t;
}

/// CRLF-terminates every third line.
std::string with_some_crlf(const std::string& lf) {
  std::string out;
  out.reserve(lf.size() + lf.size() / 64);
  std::size_t line = 0;
  for (const char c : lf) {
    if (c == '\n' && line++ % 3 == 0) out += '\r';
    out += c;
  }
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  const auto rows =
      static_cast<std::size_t>(env_int("HELIOS_INGEST_ROWS", 1'000'000));
  const auto reps = static_cast<int>(env_int("HELIOS_INGEST_REPS", 3));
  const auto threads =
      static_cast<std::size_t>(env_int("HELIOS_THREADS", 0));

  std::printf("== microbench_ingest: %zu rows, best of %d reps ==\n", rows,
              reps);
  std::printf("hardware threads: %zu (pool: %zu)\n",
              static_cast<std::size_t>(std::thread::hardware_concurrency()),
              global_pool().thread_count());

  const trace::Trace original = make_synthetic(rows, 42);
  std::ostringstream os;
  original.save_csv(os);
  const std::string csv = with_some_crlf(std::move(os).str());
  std::printf("csv size: %.1f MB\n", static_cast<double>(csv.size()) / 1e6);

  trace::ClusterSpec spec;
  spec.name = "synthetic";

  double serial_best = 1e300;
  trace::Trace serial;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    std::istringstream is(csv);
    serial = trace::Trace::load_csv(is, spec);
    serial_best = std::min(serial_best, seconds_since(t0));
  }

  trace::LoadOptions opts;
  opts.threads = threads;
  double parallel_best = 1e300;
  trace::Trace parallel;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    parallel = trace::ParallelLoader(opts).load(csv, spec);
    parallel_best = std::min(parallel_best, seconds_since(t0));
  }

  const bool identical =
      serial.contents_equal(parallel) && serial.contents_equal(original);
  const double speedup = serial_best / parallel_best;
  const double rows_per_s = static_cast<double>(rows) / parallel_best;
  std::printf("serial   : %8.3f s  (%.2f M rows/s)\n", serial_best,
              static_cast<double>(rows) / serial_best / 1e6);
  std::printf("parallel : %8.3f s  (%.2f M rows/s)\n", parallel_best,
              rows_per_s / 1e6);
  std::printf("speedup  : %8.2fx\n", speedup);
  std::printf("identical contents: %s\n", identical ? "yes" : "NO (BUG)");
  if (!identical) return 1;
  return 0;
}
