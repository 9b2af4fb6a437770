// perfbench_harness: runs one benchmark workload and prints its report, the
// last line being the JSON result.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--workdir <dir>] [--spans <file.json>]
//   perfbench_harness --list-metrics
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics from spans around every library call (and writes the spans to
// --spans). Exit status is non-zero when any iteration or output check fails.
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "common/thread_pool.h"
#include "harness.h"
#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench_harness --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>] [--spans <file>]\n"
               "       perfbench_harness --list-metrics\n";
  return 2;
}

void list_metrics() {
  const auto print = [](const char* mode, auto table) {
    for (const auto& m : table) std::cout << mode << " " << m.name << " " << m.unit << "\n";
  };
  print("end_to_end", perfbench::end_to_end_metrics());
  print("per_layer", perfbench::per_layer_metrics());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string spans_path;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (arg == "--workdir") {
        opt.workdir = value;
      } else if (arg == "--spans") {
        spans_path = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !(opt.seconds > 0.0)) return usage();
  const WorkloadDef* def = nullptr;
  for (const auto& w : workloads()) {
    if (w.name == opt.workload) def = &w;
  }
  if (def == nullptr) {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  if (opt.workdir.empty()) opt.workdir = "perfbench_work";

  // The pool reads HELIOS_THREADS once, at first use, which is below.
  opt.threads = def->threads;
  setenv("HELIOS_THREADS", std::to_string(def->threads).c_str(), 1);

  Report report;
  Tracer tracer;
  try {
    report.operation(helios::global_pool().thread_count() == def->threads,
                     "pool width is pinned");
    const double calibration_before = calibration_loop_seconds();
    def->run(opt, tracer, report);
    const double calibration_after = calibration_loop_seconds();
    report.note("workload " + opt.workload + ", seed " + std::to_string(opt.seed) +
                ", " + std::to_string(def->threads) +
                " pool workers + the calling thread, closed loop");
    report.note("host calibration loop (context only, not a metric): " +
                std::to_string(calibration_before) + " s before, " +
                std::to_string(calibration_after) + " s after");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
  if (opt.trace && !spans_path.empty()) {
    std::ofstream out(spans_path);
    tracer.write_json(out);
    report.operation(static_cast<bool>(out), "spans written to " + spans_path);
  }
  return report.finish(opt.trace ? per_layer_metrics() : end_to_end_metrics(),
                       /*unset_is_zero=*/opt.trace, std::cout);
}
