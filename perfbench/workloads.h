// The perfbench workloads: one process runs one workload with its pool width
// pinned, times its set-up, then repeats one fixed unit of work and reports
// the median per iteration (see NOTES.md for why each workload exists and
// which layer metric should move which end-to-end metric).
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>

#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t threads = 1;  ///< pool workers the workload pinned
  double seconds = 10.0;  ///< length of the timed iteration loop
  bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
  std::filesystem::path workdir;  ///< scratch files (service checkpoints)
};

struct WorkloadDef {
  std::string_view name;
  /// Pool workers (HELIOS_THREADS). The calling thread also runs pool tasks,
  /// so up to threads + 1 threads run at once.
  std::size_t threads;
  void (*run)(const Options&, Tracer&, Report&);
};

[[nodiscard]] std::span<const WorkloadDef> workloads();

}  // namespace perfbench
