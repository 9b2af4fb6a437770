// The paper's two evaluation protocols as reusable library studies.
//
// These used to live in bench/bench_common.* where only bench binaries could
// reach them; they are library code now so tests, examples, and services can
// run the same protocols. bench/bench_common.h re-exports them under
// helios::bench for the fig/table harnesses.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ces_service.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace helios::sweep {

/// One scheduler-comparison experiment (§4.2.3 protocol): train QSSF on
/// [trace begin, train_end), evaluate all four policies on GPU jobs
/// submitted in [train_end, eval_end). The four policy runs are four
/// ClusterSimulator::run tasks on the pool over the one evaluation slice
/// (QSSF's priority function is the trained evaluator). They do not go
/// through the ScenarioEngine, whose cells drop their per-job outcomes:
/// Table 4 and the Fig. 11–13 CDFs read them. Each result is bit-identical
/// to a standalone run at any pool width.
struct SchedulerStudy {
  trace::Trace eval;  ///< evaluation window slice (GPU + CPU jobs)
  sim::SimResult fifo;
  sim::SimResult sjf;
  sim::SimResult srtf;
  sim::SimResult qssf;
  std::vector<double> qssf_predicted_gpu_time;  ///< aligned with actual below
  std::vector<double> qssf_actual_gpu_time;
};

[[nodiscard]] SchedulerStudy run_scheduler_study(const trace::Trace& full,
                                                 UnixTime train_end,
                                                 UnixTime eval_end);

/// One CES experiment (§4.3.3 protocol): fit a GBDT node forecaster on the
/// FIFO-operated running-nodes series before eval_begin, replay
/// [eval_begin, eval_end) under Algorithm 2 (and optionally vanilla DRS).
struct CesStudy {
  core::CesResult ces;
  core::CesResult vanilla;
};

[[nodiscard]] CesStudy run_ces_study(const trace::Trace& operated,
                                     UnixTime eval_begin, UnixTime eval_end,
                                     bool include_vanilla = true);

/// JCT values (seconds) from a sim result, excluding rejected jobs.
[[nodiscard]] std::vector<double> jct_values(const sim::SimResult& r);

/// Queue-delay values (seconds) from a sim result.
[[nodiscard]] std::vector<double> queue_delay_values(const sim::SimResult& r);

}  // namespace helios::sweep
