#include "sweep/scenario_engine.h"

#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"

namespace helios::sweep {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// [first GPU-job submit, last possible completion) — the window the
/// simulator itself derives, so fault events cover exactly the simulated
/// horizon.
std::pair<UnixTime, UnixTime> sim_window(const trace::Trace& t) {
  UnixTime begin = 0;
  UnixTime end = 1;
  bool first = true;
  for (const auto& j : t.jobs()) {
    if (!j.is_gpu_job()) continue;
    if (first) {
      begin = j.submit_time;
      first = false;
    }
    end = std::max<UnixTime>(end, j.submit_time + j.duration + 1);
  }
  return {begin, end};
}

}  // namespace

PriorityProvider oracle_gpu_time_provider() {
  return [](const ScenarioSpec&, const trace::Trace&) -> sim::PriorityFn {
    return [](const trace::JobRecord& j) {
      return static_cast<double>(j.duration) * j.num_gpus;
    };
  };
}

ScenarioEngine::ScenarioEngine(TraceStore& store, EngineConfig config)
    : store_(store), config_(std::move(config)) {}

sim::FaultPlan ScenarioEngine::make_fault_plan(const FaultSpec& fault,
                                               const trace::Trace& t) {
  if (!fault.enabled()) return {};
  sim::FaultPlanConfig cfg;
  cfg.mtbf_days = fault.mtbf_days;
  cfg.flaky_fraction = fault.flaky_fraction;
  cfg.flaky_multiplier = fault.flaky_multiplier;
  cfg.mean_downtime = fault.mean_downtime;
  cfg.seed = fault.seed;
  const auto [begin, end] = sim_window(t);
  return sim::FaultPlan::generate(t.cluster(), cfg, begin, end);
}

sim::SimConfig ScenarioEngine::cell_config(const ScenarioSpec& spec,
                                           const trace::Trace& t) const {
  sim::SimConfig cfg;
  cfg.policy = spec.policy;
  cfg.backfill = spec.backfill;
  cfg.series_step = config_.series_step;
  cfg.execution = config_.execution;
  cfg.restart = spec.fault.restart;
  cfg.power_profile = spec.power.profile;
  cfg.power_cap_watts = spec.power.cap_watts;
  if (spec.policy == sim::SchedulerPolicy::kQssf) {
    if (!config_.priority_provider) {
      throw std::invalid_argument(
          "ScenarioEngine: grid contains a kQssf cell but "
          "EngineConfig::priority_provider is unset: " +
          spec.label());
    }
    cfg.priority_fn = config_.priority_provider(spec, t);
  }
  return cfg;
}

SweepResult ScenarioEngine::run(const SweepGrid& grid) const {
  return run(grid.expand());
}

SweepResult ScenarioEngine::run(const std::vector<ScenarioSpec>& cells) const {
  const auto grid_t0 = std::chrono::steady_clock::now();
  const bool parallel = config_.execution == common::ExecMode::kParallel;

  // ---- level 0: materialize each distinct trace exactly once --------------
  // Cells index into `traces` by key; the store deduplicates across engine
  // runs and processes, this map deduplicates within the fan-out so the
  // task graph holds one materialization task per key.
  std::map<TraceKey, TraceStore::TracePtr> traces;
  for (const ScenarioSpec& c : cells) traces.emplace(c.workload.key, nullptr);
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(traces.size());
    for (auto& [key, slot] : traces) {
      tasks.push_back([this, &key = key, &slot = slot] { slot = store_.get(key); });
    }
    if (parallel) {
      parallel_run_tasks(std::move(tasks));
    } else {
      for (auto& task : tasks) task();
    }
  }

  // ---- cell setup (serial, deterministic order) ---------------------------
  // Fault plans and priority functions are built in cell order on the
  // calling thread: providers may fit models or keep state, and plan storage
  // must be stable while cells run.
  SweepResult sweep;
  sweep.cells.resize(cells.size());
  sweep.traces_used = static_cast<std::int64_t>(traces.size());
  std::vector<sim::SimConfig> configs(cells.size());
  std::vector<sim::FaultPlan> plans(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const trace::Trace& t = *traces.at(cells[i].workload.key);
    sweep.cells[i].spec = cells[i];
    configs[i] = cell_config(cells[i], t);
    if (cells[i].fault.enabled()) {
      plans[i] = make_fault_plan(cells[i].fault, t);
      configs[i].fault_plan = &plans[i];
    }
  }

  // ---- level 1: run cells into preassigned slots --------------------------
  std::vector<std::function<void()>> tasks;
  tasks.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    tasks.push_back([&, i] {
      const trace::Trace& t = *traces.at(cells[i].workload.key);
      const auto t0 = std::chrono::steady_clock::now();
      sim::SimResult& result = sweep.cells[i].result;
      result = sim::ClusterSimulator(t.cluster(), configs[i]).run(t);
      sweep.cells[i].wall_ms = elapsed_ms(t0);
      // The digest stands in for the outcomes. Swapping (not clear()) frees
      // their storage now, so only the cells still running hold outcomes.
      std::vector<sim::JobOutcome>().swap(result.outcomes);
    });
  }
  if (parallel) {
    parallel_run_tasks(std::move(tasks));
  } else {
    for (auto& task : tasks) task();
  }

  sweep.wall_ms = elapsed_ms(grid_t0);
  return sweep;
}

}  // namespace helios::sweep
