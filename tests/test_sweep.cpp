// Scenario sweep engine (src/sweep/): determinism and sharing contracts.
//
//   * cell ≡ standalone — every cell's SimResult is bit-identical to a
//     standalone ClusterSimulator::run with the same spec/config/trace
//     (reconstructed through cell_config + make_fault_plan);
//   * engine parallel ≡ serial across a grid that exercises all policies,
//     backfill, and fault injection;
//   * repeat-run stability — rerunning a grid on the same store reproduces
//     every cell without regenerating any trace;
//   * engine cells free their per-job outcomes and keep the digest of a
//     standalone run's outcomes;
//   * run_scheduler_study's four policy runs equal standalone runs, per-job
//     outcomes included;
//   * TraceStore generates each distinct key exactly once and shares the
//     materialized trace by pointer;
//   * the Alibaba-PAI workload family hits its calibration marginals (short
//     recurring jobs, small GPU sizes, heavy CPU component) and is
//     seed-deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/civil_time.h"
#include "core/qssf_service.h"
#include "stats/summary.h"
#include "sweep/scenario_engine.h"
#include "sweep/studies.h"
#include "trace/synthetic.h"

namespace helios::sweep {
namespace {

constexpr double kScale = 0.02;

SweepGrid small_grid() {
  SweepGrid grid;
  grid.clusters = {"Venus", "PAI"};
  grid.policies = {sim::SchedulerPolicy::kFifo, sim::SchedulerPolicy::kSjf,
                   sim::SchedulerPolicy::kQssf};
  grid.backfills = {false, true};
  grid.scales = {kScale};
  grid.seeds = {42, 43};
  FaultSpec faults;
  faults.name = "mtbf30";
  faults.mtbf_days = 30.0;
  faults.flaky_fraction = 0.05;
  grid.faults = {FaultSpec{}, faults};
  return grid;
}

EngineConfig engine_config(common::ExecMode mode) {
  EngineConfig cfg;
  cfg.execution = mode;
  cfg.priority_provider = oracle_gpu_time_provider();
  return cfg;
}

void expect_cells_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_TRUE(results_identical(a.cells[i].result, b.cells[i].result))
        << "cell " << i << ": " << a.cells[i].spec.label();
  }
}

TEST(ScenarioEngine, GridExpansionIsDeterministic) {
  const SweepGrid grid = small_grid();
  const auto cells = grid.expand();
  EXPECT_EQ(cells.size(), grid.cell_count());
  // clusters×seeds×pol×bf×fault (×1 default power)
  EXPECT_EQ(cells.size(), 2u * 2u * 3u * 2u * 2u);
  const auto again = grid.expand();
  ASSERT_EQ(cells.size(), again.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].label(), again[i].label()) << i;
  }
  // Workload axis is outermost: the first block shares one trace key.
  const std::size_t per_workload = 3u * 2u * 2u;
  for (std::size_t i = 1; i < per_workload; ++i) {
    EXPECT_EQ(cells[i].workload.key, cells[0].workload.key);
  }
  EXPECT_NE(cells[per_workload].workload.key, cells[0].workload.key);
}

TEST(ScenarioEngine, CellsMatchStandaloneRuns) {
  const SweepGrid grid = small_grid();
  TraceStore store;
  const ScenarioEngine engine(store, engine_config(common::ExecMode::kParallel));
  const SweepResult sweep = engine.run(grid);
  ASSERT_EQ(sweep.cells.size(), grid.cell_count());

  for (const CellResult& cell : sweep.cells) {
    const auto t = store.get(cell.spec.workload.key);
    sim::SimConfig cfg = engine.cell_config(cell.spec, *t);
    sim::FaultPlan plan;
    if (cell.spec.fault.enabled()) {
      plan = ScenarioEngine::make_fault_plan(cell.spec.fault, *t);
      cfg.fault_plan = &plan;
    }
    const sim::SimResult standalone =
        sim::ClusterSimulator(t->cluster(), cfg).run(*t);
    EXPECT_TRUE(results_identical(cell.result, standalone))
        << cell.spec.label();
    // The cell freed its outcomes and kept their digest, which is the digest
    // of the standalone run's full outcome vector.
    EXPECT_TRUE(cell.result.outcomes.empty()) << cell.spec.label();
    EXPECT_EQ(cell.result.outcomes.capacity(), 0u) << cell.spec.label();
    ASSERT_FALSE(standalone.outcomes.empty()) << cell.spec.label();
    EXPECT_EQ(cell.result.outcomes_digest,
              sim::outcomes_digest(standalone.outcomes))
        << cell.spec.label();
  }
}

TEST(ScenarioEngine, ParallelMatchesSerialAcrossGrid) {
  const SweepGrid grid = small_grid();
  TraceStore par_store;
  TraceStore ser_store;
  const SweepResult par =
      ScenarioEngine(par_store, engine_config(common::ExecMode::kParallel))
          .run(grid);
  const SweepResult ser =
      ScenarioEngine(ser_store, engine_config(common::ExecMode::kSerial))
          .run(grid);
  expect_cells_identical(par, ser);
}

TEST(ScenarioEngine, RepeatRunIsStableAndRegeneratesNothing) {
  const SweepGrid grid = small_grid();
  TraceStore store;
  const ScenarioEngine engine(store, engine_config(common::ExecMode::kParallel));
  const SweepResult first = engine.run(grid);
  const auto generations_after_first = store.generations();
  const SweepResult second = engine.run(grid);
  expect_cells_identical(first, second);
  EXPECT_EQ(store.generations(), generations_after_first);
  EXPECT_GT(store.hits(), 0u);
}

// ---- PowerSpec axis --------------------------------------------------------

SweepGrid power_grid() {
  SweepGrid grid;
  grid.clusters = {"Venus"};
  grid.policies = {sim::SchedulerPolicy::kFifo, sim::SchedulerPolicy::kQssf};
  grid.backfills = {false, true};
  grid.scales = {kScale};
  grid.seeds = {42};
  PowerSpec capped;
  capped.name = "cap30";
  // Idle baseline of every Venus node plus ~30% of the GPUs at full draw.
  const auto spec = trace::helios_cluster("Venus");
  std::int64_t nodes = 0;
  std::int64_t gpus = 0;
  for (const auto& vc : spec.vcs) {
    nodes += vc.nodes;
    gpus += static_cast<std::int64_t>(vc.nodes) * vc.gpus_per_node;
  }
  capped.cap_watts = capped.profile.idle_node_watts * static_cast<double>(nodes) +
                     capped.profile.gpu_watts * static_cast<double>(gpus) * 0.3;
  grid.powers = {PowerSpec{}, capped};
  return grid;
}

TEST(ScenarioEngine, PowerAxisExpandsInnermostAndLabels) {
  const SweepGrid grid = power_grid();
  const auto cells = grid.expand();
  EXPECT_EQ(cells.size(), grid.cell_count());
  EXPECT_EQ(cells.size(), 1u * 1u * 2u * 2u * 1u * 2u);  // ...×fault×power
  // Power is the innermost axis: adjacent cells differ only in power.
  EXPECT_EQ(cells[0].power.name, "uncapped");
  EXPECT_EQ(cells[1].power.name, "cap30");
  EXPECT_EQ(cells[0].policy, cells[1].policy);
  EXPECT_EQ(cells[0].backfill, cells[1].backfill);
  // Labels carry the power name only when it departs from the default.
  EXPECT_EQ(cells[0].label().find("power="), std::string::npos);
  EXPECT_NE(cells[1].label().find("power=cap30"), std::string::npos);
}

TEST(ScenarioEngine, PowerGridCellsMatchStandaloneAndStayStable) {
  const SweepGrid grid = power_grid();
  TraceStore store;
  const ScenarioEngine engine(store, engine_config(common::ExecMode::kParallel));
  const SweepResult sweep = engine.run(grid);
  ASSERT_EQ(sweep.cells.size(), grid.cell_count());

  // Cell ≡ standalone, including the energy outputs (results_identical
  // compares energy_joules, max_power_watts, and both power series).
  for (const CellResult& cell : sweep.cells) {
    const auto t = store.get(cell.spec.workload.key);
    const sim::SimConfig cfg = engine.cell_config(cell.spec, *t);
    EXPECT_EQ(cfg.power_cap_watts, cell.spec.power.cap_watts);
    const sim::SimResult standalone =
        sim::ClusterSimulator(t->cluster(), cfg).run(*t);
    EXPECT_TRUE(results_identical(cell.result, standalone))
        << cell.spec.label();
    EXPECT_GT(cell.result.energy_joules, 0.0) << cell.spec.label();
  }

  // Parallel ≡ serial and repeat-run stability over the power grid.
  TraceStore ser_store;
  const SweepResult ser =
      ScenarioEngine(ser_store, engine_config(common::ExecMode::kSerial))
          .run(grid);
  expect_cells_identical(sweep, ser);
  const SweepResult again = engine.run(grid);
  expect_cells_identical(sweep, again);
}

TEST(ScenarioEngine, ComparisonReportSlicesPowerAndReportsEnergy) {
  const SweepGrid grid = power_grid();
  TraceStore store;
  const SweepResult sweep =
      ScenarioEngine(store, engine_config(common::ExecMode::kParallel))
          .run(grid);
  const std::string report = comparison_report(sweep);
  EXPECT_NE(report.find("Energy (kWh)"), std::string::npos);
  EXPECT_NE(report.find("power=cap30"), std::string::npos);
  EXPECT_NE(report.find("FIFO"), std::string::npos);
  EXPECT_NE(report.find("QSSF"), std::string::npos);
}

TEST(ScenarioEngine, QssfWithoutProviderThrows) {
  SweepGrid grid;
  grid.clusters = {"Venus"};
  grid.policies = {sim::SchedulerPolicy::kQssf};
  grid.scales = {kScale};
  TraceStore store;
  const ScenarioEngine engine(store);  // no priority_provider
  EXPECT_THROW((void)engine.run(grid), std::invalid_argument);
}

TEST(TraceStore, GeneratesEachKeyExactlyOnce) {
  const SweepGrid grid = small_grid();
  const auto cells = grid.expand();
  std::set<TraceKey> unique;
  for (const auto& c : cells) unique.insert(c.workload.key);

  TraceStore store;
  const ScenarioEngine engine(store, engine_config(common::ExecMode::kParallel));
  (void)engine.run(cells);
  EXPECT_EQ(store.generations(), unique.size());
  EXPECT_EQ(store.size(), unique.size());

  // Shared by pointer: two gets hand out the same immutable trace.
  const auto a = store.get(cells[0].workload.key);
  const auto b = store.get(cells[0].workload.key);
  EXPECT_EQ(a.get(), b.get());
}

TEST(TraceStore, OperatedKeyDerivesFromSharedRaw) {
  TraceStore store;
  const TraceKey raw = TraceKey::workload("Venus", 42, kScale);
  const TraceKey operated =
      TraceKey::workload("Venus", 42, kScale, /*operated=*/true);
  const auto op = store.get(operated);
  // Deriving the operated trace materialized the raw one too — two
  // generations, both now cached.
  EXPECT_EQ(store.generations(), 2u);
  const auto r = store.get(raw);
  EXPECT_EQ(store.generations(), 2u);
  EXPECT_EQ(op->size(), r->size());
  // FIFO operation rewrites start times; submit order is untouched.
  EXPECT_FALSE(op->contents_equal(*r));
}

TEST(TraceStore, PutRegistersCustomTraces) {
  TraceStore store;
  TraceKey key;
  key.family = TraceFamily::kCustom;
  key.name = "mini";
  EXPECT_THROW((void)store.get(key), std::invalid_argument);

  trace::Trace mini(trace::helios_cluster("Venus"));
  const auto put = store.put(key, std::move(mini));
  EXPECT_EQ(store.get(key).get(), put.get());
  // First registration wins; a second put returns the existing trace.
  trace::Trace other(trace::helios_cluster("Earth"));
  EXPECT_EQ(store.put(key, std::move(other)).get(), put.get());
}

// ---- scheduler study -------------------------------------------------------

void expect_same_outcomes(const sim::SimResult& a, const sim::SimResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const sim::JobOutcome& x = a.outcomes[i];
    const sim::JobOutcome& y = b.outcomes[i];
    ASSERT_TRUE(x.trace_index == y.trace_index && x.submit == y.submit &&
                x.start == y.start && x.end == y.end && x.gpus == y.gpus &&
                x.kills == y.kills && x.vc == y.vc && x.rejected == y.rejected)
        << "outcome " << i;
  }
}

// run_scheduler_study runs its four policies as pool tasks and keeps their
// outcomes: each must equal a standalone run over the evaluation slice, bit
// for bit. ctest also runs this at HELIOS_THREADS=1 and =2.
TEST(SchedulerStudy, PolicyRunsMatchStandaloneRuns) {
  const trace::Trace full = trace::SyntheticTraceGenerator(
                                trace::GeneratorConfig::helios(
                                    trace::helios_cluster("Venus"), 42, kScale))
                                .generate();
  const UnixTime train_end = helios::from_civil(2020, 9, 1);
  const UnixTime eval_end = trace::helios_trace_end();
  const SchedulerStudy study = run_scheduler_study(full, train_end, eval_end);
  ASSERT_TRUE(study.eval.contents_equal(full.between(train_end, eval_end)));

  // The same fit over the same slice prices the same QSSF priorities.
  core::QssfService service;
  service.fit(full.between(0, train_end));
  core::OnlinePriorityEvaluator evaluator(service, study.eval);

  const std::pair<sim::SchedulerPolicy, const sim::SimResult*> runs[] = {
      {sim::SchedulerPolicy::kFifo, &study.fifo},
      {sim::SchedulerPolicy::kSjf, &study.sjf},
      {sim::SchedulerPolicy::kSrtf, &study.srtf},
      {sim::SchedulerPolicy::kQssf, &study.qssf}};
  for (const auto& [policy, got] : runs) {
    sim::SimConfig cfg;
    cfg.policy = policy;
    if (policy == sim::SchedulerPolicy::kQssf) {
      cfg.priority_fn = evaluator.as_priority_fn();
    }
    const sim::SimResult standalone =
        sim::ClusterSimulator(study.eval.cluster(), cfg).run(study.eval);
    ASSERT_GT(standalone.outcomes.size(), 100u) << to_string(policy);
    EXPECT_TRUE(results_identical(*got, standalone)) << to_string(policy);
    expect_same_outcomes(*got, standalone);
  }
}

// ---- Alibaba-PAI workload family -------------------------------------------

struct Marginals {
  double gpu_job_fraction = 0.0;
  double single_gpu_share = 0.0;  ///< among GPU jobs
  double median_gpu_duration = 0.0;
  std::size_t jobs = 0;
};

Marginals marginals(const trace::Trace& t) {
  Marginals m;
  m.jobs = t.size();
  std::size_t gpu = 0;
  std::size_t single = 0;
  std::vector<double> durations;
  for (const auto& j : t.jobs()) {
    if (!j.is_gpu_job()) continue;
    ++gpu;
    if (j.num_gpus == 1) ++single;
    durations.push_back(static_cast<double>(j.duration));
  }
  m.gpu_job_fraction =
      m.jobs > 0 ? static_cast<double>(gpu) / static_cast<double>(m.jobs) : 0.0;
  m.single_gpu_share =
      gpu > 0 ? static_cast<double>(single) / static_cast<double>(gpu) : 0.0;
  m.median_gpu_duration = stats::median(durations);
  return m;
}

TEST(PaiWorkload, CalibrationMarginals) {
  const trace::Trace pai = trace::generate_pai(42, kScale);
  const trace::Trace venus = trace::SyntheticTraceGenerator(
                                 trace::GeneratorConfig::helios(
                                     trace::helios_cluster("Venus"), 42, kScale))
                                 .generate();
  ASSERT_GT(pai.size(), 1000u);

  const Marginals p = marginals(pai);
  const Marginals v = marginals(venus);

  // Heavier CPU component than Helios: a minority of PAI jobs use GPUs.
  EXPECT_LT(p.gpu_job_fraction, 0.55);
  EXPECT_GT(p.gpu_job_fraction, 0.25);
  EXPECT_LT(p.gpu_job_fraction, v.gpu_job_fraction);

  // Small request sizes: mostly 1-GPU jobs.
  EXPECT_GT(p.single_gpu_share, 0.55);

  // Short recurring jobs: median GPU-job duration well below Helios.
  EXPECT_LT(p.median_gpu_duration, v.median_gpu_duration);
}

TEST(PaiWorkload, SeedDeterminismAndSensitivity) {
  const trace::Trace a = trace::generate_pai(42, kScale);
  const trace::Trace b = trace::generate_pai(42, kScale);
  EXPECT_TRUE(a.contents_equal(b));
  const trace::Trace c = trace::generate_pai(43, kScale);
  EXPECT_FALSE(a.contents_equal(c));
}

TEST(PaiWorkload, ReachableThroughTraceKey) {
  TraceStore store;
  const auto via_store = store.get(TraceKey::workload("PAI", 42, kScale));
  const trace::Trace direct = trace::generate_pai(42, kScale);
  EXPECT_TRUE(via_store->contents_equal(direct));
}

}  // namespace
}  // namespace helios::sweep
