// End-to-end pipeline integration: generator -> FIFO operation ->
// characterization -> prediction services, all on one shared fixture — the
// exact composition every bench harness uses.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/cluster_stats.h"
#include "analysis/job_stats.h"
#include "core/ces_service.h"
#include "core/qssf_service.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace helios {
namespace {

struct Pipeline {
  trace::Trace t;
  sim::SimResult operated;

  Pipeline() {
    auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                              71, 0.05);
    t = trace::SyntheticTraceGenerator(cfg).generate();
    operated = sim::operate_fifo(t);
  }
};

Pipeline& pipeline() {
  static Pipeline p;
  return p;
}

TEST(Pipeline, OperatedTraceHasQueuingDelays) {
  const auto& p = pipeline();
  std::int64_t delayed = 0;
  for (const auto& j : p.t.jobs()) {
    ASSERT_GE(j.queue_delay(), 0);
    delayed += j.queue_delay() > 0;
  }
  EXPECT_GT(delayed, 0);
}

TEST(Pipeline, UtilizationWithinPhysicalBounds) {
  const auto& p = pipeline();
  const auto util = analysis::utilization_series(
      p.t, trace::helios_trace_begin(), trace::helios_trace_end(), 3600);
  double mean = 0.0;
  for (double v : util.values) {
    ASSERT_GE(v, -1e-9);
    ASSERT_LE(v, 1.0 + 1e-9);
    mean += v;
  }
  mean /= static_cast<double>(util.size());
  EXPECT_GT(mean, 0.40);  // a loaded production cluster, not an idle one
  EXPECT_LT(mean, 0.98);
}

TEST(Pipeline, BusyNodeSeriesConsistentWithBusyGpus) {
  const auto& p = pipeline();
  const int gpn = p.t.cluster().gpus_per_node;
  ASSERT_EQ(p.operated.busy_nodes.size(), p.operated.busy_gpus.size());
  for (std::size_t i = 0; i < p.operated.busy_nodes.size(); ++i) {
    const double nodes = p.operated.busy_nodes.values[i];
    const double gpus = p.operated.busy_gpus.values[i];
    // A busy node hosts between 1 and gpus_per_node busy GPUs.
    ASSERT_LE(gpus, nodes * gpn + 1e-6);
    ASSERT_GE(gpus, nodes - 1e-6);
  }
}

TEST(Pipeline, ModelUpdateRetrainsServices) {
  auto& p = pipeline();
  core::QssfConfig qcfg;
  qcfg.gbdt.n_trees = 8;
  core::QssfService qssf(qcfg);
  core::CesService ces(core::CesConfig{},
                       std::make_unique<forecast::SeasonalNaiveForecaster>(144));

  // Model Update Engine round: both services retrain from fresh data.
  const auto recent = p.t.between(from_civil(2020, 8, 1), from_civil(2020, 9, 1));
  qssf.update(recent);
  ces.update(recent);
  EXPECT_TRUE(qssf.trained());

  // The refreshed QSSF must produce sane priorities for new jobs.
  const auto eval = p.t.between(from_civil(2020, 9, 1), from_civil(2020, 9, 8));
  for (const auto& j : eval.jobs()) {
    if (!j.is_gpu_job()) continue;
    const double prio = qssf.priority(eval, j);
    ASSERT_GT(prio, 0.0);
    ASSERT_LT(prio, 1e12);
  }
}

TEST(Pipeline, CesReplayOnVenusKeepsInvariants) {
  auto& p = pipeline();
  const auto history = p.operated.busy_nodes.between(
      p.operated.busy_nodes.begin, from_civil(2020, 9, 1));
  core::CesConfig cfg;
  cfg.sigma = 1;
  core::CesService svc(cfg,
                       std::make_unique<forecast::SeasonalNaiveForecaster>(144));
  svc.fit(history);
  const auto r = svc.replay(p.t, history, from_civil(2020, 9, 1),
                            from_civil(2020, 9, 15));
  EXPECT_EQ(r.total_nodes, p.t.cluster().nodes);
  EXPECT_GE(r.node_util_ces, r.node_util_original - 0.01);
  EXPECT_LE(r.affected_jobs, r.total_jobs);
  EXPECT_GE(r.saved_kwh, 0.0);
}

TEST(Pipeline, SchedulerOrderingHoldsAcrossSeeds) {
  // The headline ordering FIFO >= QSSF-ish >= SRTF on avg queuing must be
  // robust to the workload realization, not a seed artifact.
  for (std::uint64_t seed : {3ULL, 17ULL}) {
    auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                              seed, 0.04);
    trace::Trace t = trace::SyntheticTraceGenerator(cfg).generate();
    const auto eval =
        t.between(from_civil(2020, 9, 1), trace::helios_trace_end());
    auto run = [&](sim::SchedulerPolicy policy) {
      sim::SimConfig sc;
      sc.policy = policy;
      return sim::ClusterSimulator(eval.cluster(), sc).run(eval);
    };
    const auto fifo = run(sim::SchedulerPolicy::kFifo);
    const auto sjf = run(sim::SchedulerPolicy::kSjf);
    const auto srtf = run(sim::SchedulerPolicy::kSrtf);
    EXPECT_LT(sjf.avg_queue_delay, fifo.avg_queue_delay) << "seed " << seed;
    EXPECT_LT(srtf.avg_queue_delay, sjf.avg_queue_delay * 1.05) << "seed " << seed;
  }
}

}  // namespace
}  // namespace helios
