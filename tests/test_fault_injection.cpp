// Fault injection end to end: FaultPlan generation/persistence, ClusterState
// fail/recover bookkeeping, kill/requeue semantics in the event loop
// (hand-computed timelines for kRestart vs kResume), the scheduler-stats
// regressions the fault workload exposed (unfinished jobs, apply_schedule on
// rejected jobs), and the failure predictor (dataset -> GBDT -> node ranking
// -> placement win, plus save/load bit-parity).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "core/failure_predictor.h"
#include "ml/failure_dataset.h"
#include "serialize/binary.h"
#include "sim/cluster_state.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace helios::sim {
namespace {

using trace::JobState;
using trace::Trace;

trace::ClusterSpec one_vc_spec(int nodes, int gpn = 8) {
  trace::ClusterSpec s;
  s.name = "one";
  s.gpus_per_node = gpn;
  s.vcs = {{"vc0", nodes, gpn}};
  s.nodes = nodes;
  return s;
}

Trace make_trace(const trace::ClusterSpec& spec,
                 const std::vector<std::tuple<UnixTime, int, int, const char*>>&
                     jobs /* submit, duration, gpus, vc */) {
  Trace t(spec);
  int i = 0;
  for (const auto& [submit, dur, gpus, vc] : jobs) {
    t.add(submit, dur, gpus, gpus, "user" + std::to_string(i % 3), vc,
          "job" + std::to_string(i), JobState::kCompleted);
    ++i;
  }
  t.sort_by_submit_time();
  return t;
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlan, GenerationIsDeterministicAndSorted) {
  const auto spec = trace::helios_cluster("Venus");
  FaultPlanConfig cfg;
  cfg.mtbf_days = 10.0;
  cfg.flaky_fraction = 0.2;
  cfg.seed = 42;
  const UnixTime begin = 1000;
  const UnixTime end = begin + 90 * 86400;

  const FaultPlan a = FaultPlan::generate(spec, cfg, begin, end);
  const FaultPlan b = FaultPlan::generate(spec, cfg, begin, end);
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.failure_count(), 0u);

  for (int vc = 0; vc < a.vc_count(); ++vc) {
    const auto events = a.vc_events(vc);
    const int n_nodes = spec.vcs[static_cast<std::size_t>(vc)].nodes;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_GE(events[i].time, begin);
      EXPECT_LT(events[i].time, end);
      EXPECT_GE(events[i].node, 0);
      EXPECT_LT(events[i].node, n_nodes);
      if (i > 0) EXPECT_LE(events[i - 1].time, events[i].time);
    }
  }

  // A different seed must produce a different schedule.
  cfg.seed = 43;
  const FaultPlan c = FaultPlan::generate(spec, cfg, begin, end);
  EXPECT_FALSE(a == c);
}

TEST(FaultPlan, FlakyNodesFailMore) {
  const auto spec = one_vc_spec(64);
  FaultPlanConfig cfg;
  cfg.mtbf_days = 30.0;
  cfg.flaky_fraction = 0.25;
  cfg.flaky_multiplier = 10.0;
  cfg.seed = 7;
  const UnixTime end = 180 * 86400;
  const FaultPlan plan = FaultPlan::generate(spec, cfg, 0, end);

  std::vector<int> per_node(64, 0);
  for (const auto& e : plan.vc_events(0)) {
    if (!e.recovery) ++per_node[static_cast<std::size_t>(e.node)];
  }
  std::int64_t flaky_sum = 0;
  std::int64_t healthy_sum = 0;
  int flaky_n = 0;
  int healthy_n = 0;
  for (int node = 0; node < 64; ++node) {
    if (plan.is_flaky(0, node)) {
      flaky_sum += per_node[static_cast<std::size_t>(node)];
      ++flaky_n;
    } else {
      healthy_sum += per_node[static_cast<std::size_t>(node)];
      ++healthy_n;
    }
  }
  ASSERT_GT(flaky_n, 0);
  ASSERT_GT(healthy_n, 0);
  // 10x rate: the per-node mean gap is enormous; 3x is a safe floor.
  EXPECT_GT(static_cast<double>(flaky_sum) / flaky_n,
            3.0 * (static_cast<double>(healthy_sum) / healthy_n + 0.1));
}

TEST(FaultPlan, ClippedKeepsWindowIntersection) {
  const auto spec = one_vc_spec(16);
  FaultPlanConfig cfg;
  cfg.mtbf_days = 5.0;
  cfg.seed = 3;
  const FaultPlan plan = FaultPlan::generate(spec, cfg, 0, 100 * 86400);
  const FaultPlan clip = plan.clipped(10 * 86400, 50 * 86400);
  EXPECT_EQ(clip.window_begin(), 10 * 86400);
  EXPECT_EQ(clip.window_end(), 50 * 86400);
  EXPECT_LT(clip.failure_count(), plan.failure_count());
  EXPECT_GT(clip.failure_count(), 0u);
  for (const auto& e : clip.vc_events(0)) {
    EXPECT_GE(e.time, 10 * 86400);
    EXPECT_LT(e.time, 50 * 86400);
  }
}

TEST(FaultPlan, SaveLoadRoundTripsAndRejectsCorruption) {
  const auto spec = trace::helios_cluster("Venus");
  FaultPlanConfig cfg;
  cfg.mtbf_days = 15.0;
  cfg.flaky_fraction = 0.1;
  cfg.seed = 11;
  const FaultPlan plan = FaultPlan::generate(spec, cfg, 500, 500 + 60 * 86400);

  serialize::Writer w;
  plan.save(w);
  const auto file = serialize::frame(w);
  {
    const auto body = serialize::unframe(file);
    serialize::Reader r(body);
    FaultPlan loaded;
    loaded.load(r);
    r.close("fault plan frame");
    EXPECT_TRUE(plan == loaded);
    EXPECT_EQ(plan.failure_count(), loaded.failure_count());
  }
  {
    // Flip one payload byte: either the CRC frame or the plan validation
    // must reject it — never a silently different plan.
    auto bad = file;
    bad[bad.size() / 2] ^= 0x40;
    EXPECT_THROW(
        {
          const auto body = serialize::unframe(bad);
          serialize::Reader r(body);
          FaultPlan loaded;
          loaded.load(r);
        },
        serialize::Error);
  }
}

// A hand-built FPLN section: the plan header, then `n_vcs` and the
// `vc_bytes` of per-VC payload that follow it.
std::vector<std::uint8_t> fault_plan_section(std::uint32_t n_vcs,
                                             std::size_t vc_bytes) {
  serialize::Writer w;
  w.begin_section(serialize::fourcc("FPLN"));
  w.u32(1);  // version
  w.f64(30.0);
  w.f64(0.1);
  w.f64(4.0);
  w.i64(3600);
  w.i64(600);
  w.u64(7);
  w.i64(0);  // begin
  w.i64(86400);  // end
  w.u32(n_vcs);
  for (std::size_t i = 0; i < vc_bytes; ++i) w.u8(0);
  w.end_section();
  return w.buffer();
}

TEST(FaultPlan, LoadRejectsAHostileVcCountBeforeAllocating) {
  // 16 zero bytes are one VC with no nodes and no events.
  {
    const auto bytes = fault_plan_section(1, 16);
    serialize::Reader r(bytes);
    FaultPlan loaded;
    loaded.load(r);
    ASSERT_EQ(loaded.vc_count(), 1);
    EXPECT_TRUE(loaded.vc_events(0).empty());
  }
  // Each VC needs at least 16 payload bytes, so a count past remaining / 16
  // is rejected as truncated — up to 0xFFFFFFFF, which would otherwise size
  // two vectors of four billion entries each.
  for (const std::uint32_t n_vcs : {2u, 0xFFFFFFFFu}) {
    const auto bytes = fault_plan_section(n_vcs, 16);
    serialize::Reader r(bytes);
    FaultPlan loaded;
    try {
      loaded.load(r);
      ADD_FAILURE() << "accepted " << n_vcs << " vcs";
    } catch (const serialize::Error& e) {
      EXPECT_EQ(e.code(), serialize::ErrorCode::kTruncated) << e.what();
    }
    EXPECT_EQ(loaded.vc_count(), 0);  // a failed load leaves the plan empty
  }
}

// ---------------------------------------------------------------------------
// ClusterState fail/recover
// ---------------------------------------------------------------------------

TEST(ClusterState, FailAndRecoverAdjustCapacityIndexes) {
  ClusterState state(trace::VCSpec{"vc0", 3, 8});
  EXPECT_EQ(state.schedulable_gpus(), 24);

  state.fail_node(1);
  EXPECT_EQ(state.failed_nodes(), 1);
  EXPECT_EQ(state.schedulable_gpus(), 16);
  EXPECT_EQ(state.free_gpus(), 16);
  EXPECT_EQ(state.capacity_gpus(), 24);  // transient: still counts capacity
  EXPECT_TRUE(state.can_ever_fit(24));
  EXPECT_EQ(state.active_nodes(), 2);
  EXPECT_EQ(state.node(1).power, PowerState::kFailed);

  // Idempotent; allocation steers around the dead node.
  state.fail_node(1);
  EXPECT_EQ(state.failed_nodes(), 1);
  auto alloc = state.try_allocate(16);
  ASSERT_TRUE(alloc.has_value());
  for (auto [ni, g] : alloc->node_gpus) EXPECT_NE(ni, 1);

  // 24 GPUs can never be placed while a node is down.
  EXPECT_FALSE(state.try_allocate(24).has_value());

  state.recover_node(1);
  EXPECT_EQ(state.failed_nodes(), 0);
  EXPECT_EQ(state.schedulable_gpus(), 24);
  // The 16-GPU gang from above is still held; only the repaired node is free.
  EXPECT_EQ(state.free_gpus(), state.node(1).total_gpus);
  EXPECT_EQ(state.node(1).power, PowerState::kActive);
  state.recover_node(1);  // no-op on an active node
  EXPECT_EQ(state.failed_nodes(), 0);
}

TEST(ClusterState, FailureTakesSleepingAndBootingNodes) {
  ClusterState state(trace::VCSpec{"vc0", 2, 8});
  ASSERT_EQ(state.sleep_idle_nodes(1), 1);  // node 0 sleeps
  state.fail_node(0);
  EXPECT_EQ(state.sleeping_nodes(), 0);
  EXPECT_EQ(state.failed_nodes(), 1);

  ASSERT_EQ(state.sleep_idle_nodes(1), 1);  // node 1 sleeps
  ASSERT_EQ(state.wake_nodes(1, /*now=*/100, /*boot_delay=*/50), 1);
  state.fail_node(1);  // dies mid-boot: the pending boot must not resurrect it
  EXPECT_EQ(state.failed_nodes(), 2);
  EXPECT_EQ(state.booting_nodes(), 0);
  state.finish_boots(1000);
  EXPECT_EQ(state.node(1).power, PowerState::kFailed);
  EXPECT_EQ(state.schedulable_gpus(), 0);

  state.recover_node(0);
  state.recover_node(1);
  EXPECT_EQ(state.schedulable_gpus(), 16);
  EXPECT_EQ(state.active_nodes(), 2);
}

// ---------------------------------------------------------------------------
// Simulator kill/requeue semantics
// ---------------------------------------------------------------------------

/// One node, one 8-GPU job of 1000 s starting at t=0; the node fails at
/// t=400 and recovers at t=600.
SimResult run_single_kill(FaultRestart restart, const FaultPlan& plan) {
  const auto spec = one_vc_spec(1);
  const auto t = make_trace(spec, {{0, 1000, 8, "vc0"}});
  SimConfig cfg;
  cfg.fault_plan = &plan;
  cfg.restart = restart;
  return ClusterSimulator(spec, cfg).run(t);
}

TEST(Simulator, FailureKillsAndRestartRunsFullDurationAgain) {
  const auto spec = one_vc_spec(1);
  const FaultPlan plan = FaultPlan::from_events(
      spec, 0, 100000, {{{400, 0, false}, {600, 0, true}}});
  const SimResult r = run_single_kill(FaultRestart::kRestart, plan);
  ASSERT_EQ(r.outcomes.size(), 1u);
  // Killed at 400 (progress lost), node back at 600, full 1000 s again.
  EXPECT_EQ(r.outcomes[0].start, 0);
  EXPECT_EQ(r.outcomes[0].end, 1600);
  EXPECT_EQ(r.outcomes[0].kills, 1);
  EXPECT_EQ(r.job_kills, 1);
  EXPECT_EQ(r.node_failures, 1);
  EXPECT_EQ(r.unfinished_jobs, 0);
  EXPECT_EQ(r.avg_jct, 1600.0);
}

TEST(Simulator, FailureKillsAndResumeRedoesOnlyRemainingWork) {
  const auto spec = one_vc_spec(1);
  const FaultPlan plan = FaultPlan::from_events(
      spec, 0, 100000, {{{400, 0, false}, {600, 0, true}}});
  const SimResult r = run_single_kill(FaultRestart::kResume, plan);
  ASSERT_EQ(r.outcomes.size(), 1u);
  // 400 s done before the kill; 600 s remain after recovery at t=600.
  EXPECT_EQ(r.outcomes[0].end, 1200);
  EXPECT_EQ(r.outcomes[0].kills, 1);
}

TEST(Simulator, EnergyAccountingRoundTripsThroughTheFaultPath) {
  // Kill/requeue/recover must move the power bookkeeping exactly like the
  // GPU bookkeeping: the killed run's draw leaves immediately (no node ever
  // stays "stuck busy"), the failed node bills failed_node_watts (0), and
  // the requeued run's draw returns on restart. One 8-GPU node, a 1000 s job
  // at t=0, node down [400, 600); a late 1-GPU job at t=2000 stretches the
  // series window to [0, 2011) so restart and resume diverge in-window.
  const auto spec = one_vc_spec(1);
  const auto t =
      make_trace(spec, {{0, 1000, 8, "vc0"}, {2000, 10, 1, "vc0"}});
  const FaultPlan plan = FaultPlan::from_events(
      spec, 0, 100000, {{{400, 0, false}, {600, 0, true}}});
  SimConfig cfg;
  cfg.fault_plan = &plan;

  // Restart: full 1000 s again from t=600.
  //   [0,400) 3200 W; [400,600) failed, 0 W; [600,1600) 3200 W;
  //   [1600,2000) idle 800 W; [2000,2010) 1100 W; [2010,2011) 800 W.
  cfg.restart = FaultRestart::kRestart;
  const SimResult restart = ClusterSimulator(spec, cfg).run(t);
  ASSERT_EQ(restart.outcomes[0].end, 1600);
  EXPECT_EQ(restart.energy_joules, 3200.0 * 400 + 3200.0 * 1000 +
                                       800.0 * 400 + 1100.0 * 10 + 800.0);
  EXPECT_EQ(restart.max_power_watts, 3200.0);
  ASSERT_EQ(restart.vc_stats.size(), 1u);
  EXPECT_EQ(restart.vc_stats[0].energy_joules, restart.energy_joules);
  // Bucket [0,600): only the 400 busy seconds draw — the dead node and its
  // killed run contribute nothing, proving the draw was released with the
  // kill and not left running.
  ASSERT_GE(restart.power_watts.values.size(), 1u);
  EXPECT_EQ(restart.power_watts.values[0], 3200.0 * 400 / 600.0);

  // Resume: only the remaining 600 s re-run, so 400 s less at full draw.
  cfg.restart = FaultRestart::kResume;
  const SimResult resume = ClusterSimulator(spec, cfg).run(t);
  ASSERT_EQ(resume.outcomes[0].end, 1200);
  EXPECT_EQ(resume.energy_joules, restart.energy_joules - 2400.0 * 400);
  EXPECT_EQ(resume.max_power_watts, 3200.0);
}

TEST(Simulator, GangDiesWithAnyOfItsNodes) {
  // 16-GPU gang spans both nodes; killing node 1 releases node 0 too, so the
  // queued 8-GPU job starts immediately on the surviving node.
  const auto spec = one_vc_spec(2);
  const auto t = make_trace(spec, {{0, 1000, 16, "vc0"}, {10, 50, 8, "vc0"}});
  const FaultPlan plan =
      FaultPlan::from_events(spec, 0, 100000, {{{100, 1, false}}});
  SimConfig cfg;
  cfg.fault_plan = &plan;
  cfg.backfill = true;  // the dead gang blocks the head; backfill goes around
  const SimResult r = ClusterSimulator(spec, cfg).run(t);
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_EQ(r.outcomes[0].kills, 1);
  // Node 1 never recovers: the 16-GPU gang can never run again...
  EXPECT_EQ(r.outcomes[0].end, trace::kNeverStarted);
  EXPECT_EQ(r.unfinished_jobs, 1);
  // ...but the small job proceeds on freed node 0 right after the kill.
  EXPECT_EQ(r.outcomes[1].start, 100);
  EXPECT_EQ(r.outcomes[1].end, 150);
}

TEST(Simulator, PermanentFailureLeavesQueuedJobsCounted) {
  // Regression: jobs that never start used to vanish from queued_jobs and
  // the averages entirely. The single node dies before the second job can
  // run and never recovers.
  const auto spec = one_vc_spec(1);
  const auto t = make_trace(spec, {{0, 100, 8, "vc0"}, {10, 100, 8, "vc0"}});
  const FaultPlan plan =
      FaultPlan::from_events(spec, 0, 100000, {{{50, 0, false}}});
  SimConfig cfg;
  cfg.fault_plan = &plan;
  const SimResult r = ClusterSimulator(spec, cfg).run(t);
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_EQ(r.outcomes[0].kills, 1);
  EXPECT_EQ(r.outcomes[0].end, trace::kNeverStarted);
  EXPECT_EQ(r.outcomes[1].start, trace::kNeverStarted);
  EXPECT_EQ(r.unfinished_jobs, 2);  // the killed job and the never-started one
  EXPECT_EQ(r.queued_jobs, 2);
  // No finished job: the averages must stay clean zeros, not garbage from
  // kNeverStarted sentinels.
  EXPECT_EQ(r.avg_jct, 0.0);
  EXPECT_EQ(r.avg_queue_delay, 0.0);
}

TEST(Simulator, ApplyScheduleSkipsRejectedJobs) {
  // Regression: apply_schedule used to copy the rejected sentinel
  // (start = submit) into the trace and count the job as updated.
  const auto spec = one_vc_spec(1);
  auto t = make_trace(spec, {{0, 100, 8, "vc0"}, {5, 100, 24, "vc0"}});
  const std::int64_t rejected_start_before = t.jobs()[1].start_time;
  const SimResult r = ClusterSimulator(spec, SimConfig{}).run(t);
  ASSERT_EQ(r.outcomes.size(), 2u);
  ASSERT_TRUE(r.outcomes[1].rejected);
  EXPECT_EQ(apply_schedule(t, r), 1u);
  EXPECT_EQ(t.jobs()[0].start_time, 0);
  EXPECT_EQ(t.jobs()[1].start_time, rejected_start_before);
}

TEST(Simulator, NodeOrderSteersPlacementAwayFromRankedLastNode) {
  // Two jobs fit one node each. Identity order fills node 0 first; with
  // node_order [1, 2, 0] the allocator fills nodes 1 and 2 and node 0 idles,
  // so a node-0 failure kills nothing.
  const auto spec = one_vc_spec(3);
  const auto t = make_trace(spec, {{0, 500, 8, "vc0"}, {0, 500, 8, "vc0"}});
  const FaultPlan plan = FaultPlan::from_events(
      spec, 0, 100000, {{{100, 0, false}, {200, 0, true}}});

  SimConfig cfg;
  cfg.fault_plan = &plan;
  const SimResult identity = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(identity.job_kills, 1);

  cfg.node_order = {{1, 2, 0}};
  const SimResult steered = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(steered.job_kills, 0);
  EXPECT_EQ(steered.outcomes[0].end, 500);
  EXPECT_EQ(steered.outcomes[1].end, 500);
  EXPECT_LT(steered.avg_jct, identity.avg_jct);
}

// ---------------------------------------------------------------------------
// Failure dataset + predictor
// ---------------------------------------------------------------------------

TEST(FailureDataset, LabelsAndFeaturesFollowTheHistory) {
  const auto spec = one_vc_spec(2);
  // Node 0 fails daily at noon; node 1 never fails.
  std::vector<NodeFaultEvent> events;
  for (int day = 0; day < 30; ++day) {
    events.push_back({day * 86400 + 43200, 0, false});
    events.push_back({day * 86400 + 43200 + 3600, 0, true});
  }
  const FaultPlan plan =
      FaultPlan::from_events(spec, 0, 30 * 86400, {std::move(events)});

  ml::FailureDatasetConfig cfg;
  cfg.sample_step = 12 * 3600;
  cfg.horizon = 24 * 3600;
  cfg.warmup = 24 * 3600;
  const ml::Dataset data = ml::build_failure_dataset(spec, plan, cfg);
  ASSERT_GT(data.rows(), 0u);
  ASSERT_EQ(data.features(), ml::kFailureFeatureCount);

  // Rows are (vc, node, t)-ordered: first half node 0 (all positive labels —
  // it fails every day), second half node 1 (all negative).
  const std::size_t half = data.rows() / 2;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    EXPECT_EQ(data.target(i), i < half ? 1.0 : 0.0) << "row " << i;
  }
  // Node-0 rows accumulate failure counts; node-1 rows stay at zero.
  EXPECT_GT(data.at(half - 1, 0), 0.0);
  EXPECT_EQ(data.at(data.rows() - 1, 0), 0.0);

  const ml::NodeFailureHistory history(spec, plan);
  EXPECT_EQ(history.failures_in(0, 0, 0, 30 * 86400), 30);
  EXPECT_EQ(history.failures_in(0, 1, 0, 30 * 86400), 0);
  const auto f = history.features(0, 0, 10 * 86400);
  EXPECT_EQ(f[0], 10.0);  // ten failures before day 10
  EXPECT_EQ(f[1], 7.0);   // seven in the last week
  EXPECT_EQ(f[2], 1.0);   // one in the last day
}

core::FailurePredictorConfig small_predictor_config() {
  core::FailurePredictorConfig cfg;
  cfg.dataset.sample_step = 12 * 3600;
  cfg.gbdt.n_trees = 30;
  cfg.gbdt.max_depth = 3;
  return cfg;
}

TEST(FailurePredictor, RanksFlakyNodesLastAndRoundTrips) {
  const auto spec = one_vc_spec(16);
  FaultPlanConfig fp;
  fp.mtbf_days = 200.0;  // healthy nodes almost never fail...
  fp.flaky_fraction = 0.25;
  fp.flaky_multiplier = 40.0;  // ...flaky ones fail every ~5 days
  fp.seed = 5;
  const UnixTime end = 120 * 86400;
  const FaultPlan plan = FaultPlan::generate(spec, fp, 0, end);

  core::FailurePredictor predictor(small_predictor_config());
  predictor.fit(spec, plan);
  ASSERT_TRUE(predictor.trained());

  const auto order = predictor.rank_nodes(spec, plan, end);
  ASSERT_EQ(order.size(), 1u);
  ASSERT_EQ(order[0].size(), 16u);
  {
    auto sorted = order[0];
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 16; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  }
  // Every flaky node must rank behind every healthy node.
  std::vector<std::size_t> rank_of(16);
  for (std::size_t k = 0; k < order[0].size(); ++k) {
    rank_of[static_cast<std::size_t>(order[0][k])] = k;
  }
  std::size_t max_healthy = 0;
  std::size_t min_flaky = 16;
  int flaky_n = 0;
  for (int node = 0; node < 16; ++node) {
    if (plan.is_flaky(0, node)) {
      min_flaky = std::min(min_flaky, rank_of[static_cast<std::size_t>(node)]);
      ++flaky_n;
    } else {
      max_healthy =
          std::max(max_healthy, rank_of[static_cast<std::size_t>(node)]);
    }
  }
  ASSERT_GT(flaky_n, 0);
  ASSERT_LT(flaky_n, 16);
  EXPECT_LT(max_healthy, min_flaky);

  // Round trip: bit-identical risks and an identical ranking.
  serialize::Writer w;
  predictor.save(w);
  const auto body = serialize::unframe(serialize::frame(w));
  serialize::Reader r(body);
  core::FailurePredictor loaded;
  loaded.load(r);
  r.close("failure predictor frame");
  ASSERT_TRUE(loaded.trained());
  const ml::NodeFailureHistory history(spec, plan);
  for (int node = 0; node < 16; ++node) {
    EXPECT_EQ(predictor.risk(history, 0, node, end),
              loaded.risk(history, 0, node, end))
        << "node " << node;
  }
  EXPECT_EQ(loaded.rank_nodes(spec, plan, end), order);
}

TEST(FailurePredictor, UntrainedRanksIdentity) {
  const auto spec = one_vc_spec(4);
  const FaultPlan empty = FaultPlan::from_events(spec, 0, 86400, {});
  const core::FailurePredictor predictor;
  const auto order = predictor.rank_nodes(spec, empty, 86400);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], (std::vector<std::int32_t>{0, 1, 2, 3}));
}

TEST(FailurePredictor, FailureAwarePlacementBeatsIdentityUnderChurn) {
  // Deployment-shaped check: train on the first 60 days of faults, rank
  // nodes, and replay a steady workload over the full window. Risk-aware
  // placement must cut kills and average JCT vs identity order.
  const auto spec = one_vc_spec(8);
  FaultPlanConfig fp;
  fp.mtbf_days = 400.0;
  fp.flaky_fraction = 0.25;
  fp.flaky_multiplier = 80.0;
  fp.mean_downtime = 12 * 3600;
  fp.seed = 17;
  const UnixTime split = 60 * 86400;
  const UnixTime end = 90 * 86400;
  const FaultPlan plan = FaultPlan::generate(spec, fp, 0, end);
  ASSERT_GT(plan.clipped(split, end).failure_count(), 0u);

  // Steady stream: 4 concurrent 8-GPU jobs' worth of demand on 8 nodes, so
  // half the nodes idle — the slack risk-aware placement can hide faults in.
  std::vector<std::tuple<UnixTime, int, int, const char*>> jobs;
  for (UnixTime t = 0; t + 7200 < end; t += 1800) {
    jobs.push_back({t, 7200, 8, "vc0"});
  }
  const Trace t = make_trace(spec, jobs);

  SimConfig cfg;
  cfg.fault_plan = &plan;
  cfg.restart = FaultRestart::kRestart;
  const SimResult identity = ClusterSimulator(spec, cfg).run(t);

  core::FailurePredictor predictor(small_predictor_config());
  predictor.fit(spec, plan.clipped(0, split));
  ASSERT_TRUE(predictor.trained());
  cfg.node_order = predictor.rank_nodes(spec, plan.clipped(0, split), split);
  const SimResult aware = ClusterSimulator(spec, cfg).run(t);

  EXPECT_GT(identity.node_failures, 0);
  EXPECT_GT(identity.job_kills, 0);
  EXPECT_LT(aware.job_kills, identity.job_kills);
  EXPECT_LT(aware.avg_jct, identity.avg_jct);
}

}  // namespace
}  // namespace helios::sim
