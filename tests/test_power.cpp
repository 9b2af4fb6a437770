// Energy accounting and power-gated admission, end to end: the PowerProfile
// arithmetic, the four-ordering policy registry, hand-computed energy/power
// outputs of single runs, the energy-conservation property (per-VC energies
// sum exactly to the cluster energy; the bucket integrator is add-order
// independent), the cap-is-respected invariant across all policies ×
// backfill × seeds, the budget-constrained admission / power-proportional
// backfill semantics on hand-built traces, predicted-energy ordering as a
// QSSF priority_fn, and serial-vs-sharded bit-parity of every new counter
// through sweep::results_identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "core/power_model.h"
#include "sim/bucket_integrator.h"
#include "sim/simulator.h"
#include "sweep/scenario.h"
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
// PowerProfile / policy registry
// ---------------------------------------------------------------------------

TEST(PowerProfile, BaselineWattsBillsEveryPowerState) {
  core::PowerProfile p;
  p.idle_node_watts = 800.0;
  p.boot_node_watts = 700.0;
  p.sleep_node_watts = 10.0;
  p.failed_node_watts = 5.0;
  EXPECT_EQ(p.baseline_watts(3, 2, 4, 1), 800.0 * 3 + 700.0 * 2 + 10.0 * 4 + 5.0);
  EXPECT_EQ(p.baseline_watts(0, 0, 0, 0), 0.0);
  EXPECT_EQ(core::PowerProfile{}, core::PowerProfile{});
}

TEST(PowerPolicies, RegistryHoldsThePapersFourOrderings) {
  EXPECT_EQ(all_policies().size(), 4u);
  for (SchedulerPolicy p : all_policies()) {
    EXPECT_EQ(policy_from_string(to_string(p)), p);
  }
  EXPECT_EQ(policy_from_string("qssf"), SchedulerPolicy::kQssf);
  // A power cap is an admission gate (SimConfig::power_cap_watts) and energy
  // weighting a priority_fn, not orderings of their own.
  EXPECT_THROW((void)policy_from_string("POWERCAP"), std::invalid_argument);
  EXPECT_THROW((void)policy_from_string("EQSSF"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Hand-computed energy accounting
// ---------------------------------------------------------------------------

TEST(EnergyAccounting, SingleJobMatchesHandComputedIntegral) {
  // One 8-GPU node, one 1000 s job at t=0. Series window = [0, 1001):
  //   [0, 1000):  800 idle + 8 × 300 job = 3200 W
  //   [1000, 1001): idle baseline only   =  800 W
  const auto spec = one_vc_spec(1);
  const auto t = make_trace(spec, {{0, 1000, 8, "vc0"}});
  const SimResult r = ClusterSimulator(spec, SimConfig{}).run(t);

  EXPECT_EQ(r.energy_joules, 3200.0 * 1000 + 800.0);
  EXPECT_EQ(r.max_power_watts, 3200.0);
  ASSERT_EQ(r.vc_stats.size(), 1u);
  EXPECT_EQ(r.vc_stats[0].energy_joules, r.energy_joules);

  // Mean power: bucket 0 is fully busy; bucket 1 holds the 400 s busy tail
  // plus one second of idle, spread over the 600 s step.
  ASSERT_EQ(r.power_watts.values.size(), 2u);
  EXPECT_EQ(r.power_watts.values[0], 3200.0);
  EXPECT_EQ(r.power_watts.values[1], (3200.0 * 400 + 800.0) / 600.0);
  // Peak power: the 3200 W plateau spans both buckets.
  ASSERT_EQ(r.peak_power_watts.values.size(), 2u);
  EXPECT_EQ(r.peak_power_watts.values[0], 3200.0);
  EXPECT_EQ(r.peak_power_watts.values[1], 3200.0);
}

TEST(EnergyAccounting, GpuWattsFnOverridesTheProfileDraw) {
  const auto spec = one_vc_spec(1);
  const auto t = make_trace(spec, {{0, 1000, 8, "vc0"}});
  SimConfig cfg;
  cfg.gpu_watts_fn = [](const trace::JobRecord&) { return 150.0; };
  const SimResult r = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(r.energy_joules, (800.0 + 8 * 150.0) * 1000 + 800.0);
  EXPECT_EQ(r.max_power_watts, 2000.0);
}

TEST(EnergyAccounting, WorkloadFreeVcBillsItsIdleBaseline) {
  // vc1 never sees a job — its idle draw must still be billed, and the
  // per-VC energies must sum *exactly* to the cluster energy.
  trace::ClusterSpec spec;
  spec.name = "two";
  spec.gpus_per_node = 8;
  spec.vcs = {{"vc0", 2, 8}, {"vc1", 3, 8}};
  spec.nodes = 5;
  const auto t = make_trace(spec, {{0, 100, 8, "vc0"}});  // window [0, 101)
  const SimResult r = ClusterSimulator(spec, SimConfig{}).run(t);

  ASSERT_EQ(r.vc_stats.size(), 2u);
  EXPECT_EQ(r.vc_stats[0].energy_joules, 800.0 * 2 * 101 + 2400.0 * 100);
  EXPECT_EQ(r.vc_stats[1].energy_joules, 800.0 * 3 * 101);
  EXPECT_EQ(r.energy_joules,
            r.vc_stats[0].energy_joules + r.vc_stats[1].energy_joules);
}

TEST(EnergyAccounting, PerVcEnergiesSumToClusterEnergyOnRealWorkloads) {
  const auto cfg_gen =
      trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 7, 0.02);
  const Trace t = trace::SyntheticTraceGenerator(cfg_gen).generate();
  for (SchedulerPolicy policy :
       {SchedulerPolicy::kFifo, SchedulerPolicy::kSrtf,
        SchedulerPolicy::kQssf}) {
    SimConfig cfg;
    cfg.policy = policy;
    cfg.backfill = true;
    const SimResult r = ClusterSimulator(t.cluster(), cfg).run(t);
    ASSERT_GT(r.energy_joules, 0.0);
    double sum = 0.0;
    for (const auto& vc : r.vc_stats) sum += vc.energy_joules;
    // Exact, not approximate: the merge sums the same terms in the same
    // order (and the default profile keeps every term integer-valued).
    EXPECT_EQ(sum, r.energy_joules) << to_string(policy);
  }
}

TEST(EnergyAccounting, BucketIntegratorIsAddOrderIndependent) {
  // Integer-valued watts × integer durations: permuting add() order must
  // reproduce the series bit-for-bit (the property the sharded merge leans
  // on).
  const std::vector<std::tuple<std::int64_t, std::int64_t, double>> segments =
      {{0, 950, 3200.0}, {120, 1800, 800.0},  {950, 1001, 800.0},
       {30, 30000, 1.0}, {600, 1200, 1600.0}, {0, 5, 7.0}};
  BucketIntegrator fwd(0, 2000, 600);
  for (const auto& [t0, t1, w] : segments) fwd.add(t0, t1, w);
  BucketIntegrator rev(0, 2000, 600);
  for (auto it = segments.rbegin(); it != segments.rend(); ++it) {
    rev.add(std::get<0>(*it), std::get<1>(*it), std::get<2>(*it));
  }
  const auto a = std::move(fwd).mean_series();
  const auto b = std::move(rev).mean_series();
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i], b.values[i]) << "bucket " << i;
  }
}

// ---------------------------------------------------------------------------
// Budget-constrained admission
// ---------------------------------------------------------------------------

TEST(PowerCap, AdmissionDelaysWorkAndCutsInWindowEnergy) {
  // Two 8-GPU nodes (idle 1600 W), two full-node 100 s jobs at t=0. One
  // running job draws 1600 + 2400 = 4000 W; both together 6400 W. A 4500 W
  // cap therefore serializes them.
  const auto spec = one_vc_spec(2);
  const auto t = make_trace(spec, {{0, 100, 8, "vc0"}, {0, 100, 8, "vc0"}});

  SimConfig cfg;
  const SimResult uncapped = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(uncapped.outcomes[0].start, 0);
  EXPECT_EQ(uncapped.outcomes[1].start, 0);
  EXPECT_EQ(uncapped.max_power_watts, 6400.0);
  // Window [0, 101): baseline 1600 × 101 + two jobs × 2400 × 100.
  EXPECT_EQ(uncapped.energy_joules, 1600.0 * 101 + 2 * 2400.0 * 100);

  cfg.power_cap_watts = 4500.0;  // FIFO ordering, power-gated admission
  const SimResult capped = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(capped.outcomes[0].start, 0);
  EXPECT_EQ(capped.outcomes[1].start, 100);  // waited for power headroom
  EXPECT_EQ(capped.outcomes[1].end, 200);
  EXPECT_EQ(capped.max_power_watts, 4000.0);
  // Job 2 spills past the fixed window; only its first second is billed
  // in-window: the energy-vs-JCT tradeoff in miniature.
  EXPECT_EQ(capped.energy_joules, 1600.0 * 101 + 2400.0 * 100 + 2400.0);
  EXPECT_LT(capped.energy_joules, uncapped.energy_joules);
  EXPECT_GT(capped.avg_jct, uncapped.avg_jct);
}

TEST(PowerCap, GateAppliesToEveryPolicy) {
  const auto spec = one_vc_spec(2);
  const auto t = make_trace(spec, {{0, 100, 8, "vc0"}, {0, 100, 8, "vc0"}});
  for (SchedulerPolicy policy : all_policies()) {
    SimConfig cfg;
    cfg.policy = policy;
    cfg.power_cap_watts = 4500.0;
    if (policy == SchedulerPolicy::kQssf) {
      cfg.priority_fn = [](const trace::JobRecord& j) {
        return static_cast<double>(j.duration) * j.num_gpus;
      };
    }
    const SimResult r = ClusterSimulator(spec, cfg).run(t);
    EXPECT_EQ(r.max_power_watts, 4000.0) << to_string(policy);
  }
}

TEST(PowerCap, BackfillIsPowerProportional) {
  // Head job A (4000 W projected) runs; B (another full node, 6400 W) is
  // power-blocked; tiny C (1 GPU, +300 W -> 4300 W <= 4500 W) may start at
  // t=0 only via power-proportional backfill.
  const auto spec = one_vc_spec(2);
  const auto t = make_trace(
      spec, {{0, 100, 8, "vc0"}, {0, 100, 8, "vc0"}, {0, 50, 1, "vc0"}});

  SimConfig cfg;  // FIFO
  cfg.power_cap_watts = 4500.0;
  const SimResult head_of_line = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(head_of_line.outcomes[2].start, 100);  // stuck behind blocked B

  cfg.backfill = true;
  const SimResult backfilled = ClusterSimulator(spec, cfg).run(t);
  EXPECT_EQ(backfilled.outcomes[0].start, 0);
  EXPECT_EQ(backfilled.outcomes[1].start, 100);  // still over budget at t=0
  EXPECT_EQ(backfilled.outcomes[2].start, 0);    // fits GPUs *and* watts
  EXPECT_LE(backfilled.max_power_watts, 4500.0);
}

// The invariant sweep: across every policy × backfill × seed, the modeled
// draw never exceeds the enforceable bound — each VC stays at or under
// max(its idle baseline, its capacity-proportional cap share), so the
// cluster stays under the sum. With hardware-uniform VCs that sum is the cap
// itself. Also pins serial ≡ sharded bit-parity of all new counters.
TEST(PowerCap, CapIsRespectedAcrossPoliciesBackfillSeeds) {
  for (const std::uint64_t seed : {7ull, 19ull}) {
    const auto cfg_gen = trace::GeneratorConfig::helios(
        trace::helios_cluster("Venus"), seed, 0.02);
    const Trace t = trace::SyntheticTraceGenerator(cfg_gen).generate();
    const auto& spec = t.cluster();

    std::int64_t nodes = 0;
    std::int64_t gpus = 0;
    for (const auto& vc : spec.vcs) {
      nodes += vc.nodes;
      gpus += static_cast<std::int64_t>(vc.nodes) * vc.gpus_per_node;
    }
    const core::PowerProfile profile;
    const double cap = profile.idle_node_watts * static_cast<double>(nodes) +
                       profile.gpu_watts * static_cast<double>(gpus) * 0.3;
    double bound = 0.0;  // sum over VCs of max(baseline, cap share)
    for (const auto& vc : spec.vcs) {
      const double share =
          cap * (static_cast<double>(vc.nodes) * vc.gpus_per_node) /
          static_cast<double>(gpus);
      bound += std::max(share, profile.idle_node_watts * vc.nodes);
    }

    for (SchedulerPolicy policy : all_policies()) {
      for (const bool backfill : {false, true}) {
        SimConfig cfg;
        cfg.policy = policy;
        cfg.backfill = backfill;
        cfg.power_cap_watts = cap;
        if (policy == SchedulerPolicy::kQssf) {
          cfg.priority_fn = [](const trace::JobRecord& j) {
            return static_cast<double>(j.duration) * j.num_gpus;
          };
        }
        cfg.execution = common::ExecMode::kSerial;
        const SimResult serial = ClusterSimulator(spec, cfg).run(t);
        cfg.execution = common::ExecMode::kParallel;
        const SimResult sharded = ClusterSimulator(spec, cfg).run(t);

        EXPECT_LE(serial.max_power_watts, bound + 1e-6)
            << to_string(policy) << " backfill=" << backfill
            << " seed=" << seed;
        EXPECT_GT(serial.energy_joules, 0.0);
        EXPECT_TRUE(sweep::results_identical(serial, sharded))
            << to_string(policy) << " backfill=" << backfill
            << " seed=" << seed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Energy-weighted QSSF: a priority_fn composed at the call site
// ---------------------------------------------------------------------------

TEST(EnergyWeightedQssf, PriorityFnOrdersByPredictedEnergyNotGpuTime) {
  // One node. A runs first under both orderings. B is long but power-cheap
  // (predicted energy 1000 s × 8 GPUs × 100 W = 0.8 MJ); C is short but
  // power-hungry (200 × 8 × 600 = 0.96 MJ). QSSF on GPU time (8000 vs 1600)
  // runs C before B; weighting the same prediction by watts flips that.
  const auto spec = one_vc_spec(1);
  const auto t = make_trace(
      spec, {{0, 100, 8, "vc0"}, {0, 1000, 8, "vc0"}, {0, 200, 8, "vc0"}});
  auto watts_by_duration = [](const trace::JobRecord& j) {
    if (j.duration == 1000) return 100.0;
    if (j.duration == 200) return 600.0;
    return 300.0;
  };
  auto oracle = [](const trace::JobRecord& j) {
    return static_cast<double>(j.duration) * j.num_gpus;
  };

  SimConfig cfg;
  cfg.policy = SchedulerPolicy::kQssf;
  cfg.priority_fn = oracle;
  cfg.gpu_watts_fn = watts_by_duration;
  const SimResult qssf = ClusterSimulator(spec, cfg).run(t);
  EXPECT_LT(qssf.outcomes[2].start, qssf.outcomes[1].start);

  cfg.priority_fn = [&](const trace::JobRecord& j) {
    return oracle(j) * watts_by_duration(j);
  };
  const SimResult energy = ClusterSimulator(spec, cfg).run(t);
  EXPECT_LT(energy.outcomes[1].start, energy.outcomes[2].start);
  EXPECT_EQ(energy.outcomes[0].start, 0);  // cheapest predicted energy first
}

}  // namespace
}  // namespace helios::sim
