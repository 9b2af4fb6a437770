// Sharded-vs-serial determinism of the VC-sharded simulator.
//
// ClusterSimulator runs one VcSimulator per VC, concurrently under
// common::ExecMode::kParallel. This suite asserts the parallel run's SimResult —
// outcomes, counters, per-VC stats, the busy-nodes/GPUs series, and the
// energy accounting (cumulative joules, per-VC energy, mean/peak power
// series) — is *identical* (exact doubles, not approximately equal) to the
// retained serial reference (common::ExecMode::kSerial) across all four
// policies, backfill on/off, power caps on/off, and several synthetic-trace
// seeds. It also checks that sim::outcomes_digest changes with every field
// of every outcome.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace helios::sim {
namespace {

using trace::Trace;

const Trace& venus_trace(std::uint64_t seed) {
  static std::map<std::uint64_t, Trace> cache;
  auto it = cache.find(seed);
  if (it == cache.end()) {
    auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                              seed, 0.02);
    it = cache.emplace(seed, trace::SyntheticTraceGenerator(cfg).generate())
             .first;
  }
  return it->second;
}

void expect_identical(const SimResult& serial, const SimResult& sharded) {
  ASSERT_EQ(serial.outcomes.size(), sharded.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    const JobOutcome& a = serial.outcomes[i];
    const JobOutcome& b = sharded.outcomes[i];
    ASSERT_EQ(a.trace_index, b.trace_index) << "outcome " << i;
    ASSERT_EQ(a.submit, b.submit) << "outcome " << i;
    ASSERT_EQ(a.start, b.start) << "outcome " << i;
    ASSERT_EQ(a.end, b.end) << "outcome " << i;
    ASSERT_EQ(a.gpus, b.gpus) << "outcome " << i;
    ASSERT_EQ(a.vc, b.vc) << "outcome " << i;
    ASSERT_EQ(a.kills, b.kills) << "outcome " << i;
    ASSERT_EQ(a.rejected, b.rejected) << "outcome " << i;
  }
  EXPECT_EQ(serial.outcomes_digest, sharded.outcomes_digest);
  // Scalar metrics: exact equality — both paths fold the same integers in
  // the same order.
  EXPECT_EQ(serial.avg_jct, sharded.avg_jct);
  EXPECT_EQ(serial.avg_queue_delay, sharded.avg_queue_delay);
  EXPECT_EQ(serial.queued_jobs, sharded.queued_jobs);
  EXPECT_EQ(serial.preemptions, sharded.preemptions);
  EXPECT_EQ(serial.rejected_jobs, sharded.rejected_jobs);
  EXPECT_EQ(serial.unfinished_jobs, sharded.unfinished_jobs);
  EXPECT_EQ(serial.job_kills, sharded.job_kills);
  EXPECT_EQ(serial.node_failures, sharded.node_failures);
  ASSERT_EQ(serial.vc_stats.size(), sharded.vc_stats.size());
  for (std::size_t v = 0; v < serial.vc_stats.size(); ++v) {
    EXPECT_EQ(serial.vc_stats[v].name, sharded.vc_stats[v].name);
    EXPECT_EQ(serial.vc_stats[v].gpus, sharded.vc_stats[v].gpus);
    EXPECT_EQ(serial.vc_stats[v].jobs, sharded.vc_stats[v].jobs);
    EXPECT_EQ(serial.vc_stats[v].avg_queue_delay,
              sharded.vc_stats[v].avg_queue_delay);
    EXPECT_EQ(serial.vc_stats[v].avg_jct, sharded.vc_stats[v].avg_jct);
    EXPECT_EQ(serial.vc_stats[v].energy_joules,
              sharded.vc_stats[v].energy_joules)
        << "vc " << v;
  }
  // Energy accounting: the merge loop is serial in VC order under both exec
  // modes, so every energy/power double must match bitwise — no tolerance.
  EXPECT_EQ(serial.energy_joules, sharded.energy_joules);
  EXPECT_EQ(serial.max_power_watts, sharded.max_power_watts);
  ASSERT_EQ(serial.power_watts.values.size(), sharded.power_watts.values.size());
  for (std::size_t i = 0; i < serial.power_watts.values.size(); ++i) {
    ASSERT_EQ(serial.power_watts.values[i], sharded.power_watts.values[i])
        << "power_watts bucket " << i;
  }
  ASSERT_EQ(serial.peak_power_watts.values.size(),
            sharded.peak_power_watts.values.size());
  for (std::size_t i = 0; i < serial.peak_power_watts.values.size(); ++i) {
    ASSERT_EQ(serial.peak_power_watts.values[i],
              sharded.peak_power_watts.values[i])
        << "peak_power_watts bucket " << i;
  }
  // Busy series: bit-identical buckets (integer-exact integration).
  ASSERT_EQ(serial.busy_nodes.begin, sharded.busy_nodes.begin);
  ASSERT_EQ(serial.busy_nodes.step, sharded.busy_nodes.step);
  ASSERT_EQ(serial.busy_nodes.values.size(), sharded.busy_nodes.values.size());
  for (std::size_t i = 0; i < serial.busy_nodes.values.size(); ++i) {
    ASSERT_EQ(serial.busy_nodes.values[i], sharded.busy_nodes.values[i])
        << "busy_nodes bucket " << i;
  }
  ASSERT_EQ(serial.busy_gpus.values.size(), sharded.busy_gpus.values.size());
  for (std::size_t i = 0; i < serial.busy_gpus.values.size(); ++i) {
    ASSERT_EQ(serial.busy_gpus.values[i], sharded.busy_gpus.values[i])
        << "busy_gpus bucket " << i;
  }
  ASSERT_EQ(serial.active_nodes.values.size(),
            sharded.active_nodes.values.size());
  for (std::size_t i = 0; i < serial.active_nodes.values.size(); ++i) {
    ASSERT_EQ(serial.active_nodes.values[i], sharded.active_nodes.values[i])
        << "active_nodes bucket " << i;
  }
}

// A binding-but-not-degenerate cap for `spec`: the all-active idle baseline
// plus enough headroom to run ~30% of the cluster's GPUs at the default
// per-GPU draw. Low enough to gate placements under load spikes, high enough
// that work still flows.
double binding_cap(const trace::ClusterSpec& spec) {
  std::int64_t nodes = 0;
  std::int64_t gpus = 0;
  for (const auto& vc : spec.vcs) {
    nodes += vc.nodes;
    gpus += static_cast<std::int64_t>(vc.nodes) * vc.gpus_per_node;
  }
  const core::PowerProfile profile;
  return profile.idle_node_watts * static_cast<double>(nodes) +
         profile.gpu_watts * static_cast<double>(gpus) * 0.3;
}

struct Case {
  SchedulerPolicy policy;
  bool backfill;
  bool capped;
  std::uint64_t seed;
};

class ShardedDeterminismTest : public ::testing::TestWithParam<Case> {};

TEST_P(ShardedDeterminismTest, ShardedMatchesSerialReference) {
  const Case c = GetParam();
  const Trace& t = venus_trace(c.seed);

  SimConfig cfg;
  cfg.policy = c.policy;
  cfg.backfill = c.backfill;
  if (c.capped) cfg.power_cap_watts = binding_cap(t.cluster());
  if (c.policy == SchedulerPolicy::kQssf) {
    cfg.priority_fn = [](const trace::JobRecord& j) {
      return static_cast<double>(j.duration) * j.num_gpus;
    };
  }

  cfg.execution = common::ExecMode::kSerial;
  const SimResult serial = ClusterSimulator(t.cluster(), cfg).run(t);

  cfg.execution = common::ExecMode::kParallel;
  const SimResult sharded = ClusterSimulator(t.cluster(), cfg).run(t);
  expect_identical(serial, sharded);

  // Sharded runs must also be stable across repetitions (no dependence on
  // thread scheduling).
  const SimResult again = ClusterSimulator(t.cluster(), cfg).run(t);
  expect_identical(sharded, again);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto policy : all_policies()) {
    for (const bool backfill : {false, true}) {
      for (const bool capped : {false, true}) {
        for (const std::uint64_t seed : {7ull, 19ull}) {
          cases.push_back({policy, backfill, capped, seed});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesBackfillCapsSeeds, ShardedDeterminismTest,
                         ::testing::ValuesIn(all_cases()),
                         [](const auto& info) {
                           return std::string(to_string(info.param.policy)) +
                                  (info.param.backfill ? "Backfill" : "") +
                                  (info.param.capped ? "Capped" : "") +
                                  "Seed" + std::to_string(info.param.seed);
                         });

// Fault-injected runs: same sharded-vs-serial bit-identity, now with node
// failures killing jobs, removing capacity, and requeueing work mid-run —
// across policies, backfill, failure rates, restart semantics, and seeds,
// plus FIFO under a binding power cap.
struct FaultCase {
  SchedulerPolicy policy;
  bool backfill;
  bool capped;       ///< binding power cap (power-gated admission)
  double mtbf_days;  ///< 0 = no fault plan attached
  FaultRestart restart;
  std::uint64_t seed;
};

class FaultShardedDeterminismTest
    : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultShardedDeterminismTest, ShardedMatchesSerialUnderFaults) {
  const FaultCase c = GetParam();
  const Trace& t = venus_trace(c.seed);

  FaultPlan plan;
  SimConfig cfg;
  cfg.policy = c.policy;
  cfg.backfill = c.backfill;
  cfg.restart = c.restart;
  if (c.policy == SchedulerPolicy::kQssf) {
    cfg.priority_fn = [](const trace::JobRecord& j) {
      return static_cast<double>(j.duration) * j.num_gpus;
    };
  }
  // Power-gated admission through the fault path: kills and recoveries move
  // the baseline and the run draw, so the cap check must stay deterministic.
  if (c.capped) cfg.power_cap_watts = binding_cap(t.cluster());
  if (c.mtbf_days > 0.0) {
    FaultPlanConfig fp;
    fp.mtbf_days = c.mtbf_days;
    fp.flaky_fraction = 0.25;
    fp.seed = c.seed;
    const auto& jobs = t.jobs();
    const UnixTime begin = jobs.front().submit_time;
    const UnixTime end = jobs.back().submit_time + 14 * 86400;
    plan = FaultPlan::generate(t.cluster(), fp, begin, end);
    cfg.fault_plan = &plan;
  }

  cfg.execution = common::ExecMode::kSerial;
  const SimResult serial = ClusterSimulator(t.cluster(), cfg).run(t);

  cfg.execution = common::ExecMode::kParallel;
  const SimResult sharded = ClusterSimulator(t.cluster(), cfg).run(t);
  expect_identical(serial, sharded);

  const SimResult again = ClusterSimulator(t.cluster(), cfg).run(t);
  expect_identical(sharded, again);

  if (c.mtbf_days > 0.0 && c.mtbf_days <= 30.0) {
    // A churn-level plan over a months-long window must actually exercise
    // the fault path, or this sweep tests nothing. Under the binding power
    // cap few enough jobs run that failures may only ever hit idle nodes, so
    // the kill expectation applies to the uncapped runs.
    EXPECT_GT(serial.node_failures, 0);
    if (!c.capped) {
      EXPECT_GT(serial.job_kills, 0);
    }
  }
}

std::vector<FaultCase> fault_cases() {
  std::vector<FaultCase> cases;
  for (const auto policy : all_policies()) {
    // The cap gates every policy the same way; FIFO carries the capped
    // kill/requeue path.
    for (const bool capped : {false, true}) {
      if (capped && policy != SchedulerPolicy::kFifo) continue;
      for (const bool backfill : {false, true}) {
        for (const double mtbf : {30.0, 7.0}) {
          for (const std::uint64_t seed : {7ull, 19ull}) {
            const auto restart = (seed % 2 == 1) == backfill
                                     ? FaultRestart::kResume
                                     : FaultRestart::kRestart;
            cases.push_back({policy, backfill, capped, mtbf, restart, seed});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesBackfillRatesSeeds, FaultShardedDeterminismTest,
    ::testing::ValuesIn(fault_cases()), [](const auto& info) {
      return std::string(to_string(info.param.policy)) +
             (info.param.backfill ? "Backfill" : "") +
             (info.param.capped ? "Capped" : "") + "Mtbf" +
             std::to_string(static_cast<int>(info.param.mtbf_days)) +
             (info.param.restart == FaultRestart::kResume ? "Resume"
                                                          : "Restart") +
             "Seed" + std::to_string(info.param.seed);
    });

// Failure-aware placement: a node_order permutation must preserve the
// sharded/serial bit-identity too (fault events are remapped per shard).
TEST(FaultShardedDeterminism, NodeOrderPermutationStaysDeterministic) {
  const Trace& t = venus_trace(7);
  FaultPlanConfig fp;
  fp.mtbf_days = 10.0;
  fp.flaky_fraction = 0.3;
  fp.seed = 99;
  const auto& jobs = t.jobs();
  const FaultPlan plan =
      FaultPlan::generate(t.cluster(), fp, jobs.front().submit_time,
                          jobs.back().submit_time + 14 * 86400);

  SimConfig cfg;
  cfg.policy = SchedulerPolicy::kFifo;
  cfg.backfill = true;
  cfg.fault_plan = &plan;
  // Reverse every VC's placement order — a maximal relabeling.
  for (const auto& vc : t.cluster().vcs) {
    std::vector<std::int32_t> order(static_cast<std::size_t>(vc.nodes));
    for (int i = 0; i < vc.nodes; ++i) {
      order[static_cast<std::size_t>(i)] = vc.nodes - 1 - i;
    }
    cfg.node_order.push_back(std::move(order));
  }

  cfg.execution = common::ExecMode::kSerial;
  const SimResult serial = ClusterSimulator(t.cluster(), cfg).run(t);
  cfg.execution = common::ExecMode::kParallel;
  const SimResult sharded = ClusterSimulator(t.cluster(), cfg).run(t);
  expect_identical(serial, sharded);
}

// With a homogeneous power profile and no faults, SimConfig::node_order only
// re-labels which physical node a gang lands on — the busy counts, and with
// them the draw, are label-invariant. The energy outputs must therefore be
// bit-identical between id-order and any permutation.
TEST(ShardedDeterminism, NodeOrderPermutationEnergyInvariant) {
  const Trace& t = venus_trace(7);

  SimConfig cfg;
  cfg.policy = SchedulerPolicy::kFifo;
  cfg.backfill = true;
  const SimResult id_order = ClusterSimulator(t.cluster(), cfg).run(t);

  for (const auto& vc : t.cluster().vcs) {
    std::vector<std::int32_t> order(static_cast<std::size_t>(vc.nodes));
    for (int i = 0; i < vc.nodes; ++i) {
      order[static_cast<std::size_t>(i)] = vc.nodes - 1 - i;
    }
    cfg.node_order.push_back(std::move(order));
  }
  const SimResult permuted = ClusterSimulator(t.cluster(), cfg).run(t);

  EXPECT_EQ(id_order.energy_joules, permuted.energy_joules);
  EXPECT_EQ(id_order.max_power_watts, permuted.max_power_watts);
  ASSERT_EQ(id_order.power_watts.values.size(),
            permuted.power_watts.values.size());
  for (std::size_t i = 0; i < id_order.power_watts.values.size(); ++i) {
    ASSERT_EQ(id_order.power_watts.values[i], permuted.power_watts.values[i])
        << "power_watts bucket " << i;
  }
  ASSERT_EQ(id_order.peak_power_watts.values.size(),
            permuted.peak_power_watts.values.size());
  for (std::size_t i = 0; i < id_order.peak_power_watts.values.size(); ++i) {
    ASSERT_EQ(id_order.peak_power_watts.values[i],
              permuted.peak_power_watts.values[i])
        << "peak_power_watts bucket " << i;
  }
  ASSERT_EQ(id_order.vc_stats.size(), permuted.vc_stats.size());
  for (std::size_t v = 0; v < id_order.vc_stats.size(); ++v) {
    EXPECT_EQ(id_order.vc_stats[v].energy_joules,
              permuted.vc_stats[v].energy_joules)
        << "vc " << v;
  }
}

// Golden parity pin: an FNV-1a digest over every SimResult field, bit for
// bit, on a fixed grid of runs. The expected digests were recorded from the
// simulator before its post-run merge became a streaming k-way merge; any
// change to an outcome, a counter, a per-VC stat, a series bucket, the energy
// or the peak draw changes the digest. Runs use the default kParallel mode,
// so `./ci.sh threads` checks them at several pool widths.
class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    bytes(&u, sizeof u);
  }
  void series(const forecast::TimeSeries& s) {
    i64(s.begin);
    i64(s.step);
    i64(static_cast<std::int64_t>(s.values.size()));
    for (double v : s.values) f64(v);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const SimResult& r) {
  Fnv1a h;
  h.i64(static_cast<std::int64_t>(r.outcomes.size()));
  for (const JobOutcome& o : r.outcomes) {
    h.i64(static_cast<std::int64_t>(o.trace_index));
    h.i64(o.submit);
    h.i64(o.start);
    h.i64(o.end);
    h.i64(o.gpus);
    h.i64(o.kills);
    h.i64(o.vc);
    h.i64(o.rejected ? 1 : 0);
  }
  h.f64(r.avg_jct);
  h.f64(r.avg_queue_delay);
  h.i64(r.queued_jobs);
  h.i64(r.preemptions);
  h.i64(r.rejected_jobs);
  h.i64(r.unfinished_jobs);
  h.i64(r.job_kills);
  h.i64(r.node_failures);
  for (const VCStat& v : r.vc_stats) {
    h.bytes(v.name.data(), v.name.size());
    h.i64(v.gpus);
    h.i64(v.jobs);
    h.f64(v.avg_queue_delay);
    h.f64(v.avg_jct);
    h.f64(v.energy_joules);
  }
  h.series(r.busy_nodes);
  h.series(r.busy_gpus);
  h.series(r.active_nodes);
  h.series(r.power_watts);
  h.series(r.peak_power_watts);
  h.f64(r.energy_joules);
  h.f64(r.max_power_watts);
  return h.value();
}

const Trace& golden_trace(const std::string& cluster) {
  static std::map<std::string, Trace> cache;
  auto it = cache.find(cluster);
  if (it == cache.end()) {
    auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster(cluster),
                                              11, 0.05);
    it = cache.emplace(cluster, trace::SyntheticTraceGenerator(cfg).generate())
             .first;
  }
  return it->second;
}

enum class GoldenFaults { kNone, kRestart, kResume };

struct GoldenCase {
  std::string cluster;
  SchedulerPolicy policy;
  bool backfill;
  GoldenFaults faults;
  bool capped;  ///< binding cap plus non-integer per-job GPU draws
};

std::string golden_name(const GoldenCase& c) {
  std::string name = c.cluster + std::string(to_string(c.policy));
  if (c.backfill) name += "Backfill";
  if (c.faults == GoldenFaults::kRestart) name += "Restart";
  if (c.faults == GoldenFaults::kResume) name += "Resume";
  if (c.capped) name += "Capped";
  return name;
}

SimResult run_golden(const GoldenCase& c) {
  const Trace& t = golden_trace(c.cluster);
  SimConfig cfg;
  cfg.policy = c.policy;
  cfg.backfill = c.backfill;
  if (c.policy == SchedulerPolicy::kQssf) {
    cfg.priority_fn = [](const trace::JobRecord& j) {
      return static_cast<double>(j.duration) * j.num_gpus;
    };
  }
  if (c.capped) {
    cfg.power_cap_watts = binding_cap(t.cluster());
    // Non-integer draws: the power series, energy and peaks then depend on
    // the accumulation order, which the digest pins.
    cfg.gpu_watts_fn = [](const trace::JobRecord& j) {
      return 212.5 + 0.37 * static_cast<double>(j.duration % 97) +
             0.1 * static_cast<double>(j.num_gpus);
    };
  }
  FaultPlan plan;
  if (c.faults != GoldenFaults::kNone) {
    FaultPlanConfig fp;
    fp.mtbf_days = 10.0;
    fp.flaky_fraction = 0.25;
    fp.seed = 5;
    const auto& jobs = t.jobs();
    plan = FaultPlan::generate(t.cluster(), fp, jobs.front().submit_time,
                               jobs.back().submit_time + 14 * 86400);
    cfg.fault_plan = &plan;
    cfg.restart = c.faults == GoldenFaults::kResume ? FaultRestart::kResume
                                                    : FaultRestart::kRestart;
  }
  return ClusterSimulator(t.cluster(), cfg).run(t);
}

const std::map<std::string, std::uint64_t>& golden_digests() {
  static const std::map<std::string, std::uint64_t> kDigests = {
      {"VenusFIFO", 0x9703ce04b873e3a8ull},
      {"VenusFIFOCapped", 0x3905a8509658672cull},
      {"VenusFIFORestart", 0x3c0511b649b31a9bull},
      {"VenusFIFORestartCapped", 0xdde2577b4b7767b1ull},
      {"VenusFIFOResume", 0xfffbbc42500dfffeull},
      {"VenusFIFOResumeCapped", 0x9b415f87e66ea577ull},
      {"VenusFIFOBackfill", 0xbc81e688cab14c5cull},
      {"VenusFIFOBackfillCapped", 0xfabbb119ec66d5eull},
      {"VenusFIFOBackfillRestart", 0xe6f8b76568477edbull},
      {"VenusFIFOBackfillRestartCapped", 0xf6b3fdebd3f8ef5aull},
      {"VenusFIFOBackfillResume", 0x50dfcb98116768a7ull},
      {"VenusFIFOBackfillResumeCapped", 0x155534bf0be345fcull},
      {"VenusSJF", 0x72da64d6fdb2701ull},
      {"VenusSJFCapped", 0x4ae3831929eb5a0bull},
      {"VenusSJFRestart", 0xecbfc03981cd9c9dull},
      {"VenusSJFRestartCapped", 0xd47f9e643d4e8c22ull},
      {"VenusSJFResume", 0x3ae92da0875146a7ull},
      {"VenusSJFResumeCapped", 0xfd9d7e7c2c7b8f5eull},
      {"VenusSJFBackfill", 0x937c371f1bd63629ull},
      {"VenusSJFBackfillCapped", 0xe005257bb65b84eeull},
      {"VenusSJFBackfillRestart", 0x8eb8750fcdbeb904ull},
      {"VenusSJFBackfillRestartCapped", 0xb4e0398bf5c7935cull},
      {"VenusSJFBackfillResume", 0xf6d8a6f1eabcab7cull},
      {"VenusSJFBackfillResumeCapped", 0x44aee681f466da86ull},
      {"VenusSRTF", 0x5b215080b42df93bull},
      {"VenusSRTFCapped", 0x4ae3831929eb5a0bull},
      {"VenusSRTFRestart", 0xbd4c70a48ddc7f66ull},
      {"VenusSRTFRestartCapped", 0x4e06b79c1ca5bb1bull},
      {"VenusSRTFResume", 0x8ad538cdecdeb0c2ull},
      {"VenusSRTFResumeCapped", 0x79ef3430db5f0c11ull},
      {"VenusSRTFBackfill", 0x398db0d97ab191bfull},
      {"VenusSRTFBackfillCapped", 0xe005257bb65b84eeull},
      {"VenusSRTFBackfillRestart", 0xbaf46e3db9f75e44ull},
      {"VenusSRTFBackfillRestartCapped", 0x6236ccfb05194228ull},
      {"VenusSRTFBackfillResume", 0x4c8dbeeb086c348eull},
      {"VenusSRTFBackfillResumeCapped", 0x1d7f5e6b6e3e3543ull},
      {"VenusQSSF", 0x21e1ba2ccb365104ull},
      {"VenusQSSFCapped", 0xdcecc6e23edc2559ull},
      {"VenusQSSFRestart", 0x12ac991ee7aa1fd8ull},
      {"VenusQSSFRestartCapped", 0x2445ede088852e60ull},
      {"VenusQSSFResume", 0x85591a3b0730e1fbull},
      {"VenusQSSFResumeCapped", 0x8e20d02f35c48e76ull},
      {"VenusQSSFBackfill", 0x8aee25a556bdd653ull},
      {"VenusQSSFBackfillCapped", 0x91fbb9439dca38d5ull},
      {"VenusQSSFBackfillRestart", 0x7bb7639e9abbccc1ull},
      {"VenusQSSFBackfillRestartCapped", 0x4f3115adf02b9843ull},
      {"VenusQSSFBackfillResume", 0x52bbc7f18ba53dfdull},
      {"VenusQSSFBackfillResumeCapped", 0x88b5ad5e30e2e908ull},
      {"EarthFIFO", 0x7ef561499ebae4ebull},
      {"EarthFIFOCapped", 0xb245a7bb66fde23ull},
      {"EarthFIFORestart", 0xe8009b6ab5fabb18ull},
      {"EarthFIFORestartCapped", 0xd3a8ce912f28f828ull},
      {"EarthFIFOResume", 0x667218825e3ad776ull},
      {"EarthFIFOResumeCapped", 0x5f82c1070d6caba6ull},
      {"EarthFIFOBackfill", 0xd4849cda6fee1411ull},
      {"EarthFIFOBackfillCapped", 0x37449f7cfc762122ull},
      {"EarthFIFOBackfillRestart", 0x1cdca4cc36012146ull},
      {"EarthFIFOBackfillRestartCapped", 0x4d27c411f721eac1ull},
      {"EarthFIFOBackfillResume", 0x85a872e085fd419cull},
      {"EarthFIFOBackfillResumeCapped", 0x5f7bfe26e4d91b4eull},
      {"EarthSJF", 0xfa128e2c130edab5ull},
      {"EarthSJFCapped", 0xf4d17d2fe31c4220ull},
      {"EarthSJFRestart", 0x3d95531490a8e881ull},
      {"EarthSJFRestartCapped", 0xdc9854f6b4195cb1ull},
      {"EarthSJFResume", 0x3c74f5c62d11265cull},
      {"EarthSJFResumeCapped", 0x4a4c942ae8a23474ull},
      {"EarthSJFBackfill", 0x872e1f8a6be84b20ull},
      {"EarthSJFBackfillCapped", 0xe08c727cdbe7385aull},
      {"EarthSJFBackfillRestart", 0x10a7a9524978907ull},
      {"EarthSJFBackfillRestartCapped", 0x81547c28b918760full},
      {"EarthSJFBackfillResume", 0x85da049086d78df1ull},
      {"EarthSJFBackfillResumeCapped", 0x44c2eeda4a1febcdull},
      {"EarthSRTF", 0x5d0923fc98a47929ull},
      {"EarthSRTFCapped", 0xf4d17d2fe31c4220ull},
      {"EarthSRTFRestart", 0xa65f994353b2f3aaull},
      {"EarthSRTFRestartCapped", 0x7c33069394454ca6ull},
      {"EarthSRTFResume", 0x81e9a07b7c40ae1cull},
      {"EarthSRTFResumeCapped", 0x40ff8d2551b21ec2ull},
      {"EarthSRTFBackfill", 0x91385bf08647acdull},
      {"EarthSRTFBackfillCapped", 0xe08c727cdbe7385aull},
      {"EarthSRTFBackfillRestart", 0xac8e5ca7a5c450deull},
      {"EarthSRTFBackfillRestartCapped", 0xa63bdda3dcdf76aeull},
      {"EarthSRTFBackfillResume", 0x759d1211fc723367ull},
      {"EarthSRTFBackfillResumeCapped", 0xe0976901be316d5ull},
      {"EarthQSSF", 0xdd0fd13feca76f74ull},
      {"EarthQSSFCapped", 0x77a916576c479498ull},
      {"EarthQSSFRestart", 0x764106f79f95eb86ull},
      {"EarthQSSFRestartCapped", 0xc40d5eee1b8c6ecaull},
      {"EarthQSSFResume", 0xce392b9031ebffd7ull},
      {"EarthQSSFResumeCapped", 0x1db70677e70367feull},
      {"EarthQSSFBackfill", 0x3c6d5c236e4953b3ull},
      {"EarthQSSFBackfillCapped", 0x6c58aa28908c51b3ull},
      {"EarthQSSFBackfillRestart", 0x541d6cd7511291f2ull},
      {"EarthQSSFBackfillRestartCapped", 0xfcc86b140d530e97ull},
      {"EarthQSSFBackfillResume", 0xff38c953d486d4bdull},
      {"EarthQSSFBackfillResumeCapped", 0xc1cc27e8f4ea361full},
  };
  return kDigests;
}

class GoldenDigestTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenDigestTest, SimResultMatchesRecordedDigest) {
  const GoldenCase c = GetParam();
  const std::string name = golden_name(c);
  const std::uint64_t got = digest(run_golden(c));
  const auto it = golden_digests().find(name);
  ASSERT_NE(it, golden_digests().end())
      << "no recorded digest: {\"" << name << "\", 0x" << std::hex << got
      << "ull},";
  EXPECT_EQ(it->second, got) << name << " digest 0x" << std::hex << got;
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  for (const char* cluster : {"Venus", "Earth"}) {
    for (const SchedulerPolicy policy :
         {SchedulerPolicy::kFifo, SchedulerPolicy::kSjf,
          SchedulerPolicy::kSrtf, SchedulerPolicy::kQssf}) {
      for (const bool backfill : {false, true}) {
        for (const GoldenFaults faults :
             {GoldenFaults::kNone, GoldenFaults::kRestart,
              GoldenFaults::kResume}) {
          for (const bool capped : {false, true}) {
            cases.push_back({cluster, policy, backfill, faults, capped});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(PoliciesBackfillFaultsCaps, GoldenDigestTest,
                         ::testing::ValuesIn(golden_cases()),
                         [](const auto& info) {
                           return golden_name(info.param);
                         });

// A hand-built multi-VC trace with same-timestamp arrivals and finishes in
// different VCs: the classic race surface for a sharded event loop.
TEST(ShardedDeterminism, TinyCrossVcTrace) {
  trace::ClusterSpec s;
  s.name = "two";
  s.gpus_per_node = 8;
  s.vcs = {{"vc0", 2, 8}, {"vc1", 1, 8}};
  s.nodes = 3;
  Trace t(s);
  t.add(0, 100, 8, 8, "u0", "vc0", "a", trace::JobState::kCompleted);
  t.add(0, 100, 8, 8, "u1", "vc1", "b", trace::JobState::kCompleted);
  t.add(100, 50, 16, 16, "u0", "vc0", "c", trace::JobState::kCompleted);
  t.add(100, 50, 8, 8, "u1", "vc1", "d", trace::JobState::kCompleted);
  t.add(100, 5, 2, 2, "u2", "vc0", "e", trace::JobState::kCompleted);
  t.sort_by_submit_time();

  for (const bool backfill : {false, true}) {
    SimConfig cfg;
    cfg.policy = SchedulerPolicy::kFifo;
    cfg.backfill = backfill;
    cfg.execution = common::ExecMode::kSerial;
    const SimResult serial = ClusterSimulator(s, cfg).run(t);
    cfg.execution = common::ExecMode::kParallel;
    const SimResult sharded = ClusterSimulator(s, cfg).run(t);
    expect_identical(serial, sharded);
  }
}

// The outcome digest stands in for the outcomes wherever a caller drops them
// (sweep-engine cells), so it must see every field of every outcome. The
// field-by-field comparison in expect_identical above is the bitwise proof
// behind it.
TEST(OutcomesDigest, SeesEveryFieldOfEveryOutcome) {
  SimConfig cfg;
  cfg.policy = SchedulerPolicy::kSjf;
  const SimResult r = ClusterSimulator(venus_trace(42).cluster(), cfg)
                          .run(venus_trace(42));
  const std::vector<JobOutcome>& base = r.outcomes;
  ASSERT_GE(base.size(), 3u);
  EXPECT_EQ(r.outcomes_digest, outcomes_digest(base));
  const std::vector<JobOutcome> copy = base;
  EXPECT_EQ(outcomes_digest(copy), r.outcomes_digest);

  using Mutation = void (*)(JobOutcome&);
  const std::pair<const char*, Mutation> mutations[] = {
      {"trace_index", [](JobOutcome& o) { ++o.trace_index; }},
      {"submit", [](JobOutcome& o) { ++o.submit; }},
      {"start", [](JobOutcome& o) { ++o.start; }},
      {"end", [](JobOutcome& o) { ++o.end; }},
      {"gpus", [](JobOutcome& o) { ++o.gpus; }},
      {"kills", [](JobOutcome& o) { ++o.kills; }},
      {"vc", [](JobOutcome& o) { ++o.vc; }},
      {"rejected", [](JobOutcome& o) { o.rejected = !o.rejected; }},
  };
  for (const std::size_t at : {std::size_t{0}, base.size() / 2, base.size() - 1}) {
    for (const auto& [field, mutate] : mutations) {
      std::vector<JobOutcome> changed = base;
      mutate(changed[at]);
      EXPECT_NE(outcomes_digest(changed), r.outcomes_digest)
          << field << " of outcome " << at;
    }
  }

  std::vector<JobOutcome> dropped = base;
  dropped.pop_back();
  EXPECT_NE(outcomes_digest(dropped), r.outcomes_digest);
  dropped = base;
  dropped.erase(dropped.begin());
  EXPECT_NE(outcomes_digest(dropped), r.outcomes_digest);
  std::vector<JobOutcome> appended = base;
  appended.push_back(base.back());
  EXPECT_NE(outcomes_digest(appended), r.outcomes_digest);
  std::vector<JobOutcome> swapped = base;
  std::swap(swapped.front(), swapped.back());
  EXPECT_NE(outcomes_digest(swapped), r.outcomes_digest);
}

}  // namespace
}  // namespace helios::sim
