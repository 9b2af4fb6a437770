// Trace-driven discrete-event simulator of a multi-VC GPU cluster.
//
// Reproduces the evaluation methodology of §4.2.3: jobs flow through
// arrival -> per-VC queue -> gang placement -> completion, with no
// cross-VC sharing (backfill is opt-in). The paper's four policies are
// queue orderings:
//   * kFifo — submission order (the paper's production baseline),
//   * kSjf  — oracle shortest-job-first, non-preemptive,
//   * kSrtf — oracle shortest-remaining-time-first with free preemption,
//   * kQssf — Quasi-Shortest-Service-First: jobs ordered by *predicted* GPU
//             time supplied by a PriorityFn (see core/qssf_service.h); an
//             energy-weighted ordering is a PriorityFn too (predicted GPU
//             time × the job's per-GPU watts).
//
// Energy accounting is always on: every run carries a core::PowerProfile
// (idle/boot/sleep/failed node watts + per-GPU draw, overridable per job via
// SimConfig::gpu_watts_fn) and SimResult reports cumulative energy, mean and
// per-bucket-peak power series, and per-VC energy. Setting
// SimConfig::power_cap_watts > 0 additionally turns on budget-constrained
// admission, a gate under *every* policy — no placement (head start, SRTF
// preemption-start, or backfill) may exceed the VC's capacity-proportional
// share of the cap; backfill under a cap is power-proportional: candidates
// start only while the projected draw stays under the cap.
//
// A PowerController (SimConfig::power_controller) wakes and sleeps nodes
// from inside the event loop; CES (core/ces_service.h) runs on it.
//
// Only GPU jobs are simulated; the paper does the same ("GPU resources are
// the bottleneck in our clusters").
//
// Every SimResult carries a 128-bit digest of its per-job outcomes, so a
// caller that keeps only aggregates (the sweep engine drops each cell's
// outcomes) can still prove two runs scheduled every job identically.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/exec_mode.h"
#include "core/power_model.h"
#include "forecast/series.h"
#include "sim/cluster_state.h"
#include "sim/fault_plan.h"
#include "trace/trace.h"

namespace helios::sim {

enum class SchedulerPolicy {
  kFifo,
  kSjf,
  kSrtf,
  kQssf,
};

[[nodiscard]] std::string_view to_string(SchedulerPolicy p) noexcept;

/// All four policies in declaration order — the policy axis a scenario sweep
/// iterates (sweep/scenario.h).
[[nodiscard]] std::span<const SchedulerPolicy> all_policies() noexcept;

/// Parse "FIFO" / "SJF" / "SRTF" / "QSSF"
/// (case-insensitive). Throws std::invalid_argument on anything else.
[[nodiscard]] SchedulerPolicy policy_from_string(std::string_view name);

/// Priority for kQssf: expected GPU time of the job; lower runs first. Called
/// concurrently from VC shards under common::ExecMode::kParallel, so it must
/// be thread-safe (pure functions and const lookups are).
using PriorityFn = std::function<double(const trace::JobRecord&)>;

/// Per-GPU draw (watts) of one job while running; overrides
/// core::PowerProfile::gpu_watts when set. Same thread-safety contract as
/// PriorityFn.
using GpuWattsFn = std::function<double(const trace::JobRecord&)>;

struct JobOutcome;
class VcSimulator;

/// Node-power controller run inside the event loop (CES's Dynamic Resource
/// Sleep, core::DrsController). With one set, every series and the energy
/// cover [window_begin, window_end), and the VC shards advance in lockstep:
/// at each tick window_begin + k·tick_interval (k >= 1) before window_end,
/// every shard processes its events at or before the tick, then on_tick runs
/// serially. on_arrival and on_blocked_head run on the shard's worker,
/// concurrently under common::ExecMode::kParallel, so they may touch only
/// their shard and that VC's (or job's) data. Wakes and sleeps go through
/// VcSimulator::wake_nodes/sleep_idle_nodes.
class PowerController {
 public:
  PowerController(UnixTime begin, UnixTime end, std::int64_t interval)
      : window_begin(begin), window_end(end), tick_interval(interval) {}
  virtual ~PowerController() = default;

  const UnixTime window_begin;
  const UnixTime window_end;
  const std::int64_t tick_interval;  ///< seconds; must be positive

  /// `job` reached its VC's shard at `now` and is about to be queued.
  virtual void on_arrival(VcSimulator& shard, const JobOutcome& job,
                          std::int64_t now) = 0;
  /// The queue head `job` cannot be placed at `now`.
  virtual void on_blocked_head(VcSimulator& shard, const JobOutcome& job,
                               std::int64_t now) = 0;
  /// Serial tick barrier; shards[v] is VC v's shard.
  virtual void on_tick(std::span<const std::unique_ptr<VcSimulator>> shards,
                       std::int64_t now) = 0;
};

struct SimConfig {
  SchedulerPolicy policy = SchedulerPolicy::kFifo;
  PriorityFn priority_fn;  ///< required for kQssf, ignored otherwise
  common::ExecMode execution = common::ExecMode::kParallel;
  /// Queue delay (seconds) above which a job counts as "queued" in the
  /// Table 3 sense.
  std::int64_t queued_threshold = 1;
  /// Resolution of the busy-nodes / busy-GPUs output series.
  std::int64_t series_step = 600;
  /// Greedy backfill: when the queue head does not fit, later queued jobs
  /// that do fit may start (no reservations). The production Slurm that
  /// recorded the trace backfills, so *operating* a trace uses this; the
  /// §4.2.3 scheduler comparison keeps it off, exactly like the paper
  /// ("we do not consider the backfill mechanism").
  bool backfill = false;
  /// Cap on queue entries scanned per backfill pass.
  int backfill_depth = 256;
  /// Optional node-failure/recovery schedule (sim/fault_plan.h). Not owned;
  /// must outlive the run. nullptr = failure-free cluster. An injected
  /// failure kills the jobs running on the node (their gangs release fully,
  /// the jobs requeue with `restart` semantics) and removes the node's
  /// capacity until its recovery event — or forever, when the repair crosses
  /// the plan horizon.
  const FaultPlan* fault_plan = nullptr;
  /// Requeue semantics for jobs killed by a node failure.
  FaultRestart restart = FaultRestart::kRestart;
  /// Optional node-power controller (CES's DRS). Not owned; must outlive the
  /// run. nullptr = every node stays powered.
  PowerController* power_controller = nullptr;
  /// Per-VC placement preference: node_order[vc][k] is the VC-local node
  /// index ranked k-th for allocation. Nodes within a VC are homogeneous, so
  /// the ranking only re-labels which physical node the consolidating
  /// allocator fills first — failure-aware placement passes risk-ascending
  /// ranks (core/failure_predictor.h) so gangs consolidate on predicted-
  /// healthy nodes and predicted-bad ones idle. Empty (or a size mismatch
  /// with the VC's node count) = node-id order.
  std::vector<std::vector<std::int32_t>> node_order;
  /// Node/GPU draw for the energy accounting. Integer-valued watts keep the
  /// energy sums exact (order-independent; see bucket_integrator.h).
  core::PowerProfile power_profile;
  /// Per-job per-GPU draw override; unset = power_profile.gpu_watts for
  /// every job.
  GpuWattsFn gpu_watts_fn;
  /// Cluster power cap in watts; <= 0 disables budget-constrained admission.
  /// VCs are simulated independently, so the cap is enforced per VC as a
  /// capacity-proportional share (cap × VC GPUs / cluster GPUs): no VC ever
  /// exceeds its share, hence the cluster never exceeds the cap. With the
  /// cap set, every policy's placements are power-gated and backfill becomes
  /// power-proportional.
  double power_cap_watts = 0.0;
};

struct JobOutcome {
  std::size_t trace_index = 0;  ///< index into the input trace's jobs()
  UnixTime submit = 0;
  std::int64_t start = trace::kNeverStarted;  ///< first launch time
  std::int64_t end = trace::kNeverStarted;
  std::int32_t gpus = 0;
  std::int32_t kills = 0;  ///< times a node failure killed a run of this job
  int vc = -1;  ///< cluster-spec VC index
  bool rejected = false;  ///< demanded more GPUs than its VC will ever have

  [[nodiscard]] std::int64_t queue_delay() const noexcept {
    return start - submit;
  }
  [[nodiscard]] std::int64_t jct() const noexcept { return end - submit; }
};

/// 128-bit digest of a run's outcomes (outcomes_digest below).
using OutcomesDigest = std::array<std::uint64_t, 2>;

/// Digest of `outcomes`: their count, then every field of every outcome in
/// order, each as a fixed-width integer (never the struct's bytes, whose
/// padding is indeterminate). Any changed, dropped, added or reordered
/// outcome changes it with overwhelming probability. The mixing is
/// MurmurHash3 x64-128's; it detects accidental divergence and is not
/// meant to withstand a crafted collision.
[[nodiscard]] OutcomesDigest outcomes_digest(
    std::span<const JobOutcome> outcomes) noexcept;

struct VCStat {
  std::string name;
  int gpus = 0;
  std::int64_t jobs = 0;
  double avg_queue_delay = 0.0;
  double avg_jct = 0.0;
  /// Energy drawn by this VC's nodes and jobs inside the series window,
  /// in joules. VCs with no GPU jobs still bill their idle baseline, so the
  /// per-VC energies sum exactly to SimResult::energy_joules.
  double energy_joules = 0.0;
};

struct SimResult {
  std::vector<JobOutcome> outcomes;  ///< GPU jobs, in input order
  /// outcomes_digest(outcomes) as run() returned them. It stays valid when a
  /// caller frees `outcomes` to keep only the aggregates.
  OutcomesDigest outcomes_digest{};
  double avg_jct = 0.0;
  double avg_queue_delay = 0.0;
  std::int64_t queued_jobs = 0;
  std::int64_t preemptions = 0;
  std::int64_t rejected_jobs = 0;
  /// Jobs that never finished inside the simulated horizon — still queued
  /// (start == kNeverStarted) or killed by a failure and never rescheduled.
  /// They count toward queued_jobs but are excluded from the JCT/delay
  /// averages (they have no completion time), so the averages are over
  /// finished jobs while nothing is silently dropped.
  std::int64_t unfinished_jobs = 0;
  std::int64_t job_kills = 0;      ///< job runs killed by node failures
  std::int64_t node_failures = 0;  ///< failure events applied
  std::vector<VCStat> vc_stats;          ///< by cluster-spec VC index
  forecast::TimeSeries busy_nodes;       ///< mean busy nodes per bucket
  forecast::TimeSeries busy_gpus;       ///< mean busy GPUs per bucket
  /// Mean powered nodes (active or booting) per bucket; below the cluster's
  /// node count only while a PowerController sleeps nodes or nodes fail.
  forecast::TimeSeries active_nodes;
  /// -- energy accounting (SimConfig::power_profile / gpu_watts_fn) --------
  /// Cumulative cluster energy over the series window, joules. Exact sum of
  /// watts × seconds terms in VC order (integer-valued with the default
  /// profile), clamped to [window begin, window end) like the series.
  double energy_joules = 0.0;
  /// Highest instantaneous cluster draw inside the window (== the max of
  /// peak_power_watts' buckets).
  double max_power_watts = 0.0;
  forecast::TimeSeries power_watts;       ///< mean cluster draw per bucket
  forecast::TimeSeries peak_power_watts;  ///< peak cluster draw per bucket
};

/// Trace-driven simulator over all VCs of a cluster. VCs are dedicated and
/// non-shared, so the event loop is sharded per VC (see vc_simulator.h) and
/// shards run concurrently under common::ExecMode::kParallel; outcomes (and
/// so their digest), counters, and busy series merge deterministically,
/// bit-identical to kSerial. A PowerController adds tick barriers but keeps
/// the contract: the shards are independent between ticks and every tick
/// runs serially.
class ClusterSimulator {
 public:
  ClusterSimulator(trace::ClusterSpec spec, SimConfig config);

  /// Simulate all GPU jobs of `t` (must be sorted by submit time). The trace
  /// is not modified; use apply_schedule to write start times back.
  [[nodiscard]] SimResult run(const trace::Trace& t) const;

 private:
  trace::ClusterSpec spec_;
  SimConfig config_;
};

/// Copy simulated start times back into the trace (GPU jobs only; CPU jobs
/// keep start == submit). Returns the number of jobs updated.
std::size_t apply_schedule(trace::Trace& t, const SimResult& result);

/// Convenience: operate a trace under FIFO (how the real trace's timing was
/// produced by Slurm) and write the schedule back.
SimResult operate_fifo(trace::Trace& t, std::int64_t series_step = 600);

}  // namespace helios::sim
