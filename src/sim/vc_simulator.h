// Single-VC discrete-event scheduling loop: the simulator's one event loop.
//
// VCs are dedicated, non-shared node partitions (§2.1): a VC's queue,
// placement, and completion events never interact with another VC's. That
// makes the cluster-wide event loop embarrassingly parallel across VCs —
// ClusterSimulator builds one VcSimulator per VC, runs them concurrently on
// the shared thread pool, and merges per-VC outcomes, counters, and busy
// series deterministically (in VC order; the series terms are exact integer
// products, so the merged series is bit-identical to a serial accumulation).
//
// Each shard owns the ClusterState of its VC's nodes, the policy queue, and
// run slots:
//  * run slots recycle through a free list, so they number the jobs running
//    at once; kill victims and SRTF ties are ordered by each job's
//    first-start sequence number, not by slot;
//  * a per-VC active-run list lets SRTF preemption scan only the jobs
//    currently running;
//  * FIFO never reorders, so its queue is a bitmap over arrival order
//    instead of an ordered set;
//  * backfill passes keep the minimum queued GPU demand in a multiset and
//    skip the scan entirely when even the smallest queued job exceeds the
//    VC's free GPUs;
//  * busy-node/GPU accounting coalesces runs of events that leave the busy
//    counters unchanged into one BusySegment, so the series costs O(busy
//    changes), not O(events x buckets).
//
// The loop is resumable: advance(until) processes every event at or before
// `until`. Without a PowerController each shard runs advance(∞) once; with
// one (CES's DRS), boot completions are events, arrivals and blocked heads
// call its hooks, and its serial tick sleeps nodes between advances.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cluster_state.h"
#include "sim/simulator.h"

namespace helios::sim {

/// A maximal interval over which a VC's busy-node/GPU counts, powered nodes
/// and power draw are constant. Shards log these contiguously and in time
/// order; the orchestrator integrates them into the cluster-wide series after
/// the parallel phase (intervals may overhang the bucket window; the
/// integrators clamp) and k-way merges their power edges for the peak series
/// (sim/peak_power.h). Unlike the busy counts, `active` and `watts` cover
/// idle stretches too.
struct BusySegment {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int32_t nodes = 0;
  std::int32_t gpus = 0;
  std::int32_t active = 0;  ///< powered nodes (active + booting)
  double watts = 0.0;  ///< VC draw: node baseline + per-GPU draw of its runs
};

class VcSimulator {
 public:
  /// Aggregates merged into SimResult by the orchestrator.
  struct Counters {
    std::int64_t preemptions = 0;
    std::int64_t rejected = 0;
    std::int64_t kills = 0;     ///< job runs killed by node failures
    std::int64_t failures = 0;  ///< node-failure events applied
  };

  /// A shard modelling only cluster-spec VC `vc`'s nodes. `window_begin` is
  /// the series origin; `config` is shared across shards (the VC's FaultPlan
  /// events are copied, remapped through SimConfig::node_order). `arrivals`
  /// holds this VC's indices into `outcomes` (positions in the trace's GPU-job
  /// order) in submit order; the shard writes start, end, kills and rejected
  /// of its own entries only, so shards run concurrently over one vector.
  /// `t`, `arrivals` and `outcomes` must outlive the shard. The first
  /// advance() builds its job table, so priority_fn runs on its worker.
  [[nodiscard]] static std::unique_ptr<VcSimulator> create(
      const trace::ClusterSpec& spec, int vc, const SimConfig& config,
      UnixTime window_begin, const trace::Trace& t,
      const std::vector<std::size_t>& arrivals,
      std::vector<JobOutcome>& outcomes);
  virtual ~VcSimulator() = default;

  /// Process every event at or before `until`, in time order.
  virtual void advance(std::int64_t until) = 0;
  /// Close the trailing busy segment once the last advance() ran.
  virtual Counters finish() = 0;
  /// Busy-count segments recorded so far, in time order.
  [[nodiscard]] virtual const std::vector<BusySegment>& segments()
      const noexcept = 0;
  /// Time of the next event; advance() before it does nothing.
  [[nodiscard]] virtual std::int64_t next_event() const noexcept = 0;

  /// -- node power control, for PowerController hooks ----------------------
  /// The node pool of this shard's VC.
  [[nodiscard]] virtual const ClusterState& state() const noexcept = 0;
  /// ClusterState::wake_nodes / sleep_idle_nodes on this VC; a transition
  /// clears the blocked-head memo and splits the busy segment.
  virtual int wake_nodes(int count, std::int64_t now,
                         std::int64_t boot_delay) = 0;
  virtual int sleep_idle_nodes(int count, std::int64_t now) = 0;
};

}  // namespace helios::sim
