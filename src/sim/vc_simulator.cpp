#include "sim/vc_simulator.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>
#include <set>

namespace helios::sim {

using trace::JobRecord;
using trace::Trace;

namespace {

/// Policy-queue ordering: priority, then submit time, then shard-local id as
/// the final deterministic tie-break. Local ids are assigned in trace order,
/// so the local-id tie-break is exactly the trace-index tie-break the
/// cluster-wide loop used.
struct QueueKey {
  double priority = 0.0;
  UnixTime submit = 0;
  std::size_t local = 0;  ///< position in this shard's arrivals

  bool operator<(const QueueKey& o) const noexcept {
    if (priority != o.priority) return priority < o.priority;
    if (submit != o.submit) return submit < o.submit;
    return local < o.local;
  }
};

constexpr std::uint32_t kNotStarted = std::numeric_limits<std::uint32_t>::max();

/// Dense shard-local copy of the per-job fields the event loop touches, so
/// the hot path never chases outcomes[arrivals[lj]] through two indirections
/// into the (globally interleaved) outcomes array.
struct LocalJob {
  UnixTime submit = 0;
  std::int64_t remaining = 0;  ///< seconds left to run (updates on preempt)
  std::int64_t total = 0;      ///< full duration (FaultRestart::kRestart)
  std::size_t trace_index = 0;
  std::int32_t gpus = 0;
  /// Rank of the job's first start among this shard's jobs: the fixed order
  /// in which failure kills and SRTF ties visit running jobs.
  std::uint32_t start_seq = kNotStarted;
  double priority = 0.0;
  double watts = 0.0;  ///< total draw while running: gpus × per-GPU watts
};

/// A run slot, recycled through a free list: slots number the jobs running
/// at once, not every job ever started.
struct RunningJob {
  std::size_t local = 0;  ///< arrivals position of the job
  Allocation alloc;
  std::int64_t run_start = 0;
  std::int64_t remaining = 0;  ///< at run_start
  double watts = 0.0;  ///< draw added at start; subtracted verbatim on stop
  /// Bumped whenever the run stops, so its pending finish event goes stale.
  std::uint64_t generation = 0;
  std::uint32_t start_seq = 0;  ///< the job's LocalJob::start_seq
};

struct FinishEvent {
  std::int64_t time = 0;
  std::size_t slot = 0;
  std::uint64_t generation = 0;

  bool operator>(const FinishEvent& o) const noexcept { return time > o.time; }
};

/// Two-level bitmap over a fixed total order: bit p set <=> the job at
/// sorted position p is queued. set/clear are O(1); first() and in-order
/// iteration use count-trailing-zeros over at most n/4096 summary words.
class OrderedBitmap {
 public:
  void reserve(std::size_t n) {
    const std::size_t words = (n + 63) / 64;
    bits_.assign(words, 0);
    summary_.assign((words + 63) / 64, 0);
  }

  void set(std::size_t p) {
    bits_[p >> 6] |= std::uint64_t{1} << (p & 63);
    summary_[p >> 12] |= std::uint64_t{1} << ((p >> 6) & 63);
  }

  void clear(std::size_t p) {
    const std::size_t w = p >> 6;
    bits_[w] &= ~(std::uint64_t{1} << (p & 63));
    if (bits_[w] == 0) summary_[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
  }

  /// Lowest set position; call only when at least one bit is set.
  [[nodiscard]] std::size_t first() const noexcept {
    std::size_t sw = 0;
    while (summary_[sw] == 0) ++sw;
    const std::size_t w =
        (sw << 6) + static_cast<std::size_t>(std::countr_zero(summary_[sw]));
    return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits_[w]));
  }

  /// Lowest set position strictly greater than `p`, or SIZE_MAX.
  [[nodiscard]] std::size_t next_after(std::size_t p) const noexcept {
    std::size_t w = p >> 6;
    const std::uint64_t rest = bits_[w] >> (p & 63) >> 1;
    if (rest != 0) {
      return p + 1 + static_cast<std::size_t>(std::countr_zero(rest));
    }
    for (std::size_t sw = w >> 6; sw < summary_.size(); ++sw) {
      std::uint64_t s = summary_[sw];
      if (sw == (w >> 6)) {
        // Only summary bits for words strictly greater than w.
        const std::size_t k = w & 63;
        s = k == 63 ? 0 : s & (~std::uint64_t{0} << (k + 1));
      }
      if (s == 0) continue;
      const std::size_t nw =
          (sw << 6) + static_cast<std::size_t>(std::countr_zero(s));
      return (nw << 6) + static_cast<std::size_t>(std::countr_zero(bits_[nw]));
    }
    return SIZE_MAX;
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint64_t> summary_;
};

/// Head-of-line queue over shard-local job ids, with a backend chosen by
/// what the policy actually needs:
///  * kBitmap — FIFO never reorders (arrival order IS priority order), so
///    the live queue is an OrderedBitmap over local ids: O(1) push/remove,
///    O(1)-ish head, in-order scans for backfill. A job requeued after a
///    node-failure kill re-sets its bit, i.e. it rejoins at its submit-order
///    position — FIFO's priority order, like every other backend.
///    (Presorting the other policies' static priorities to reuse the bitmap
///    measured slower than a heap — the per-run O(n log n) sort costs more
///    than the heap ops it replaces.)
///  * kHeap — the ordered policies without backfill only ever pop the head
///    or re-push with a new priority (SRTF preemption), so a binary heap
///    with versioned lazy deletion beats a red-black tree.
///  * kSet — backfill under an ordered policy needs ordered traversal
///    behind the head, which only the set supports.
class PolicyQueue {
 public:
  PolicyQueue(SchedulerPolicy policy, bool backfill)
      : backend_(policy == SchedulerPolicy::kFifo
                     ? Backend::kBitmap
                     : (backfill ? Backend::kSet : Backend::kHeap)) {}

  void init(std::size_t n) {
    queued_.assign(n, false);
    switch (backend_) {
      case Backend::kBitmap:
        bitmap_.reserve(n);
        break;
      case Backend::kHeap:
        version_.assign(n, 0);
        keys_.resize(n);
        break;
      case Backend::kSet:
        keys_.resize(n);
        break;
    }
  }

  void push(const QueueKey& key) {
    queued_[key.local] = true;
    ++live_;
    switch (backend_) {
      case Backend::kBitmap:
        bitmap_.set(key.local);
        break;
      case Backend::kHeap: {
        keys_[key.local] = key;
        HeapEntry e;
        e.key = key;
        e.version = version_[key.local];
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), HeapGreater{});
        break;
      }
      case Backend::kSet:
        keys_[key.local] = key;
        set_.insert(key);
        break;
    }
  }

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Local id of the highest-priority queued job; call only when !empty().
  [[nodiscard]] std::size_t head() {
    switch (backend_) {
      case Backend::kBitmap:
        return bitmap_.first();
      case Backend::kHeap:
        while (!queued_[heap_.front().key.local] ||
               heap_.front().version != version_[heap_.front().key.local]) {
          std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{});
          heap_.pop_back();
        }
        return heap_.front().key.local;
      case Backend::kSet:
        return set_.begin()->local;
    }
    return 0;  // unreachable
  }

  /// Does queued job `a` outrank queued job `b`?
  [[nodiscard]] bool before(std::size_t a, std::size_t b) const noexcept {
    if (backend_ == Backend::kBitmap) {
      return a < b;  // FIFO: local id order is arrival order
    }
    return keys_[a] < keys_[b];
  }

  void remove(std::size_t local) {
    queued_[local] = false;
    --live_;
    switch (backend_) {
      case Backend::kBitmap:
        bitmap_.clear(local);
        break;
      case Backend::kHeap:
        ++version_[local];  // lazy: head() drops stale entries
        break;
      case Backend::kSet:
        set_.erase(keys_[local]);
        break;
    }
  }

  /// Visits queued jobs after the head in priority order until `fn` returns
  /// false. `fn` may remove() the visited entry (and only that entry). Only
  /// the backfill pass scans, so the heap backend never reaches this.
  template <typename Fn>
  void scan_behind_head(Fn&& fn) {
    if (backend_ == Backend::kBitmap) {
      for (std::size_t p = bitmap_.next_after(bitmap_.first());
           p != SIZE_MAX; p = bitmap_.next_after(p)) {
        if (!fn(p)) return;
      }
    } else {
      for (auto it = std::next(set_.begin()); it != set_.end();) {
        const std::size_t lj = it->local;
        ++it;  // advance first: fn may erase the visited entry
        if (!fn(lj)) return;
      }
    }
  }

 private:
  enum class Backend { kBitmap, kHeap, kSet };

  struct HeapEntry {
    QueueKey key;
    std::uint32_t version = 0;
  };
  struct HeapGreater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      return b.key < a.key;  // min-heap on the full (unique) key
    }
  };

  Backend backend_;
  std::size_t live_ = 0;
  std::vector<char> queued_;
  OrderedBitmap bitmap_;
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> version_;  ///< bumped per remove (kHeap)
  std::set<QueueKey> set_;
  std::vector<QueueKey> keys_;  ///< last pushed key per local id (kSet/kHeap)
};

/// Multiset of queued GPU demands on a counting array: O(1) insert, O(1)
/// amortized erase with a lazily advanced minimum. Demands above the VC
/// capacity share the top bucket (they reject at the head anyway and must
/// never look smaller than a real demand).
class DemandTracker {
 public:
  void init(int capacity) {
    counts_.assign(static_cast<std::size_t>(capacity) + 2, 0);
    min_ = static_cast<int>(counts_.size()) - 1;
    size_ = 0;
  }

  void insert(int g) {
    g = clamp(g);
    ++counts_[static_cast<std::size_t>(g)];
    ++size_;
    min_ = std::min(min_, g);
  }

  void erase(int g) {
    g = clamp(g);
    --counts_[static_cast<std::size_t>(g)];
    --size_;
    if (size_ == 0) {
      min_ = static_cast<int>(counts_.size()) - 1;
      return;
    }
    while (counts_[static_cast<std::size_t>(min_)] == 0) ++min_;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Smallest queued demand; call only when !empty().
  [[nodiscard]] int min() const noexcept { return min_; }

 private:
  [[nodiscard]] int clamp(int g) const noexcept {
    return std::min(g, static_cast<int>(counts_.size()) - 1);
  }

  std::vector<std::int32_t> counts_;
  int min_ = 0;
  std::size_t size_ = 0;
};

/// The one VcSimulator: the shard's state and its resumable event loop.
class Shard final : public VcSimulator {
 public:
  Shard(const trace::ClusterSpec& spec, int vc, const SimConfig& config,
        UnixTime window_begin, const Trace& t,
        const std::vector<std::size_t>& arrivals,
        std::vector<JobOutcome>& outcomes)
      : state_(spec.vcs[static_cast<std::size_t>(vc)]),
        config_(&config),
        trace_(&t),
        arrivals_(&arrivals),
        outcomes_(&outcomes),
        n_(arrivals.size()),
        srtf_(config.policy == SchedulerPolicy::kSrtf),
        fifo_(config.policy == SchedulerPolicy::kFifo),
        queue_(config.policy, config.backfill),
        seg_start_(window_begin),
        seg_active_(state_.active_nodes()),
        seg_watts_(baseline_watts()) {
    if (config.power_cap_watts > 0.0) {
      // Budget-constrained admission: VCs never talk to each other, so the
      // cluster cap splits into capacity-proportional per-VC shares. The
      // shares sum to the cap, so per-VC enforcement implies the
      // cluster-wide bound.
      std::int64_t total_gpus = 0;
      for (const auto& v : spec.vcs) {
        total_gpus += static_cast<std::int64_t>(v.nodes) * v.gpus_per_node;
      }
      if (total_gpus > 0) {
        cap_share_ = config.power_cap_watts *
                     static_cast<double>(state_.capacity_gpus()) /
                     static_cast<double>(total_gpus);
      }
    }
    if (config.fault_plan == nullptr) return;
    const auto events = config.fault_plan->vc_events(vc);
    if (events.empty()) return;
    const int n_nodes = state_.node_count();
    // internal_of[p]: shard node id of physical node p. Nodes within a VC
    // are homogeneous, so SimConfig::node_order only re-labels ids — rank k
    // maps to internal id k, which the consolidating allocator fills first.
    // Fault events name physical nodes and are translated here once.
    std::vector<std::int32_t> internal_of;
    if (static_cast<std::size_t>(vc) < config.node_order.size()) {
      const auto& order = config.node_order[static_cast<std::size_t>(vc)];
      if (static_cast<int>(order.size()) == n_nodes) {
        internal_of.assign(static_cast<std::size_t>(n_nodes), -1);
        for (int k = 0; k < n_nodes; ++k) {
          const std::int32_t p = order[static_cast<std::size_t>(k)];
          if (p < 0 || p >= n_nodes ||
              internal_of[static_cast<std::size_t>(p)] >= 0) {
            internal_of.clear();  // not a permutation: fall back to id order
            break;
          }
          internal_of[static_cast<std::size_t>(p)] = k;
        }
      }
    }
    faults_.reserve(events.size());
    for (const NodeFaultEvent& e : events) {
      if (e.node < 0 || e.node >= n_nodes) continue;
      NodeFaultEvent local = e;
      if (!internal_of.empty()) {
        local.node = internal_of[static_cast<std::size_t>(e.node)];
      }
      faults_.push_back(local);
    }
  }

  void advance(std::int64_t until) override {
    if (!started_) build_jobs();
    PowerController* const controller = config_->power_controller;
    for (;;) {
      const std::int64_t now = next_event_time();
      if (now == kNever && until == kNever) release_loop_state();
      if (now == kNever || now > until) {
        next_event_ = now;
        return;
      }

      bool need_schedule = false;
      // 1) completions at `now` (before placements: free before place).
      while (!finishes_.empty() && finishes_.top().time <= now) {
        const FinishEvent f = finishes_.top();
        finishes_.pop();
        if (runs_[f.slot].generation != f.generation) continue;
        const RunningJob& r = stop_run(f.slot);
        state_.release(r.alloc);
        outcome(r.local).end = now;
        need_schedule = true;  // freed GPUs invalidate the blocked-head memo
      }
      // 1b) boot completions make woken nodes schedulable.
      const auto boot = state_.next_boot_ready();
      if (boot && *boot <= now) {
        state_.finish_boots(now);
        need_schedule = true;
      }
      // 1c) node failures / recoveries at `now`. Recoveries sort before
      // failures at equal times (fault_plan.cpp), so a node that flaps in
      // the same second ends the second down. Killed jobs requeue before the
      // scheduling pass and compete under the policy's normal order.
      while (next_fault_ < faults_.size() && faults_[next_fault_].time <= now) {
        const NodeFaultEvent ev = faults_[next_fault_];
        ++next_fault_;
        if (ev.recovery) {
          state_.recover_node(ev.node);
        } else {
          kill_runs_on_node(ev.node, now);
          state_.fail_node(ev.node);
          ++counters_.failures;
        }
        need_schedule = true;
      }
      // 2) arrivals at `now`; the controller sees each before it is queued.
      while (next_arrival_ < n_ && jobs_[next_arrival_].submit <= now) {
        const std::size_t lj = next_arrival_;
        ++next_arrival_;
        if (controller != nullptr) controller->on_arrival(*this, outcome(lj), now);
        enqueue(lj);
        if (!need_schedule && head_blocked_) {
          // Queue growth behind a blocked head: schedule only if this job
          // outranks the head (FIFO arrivals never do) or backfill could
          // place it on the leftover GPUs.
          const bool outranks = !fifo_ && queue_.before(lj, blocked_local_);
          const bool backfillable =
              config_->backfill && jobs_[lj].gpus <= state_.free_gpus();
          if (outranks || backfillable) need_schedule = true;
        } else {
          need_schedule = true;
        }
      }
      // 3) scheduling pass, then extend or flush the busy segment.
      if (need_schedule) schedule(now);
      flush_segment(now);
    }
  }

  // Close the trailing segment: it runs to the sentinel, and the
  // orchestrator clamps it to the series window.
  Counters finish() override {
    segments_.push_back(
        {seg_start_, kNever, seg_nodes_, seg_gpus_, seg_active_, seg_watts_});
    return counters_;
  }

  [[nodiscard]] const std::vector<BusySegment>& segments() const noexcept override {
    return segments_;
  }
  [[nodiscard]] const ClusterState& state() const noexcept override {
    return state_;
  }
  [[nodiscard]] std::int64_t next_event() const noexcept override {
    return next_event_;
  }
  int wake_nodes(int count, std::int64_t now, std::int64_t boot_delay) override {
    const int woken = state_.wake_nodes(count, now, boot_delay);
    if (woken > 0) next_event_ = std::min(next_event_, now + boot_delay);
    return power_transition(woken, now);
  }
  int sleep_idle_nodes(int count, std::int64_t now) override {
    return power_transition(state_.sleep_idle_nodes(count), now);
  }

 private:
  static constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

  [[nodiscard]] JobOutcome& outcome(std::size_t lj) {
    return (*outcomes_)[(*arrivals_)[lj]];
  }
  [[nodiscard]] double baseline_watts() const noexcept {
    return state_.baseline_watts(config_->power_profile);
  }
  // Nothing can happen any more: free the per-job loop state before the
  // orchestrator merges, so shards that finish early return their memory to
  // the ones still running (only the segments and counters are read later).
  void release_loop_state() {
    jobs_ = decltype(jobs_)();
    runs_ = decltype(runs_)();
    free_slots_ = decltype(free_slots_)();
    finishes_ = decltype(finishes_)();
    active_slots_ = decltype(active_slots_)();
    active_pos_ = decltype(active_pos_)();
    queue_ = PolicyQueue(config_->policy, config_->backfill);
    queued_gpus_ = DemandTracker();
  }

  // A power transition clears the blocked-head memo and splits the segment.
  int power_transition(int nodes, std::int64_t now) {
    if (nodes > 0) {
      head_blocked_ = false;
      flush_segment(now);
    }
    return nodes;
  }

  // Dense local copies of the fields the loop touches per event, built on
  // the first advance so priority_fn / gpu_watts_fn run on the shard's
  // worker. `per_gpu_watts` is the job's running draw per GPU, which bills
  // its energy.
  void build_jobs() {
    started_ = true;
    auto per_gpu_watts = [&](const JobRecord& j) -> double {
      return config_->gpu_watts_fn ? config_->gpu_watts_fn(j)
                                   : config_->power_profile.gpu_watts;
    };
    auto base_priority = [&](const JobRecord& j) -> double {
      switch (config_->policy) {
        case SchedulerPolicy::kFifo:
          return 0.0;  // submit-time tie-break gives FIFO order
        case SchedulerPolicy::kSjf:
        case SchedulerPolicy::kSrtf:
          return static_cast<double>(j.duration);
        case SchedulerPolicy::kQssf:
          return config_->priority_fn
                     ? config_->priority_fn(j)
                     : static_cast<double>(j.duration) * j.num_gpus;
      }
      return 0.0;
    };
    jobs_.resize(n_);
    for (std::size_t lj = 0; lj < n_; ++lj) {
      const JobOutcome& o = outcome(lj);
      const JobRecord& j = trace_->jobs()[o.trace_index];
      LocalJob& job = jobs_[lj];
      job.submit = o.submit;
      job.total = std::max<std::int32_t>(1, j.duration);
      job.remaining = job.total;
      job.trace_index = o.trace_index;
      job.gpus = o.gpus;
      job.watts = per_gpu_watts(j) * j.num_gpus;
      job.priority = base_priority(j);
    }
    queue_.init(n_);
    queued_gpus_.init(state_.capacity_gpus());
    segments_.reserve(2 * n_ + 2);
  }

  // Fault events keep the loop alive only while jobs are queued: a recovery
  // may be the event that unblocks them. With nothing queued and nothing
  // running, remaining fault events cannot affect any outcome or busy count,
  // so they are skipped (deterministically) and the queued jobs that never
  // ran surface as SimResult::unfinished_jobs. Pending boots keep it alive.
  [[nodiscard]] std::int64_t next_event_time() {
    const auto boot = state_.next_boot_ready();
    if (!(next_arrival_ < n_ || !finishes_.empty() || boot ||
          (next_fault_ < faults_.size() && !queue_.empty()))) {
      return kNever;
    }
    // Drain stale finish events.
    while (!finishes_.empty()) {
      const FinishEvent& f = finishes_.top();
      if (runs_[f.slot].generation == f.generation) break;
      finishes_.pop();
    }
    std::int64_t t = boot ? *boot : kNever;
    if (next_arrival_ < n_) t = std::min(t, jobs_[next_arrival_].submit);
    if (!finishes_.empty()) t = std::min(t, finishes_.top().time);
    if (next_fault_ < faults_.size()) t = std::min(t, faults_[next_fault_].time);
    return t;
  }

  // Busy/power accounting: coalesce events that leave the busy counters, the
  // powered nodes and the VC draw unchanged into one segment; flushed
  // whenever any of them moves. Power includes the idle node baseline, so
  // idle stretches produce segments too (the busy integrators ignore their
  // zero counts; all-zero segments add nothing anywhere). A second flush at
  // the same instant only updates the open segment's values.
  void flush_segment(std::int64_t now) {
    const auto bn = static_cast<std::int32_t>(state_.busy_nodes());
    const auto bg = static_cast<std::int32_t>(state_.busy_gpus());
    const auto ba = static_cast<std::int32_t>(state_.active_nodes());
    const double bw = baseline_watts() + run_watts_;
    if (bn == seg_nodes_ && bg == seg_gpus_ && ba == seg_active_ &&
        bw == seg_watts_) {
      return;
    }
    if (now > seg_start_) {
      segments_.push_back(
          {seg_start_, now, seg_nodes_, seg_gpus_, seg_active_, seg_watts_});
    }
    seg_start_ = now;
    seg_nodes_ = bn;
    seg_gpus_ = bg;
    seg_active_ = ba;
    seg_watts_ = bw;
  }

  // Budget-constrained admission: may the projected VC draw grow by
  // `extra_watts` without crossing this VC's share of the cluster cap? Power
  // changes only on starts, completions, kills, and node power-state
  // transitions — the exact events that already invalidate the blocked-head
  // memo, so the memo argument is unchanged by this gate.
  [[nodiscard]] bool power_allows(double extra_watts) const {
    if (cap_share_ <= 0.0) return true;
    return baseline_watts() + run_watts_ + extra_watts <= cap_share_;
  }

  // Stop the run in `slot`: its pending finish event goes stale, its draw
  // leaves the VC total, and the slot returns to the free list. The caller
  // releases (or has released) its GPUs.
  const RunningJob& stop_run(std::size_t slot) {
    RunningJob& r = runs_[slot];
    ++r.generation;
    run_watts_ -= r.watts;
    const std::size_t pos = active_pos_[slot];
    const std::size_t back = active_slots_.back();
    active_slots_[pos] = back;
    active_pos_[back] = pos;
    active_slots_.pop_back();
    active_pos_[slot] = SIZE_MAX;
    free_slots_.push_back(slot);
    return r;
  }

  void enqueue(std::size_t lj) {
    const LocalJob& job = jobs_[lj];
    queue_.push({job.priority, job.submit, lj});
    queued_gpus_.insert(job.gpus);
  }
  void dequeue(std::size_t lj) {
    queue_.remove(lj);
    queued_gpus_.erase(jobs_[lj].gpus);
  }

  void start_job(std::size_t lj, Allocation alloc, std::int64_t now) {
    JobOutcome& o = outcome(lj);
    if (o.start == trace::kNeverStarted) o.start = now;
    LocalJob& job = jobs_[lj];
    if (job.start_seq == kNotStarted) job.start_seq = starts_++;
    std::size_t slot;
    if (free_slots_.empty()) {
      slot = runs_.size();
      runs_.emplace_back();
      active_pos_.push_back(SIZE_MAX);
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    RunningJob& r = runs_[slot];
    r.local = lj;
    r.alloc = std::move(alloc);
    r.run_start = now;
    r.remaining = job.remaining;
    r.watts = job.watts;
    r.start_seq = job.start_seq;
    run_watts_ += r.watts;
    active_pos_[slot] = active_slots_.size();
    active_slots_.push_back(slot);
    finishes_.push({now + runs_[slot].remaining, slot, runs_[slot].generation});
  }

  // Kill every active run holding GPUs on a failing node: the whole gang
  // releases (all-or-nothing placement dies with any of its nodes) and the
  // job requeues under the configured restart semantics. Victims are killed
  // in first-start order — a fixed order, so sharded and serial replays
  // enqueue requeued jobs identically.
  void kill_runs_on_node(int node, std::int64_t now) {
    std::vector<std::size_t> victims;
    for (std::size_t s : active_slots_) {
      for (auto [ni, g] : runs_[s].alloc.node_gpus) {
        if (ni == node) {
          victims.push_back(s);
          break;
        }
      }
    }
    std::sort(victims.begin(), victims.end(),
              [&](std::size_t a, std::size_t b) {
                return runs_[a].start_seq < runs_[b].start_seq;
              });
    for (std::size_t s : victims) {
      const RunningJob& r = stop_run(s);
      state_.release(r.alloc);
      const std::size_t plj = r.local;
      jobs_[plj].remaining =
          config_->restart == FaultRestart::kResume
              ? std::max<std::int64_t>(1, r.remaining - (now - r.run_start))
              : jobs_[plj].total;
      if (srtf_) jobs_[plj].priority = static_cast<double>(jobs_[plj].remaining);
      enqueue(plj);
      ++counters_.kills;
      ++outcome(plj).kills;
    }
  }

  // Schedules the VC at time `now`: strict head-of-line by priority
  // (Algorithm 1: stop at the first job that does not fit), plus greedy
  // backfill when configured.
  void schedule(std::int64_t now) {
    head_blocked_ = false;
    while (!queue_.empty()) {
      const std::size_t lj = queue_.head();
      const LocalJob& job = jobs_[lj];
      if (!state_.can_ever_fit(job.gpus)) {
        JobOutcome& o = outcome(lj);
        o.rejected = true;
        o.start = o.submit;
        o.end = o.submit;
        ++counters_.rejected;
        dequeue(lj);
        continue;
      }
      // Budget-constrained admission: a head over the power budget waits
      // exactly like a head that does not fit — it neither places nor hunts
      // for SRTF preemption victims (preempting to make power headroom would
      // trade running work for queued work under the same cap; the gate is
      // checked up front so a power-blocked head leaves the run set alone).
      const bool power_ok = power_allows(job.watts);
      auto alloc =
          power_ok ? state_.try_allocate(job.gpus) : std::optional<Allocation>{};
      if (!alloc && srtf_ && power_ok) {
        // Preempt running jobs with strictly larger remaining time, largest
        // first, until the head fits; roll back if it never does.
        const std::int64_t head_rem = job.remaining;
        std::vector<std::size_t> candidates;
        for (std::size_t s : active_slots_) {
          const std::int64_t rem = runs_[s].remaining - (now - runs_[s].run_start);
          if (rem > head_rem) candidates.push_back(s);
        }
        std::sort(candidates.begin(), candidates.end(),
                  [&](std::size_t a, std::size_t b) {
                    const std::int64_t ra = runs_[a].remaining - (now - runs_[a].run_start);
                    const std::int64_t rb = runs_[b].remaining - (now - runs_[b].run_start);
                    if (ra != rb) return ra > rb;
                    return runs_[a].start_seq < runs_[b].start_seq;
                  });
        std::vector<std::size_t> freed;
        for (std::size_t s : candidates) {
          state_.release(runs_[s].alloc);
          freed.push_back(s);
          alloc = state_.try_allocate(job.gpus);
          if (alloc) break;
        }
        if (alloc) {
          for (std::size_t s : freed) {
            const RunningJob& r = stop_run(s);
            const std::size_t plj = r.local;
            jobs_[plj].remaining =
                std::max<std::int64_t>(1, r.remaining - (now - r.run_start));
            jobs_[plj].priority = static_cast<double>(jobs_[plj].remaining);
            enqueue(plj);
            ++counters_.preemptions;
          }
        } else {
          for (auto it = freed.rbegin(); it != freed.rend(); ++it) {
            state_.reclaim(runs_[*it].alloc);
          }
        }
      }
      if (!alloc) {
        if (config_->power_controller != nullptr) {
          config_->power_controller->on_blocked_head(*this, outcome(lj), now);
        }
        if (config_->backfill && !queued_gpus_.empty() &&
            queued_gpus_.min() <= state_.free_gpus()) {
          // Greedy backfill: start any later queued job that fits right now.
          int scanned = 0;
          queue_.scan_behind_head([&](std::size_t blj) {
            if (scanned >= config_->backfill_depth) return false;
            ++scanned;
            // Power-proportional backfill: candidates start only while the
            // projected draw stays under the cap; over-budget candidates are
            // skipped, not blocking the ones behind them.
            if (!power_allows(jobs_[blj].watts)) return true;
            auto balloc = state_.try_allocate(jobs_[blj].gpus);
            if (balloc) {
              start_job(blj, std::move(*balloc), now);
              dequeue(blj);
              // Placements shrink the free pool; bail once nothing left fits.
              if (queued_gpus_.empty() ||
                  queued_gpus_.min() > state_.free_gpus()) {
                return false;
              }
            }
            return true;
          });
        }
        head_blocked_ = true;
        blocked_local_ = lj;
        break;
      }
      dequeue(lj);
      start_job(lj, std::move(*alloc), now);
    }
  }

  ClusterState state_;
  std::vector<BusySegment> segments_;
  const SimConfig* config_;
  const Trace* trace_;
  const std::vector<std::size_t>* arrivals_;
  std::vector<JobOutcome>* outcomes_;
  const std::size_t n_;
  const bool srtf_;
  const bool fifo_;  ///< FIFO order: arrivals never outrank a blocked head
  /// This VC's capacity-proportional share of SimConfig::power_cap_watts;
  /// <= 0 when admission is uncapped.
  double cap_share_ = 0.0;
  /// This VC's fault events, time-sorted, with `node` already translated to
  /// the shard's internal node ids (the node_order permutation).
  std::vector<NodeFaultEvent> faults_;
  bool started_ = false;
  Counters counters_;

  std::vector<LocalJob> jobs_;
  std::uint32_t starts_ = 0;  ///< jobs started at least once
  PolicyQueue queue_;
  /// GPU demands of every queued job; min() lets a backfill pass bail out
  /// O(1) when nothing queued can possibly fit.
  DemandTracker queued_gpus_;
  std::vector<RunningJob> runs_;
  std::vector<std::size_t> free_slots_;  ///< stopped runs_, reused LIFO
  std::priority_queue<FinishEvent, std::vector<FinishEvent>, std::greater<>>
      finishes_;
  /// Active-run list (swap-remove): SRTF preemption scans only live runs,
  /// not every slot ever created.
  std::vector<std::size_t> active_slots_;
  std::vector<std::size_t> active_pos_;  ///< per slot, SIZE_MAX if idle
  double run_watts_ = 0.0;  ///< per-GPU draws of the active runs, summed

  /// The open busy segment: values since seg_start_.
  std::int64_t seg_start_;
  std::int32_t seg_nodes_ = 0;
  std::int32_t seg_gpus_ = 0;
  std::int32_t seg_active_;
  double seg_watts_;

  /// Blocked-head memo: after a scheduling pass ends with an unplaceable
  /// head, re-running it is provably a no-op until either the state changes
  /// (a completion, preemption, start, or power transition) or a new job
  /// outranks the blocked head. Arrivals that merely grow the queue behind a
  /// blocked head skip the pass entirely — under FIFO that is every arrival
  /// while the head waits. (For SRTF, remaining times of running jobs only
  /// shrink as time advances, so the preemptable set never grows while the
  /// state is untouched. A PowerController's blocked-head hook reads only
  /// the power state, which no skipped pass can have seen change.)
  bool head_blocked_ = false;
  std::size_t blocked_local_ = 0;
  std::size_t next_arrival_ = 0;
  std::size_t next_fault_ = 0;
  /// Earliest pending event as of the last advance() (or wake); the first
  /// advance must run, so it starts at the minimum.
  std::int64_t next_event_ = std::numeric_limits<std::int64_t>::min();
};

}  // namespace

std::unique_ptr<VcSimulator> VcSimulator::create(
    const trace::ClusterSpec& spec, int vc, const SimConfig& config,
    UnixTime window_begin, const Trace& t,
    const std::vector<std::size_t>& arrivals, std::vector<JobOutcome>& outcomes) {
  return std::make_unique<Shard>(spec, vc, config, window_begin, t, arrivals,
                                 outcomes);
}

}  // namespace helios::sim
