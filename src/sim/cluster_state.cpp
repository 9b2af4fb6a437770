#include "sim/cluster_state.h"

#include <algorithm>

namespace helios::sim {

ClusterState::ClusterState(const trace::VCSpec& vc)
    : nodes_(static_cast<std::size_t>(vc.nodes),
             Node{vc.gpus_per_node, vc.gpus_per_node}),
      gpn_(vc.gpus_per_node),
      capacity_(vc.total_gpus()),
      sched_total_(capacity_),
      sched_free_(capacity_),
      by_free_(static_cast<std::size_t>(gpn_) + 1) {
  for (int ni = 0; ni < vc.nodes; ++ni) {
    by_free_[static_cast<std::size_t>(gpn_)].insert(ni);
  }
}

std::optional<Allocation> ClusterState::try_allocate(int gpus) {
  if (gpus <= 0 || gpus > sched_free_) return std::nullopt;

  Allocation alloc;
  if (gpus <= gpn_) {
    // Best-fit: the first non-empty free-count bucket >= gpus holds the nodes
    // with the fewest free GPUs that still fit; the lowest id among them is
    // what a linear scan would pick.
    for (int f = gpus; f <= gpn_; ++f) {
      const auto& bucket = by_free_[static_cast<std::size_t>(f)];
      if (!bucket.empty()) {
        alloc.node_gpus.emplace_back(bucket.front(), gpus);
        break;
      }
    }
    if (alloc.node_gpus.empty()) return std::nullopt;
  } else {
    // Multi-node gang: full nodes first, remainder best-fit.
    const int full_nodes = gpus / gpn_;
    const int rem = gpus % gpn_;
    const auto& fully_free = by_free_[static_cast<std::size_t>(gpn_)];
    if (static_cast<int>(fully_free.size()) < full_nodes) return std::nullopt;
    for (int k = 0; k < full_nodes; ++k) {
      alloc.node_gpus.emplace_back(fully_free.at(static_cast<std::size_t>(k)),
                                   gpn_);
    }
    if (rem > 0) {
      // The remainder must land on a node not already fully taken; the first
      // fully-free node past the picked prefix is the fallback.
      int best = -1;
      for (int f = rem; f < gpn_; ++f) {
        const auto& bucket = by_free_[static_cast<std::size_t>(f)];
        if (!bucket.empty()) {
          best = bucket.front();
          break;
        }
      }
      if (best < 0 &&
          static_cast<int>(fully_free.size()) > full_nodes) {
        best = fully_free.at(static_cast<std::size_t>(full_nodes));
      }
      if (best < 0) return std::nullopt;
      alloc.node_gpus.emplace_back(best, rem);
    }
  }

  apply(alloc, /*sign=*/-1);
  return alloc;
}

void ClusterState::apply(const Allocation& a, int sign) {
  for (auto [ni, g] : a.node_gpus) {
    Node& n = nodes_[static_cast<std::size_t>(ni)];
    const bool was_busy = n.busy();
    // Allocated nodes are always kActive (sleep only takes idle nodes, and
    // booting nodes are not schedulable), so the bucket move is unconditional.
    by_free_[static_cast<std::size_t>(n.free_gpus)].erase(ni);
    n.free_gpus += sign * g;
    by_free_[static_cast<std::size_t>(n.free_gpus)].insert(ni);
    sched_free_ += sign * g;
    busy_gpus_ -= sign * g;
    if (was_busy != n.busy()) busy_nodes_ += n.busy() ? 1 : -1;
  }
}

void ClusterState::release(const Allocation& a) { apply(a, /*sign=*/+1); }

void ClusterState::reclaim(const Allocation& a) { apply(a, /*sign=*/-1); }

int ClusterState::sleep_idle_nodes(int count) {
  auto& idle = by_free_[static_cast<std::size_t>(gpn_)];
  int slept = 0;
  for (; slept < count && !idle.empty(); ++slept) {
    const int ni = idle.front();
    idle.erase(ni);
    nodes_[static_cast<std::size_t>(ni)].power = PowerState::kSleeping;
    sched_total_ -= gpn_;
    sched_free_ -= gpn_;
    sleeping_.insert(ni);
  }
  return slept;
}

int ClusterState::wake_nodes(int count, std::int64_t now,
                             std::int64_t boot_delay) {
  int woken = 0;
  for (; woken < count && !sleeping_.empty(); ++woken) {
    const int ni = sleeping_.front();
    sleeping_.erase(ni);
    Node& n = nodes_[static_cast<std::size_t>(ni)];
    n.power = PowerState::kBooting;
    n.boot_ready = now + boot_delay;
    boot_queue_.emplace(n.boot_ready, ni);
  }
  return woken;
}

void ClusterState::finish_boots(std::int64_t now) {
  while (!boot_queue_.empty() && boot_queue_.begin()->first <= now) {
    const int ni = boot_queue_.begin()->second;
    boot_queue_.erase(boot_queue_.begin());
    Node& n = nodes_[static_cast<std::size_t>(ni)];
    n.power = PowerState::kActive;
    by_free_[static_cast<std::size_t>(n.free_gpus)].insert(ni);
    sched_total_ += n.total_gpus;
    sched_free_ += n.free_gpus;
  }
}

std::optional<std::int64_t> ClusterState::next_boot_ready() const noexcept {
  if (boot_queue_.empty()) return std::nullopt;
  return boot_queue_.begin()->first;
}

void ClusterState::fail_node(int ni) {
  Node& n = nodes_[static_cast<std::size_t>(ni)];
  switch (n.power) {
    case PowerState::kFailed:
      return;
    case PowerState::kActive:
      by_free_[static_cast<std::size_t>(n.free_gpus)].erase(ni);
      sched_total_ -= n.total_gpus;
      sched_free_ -= n.free_gpus;
      break;
    case PowerState::kSleeping:
      sleeping_.erase(ni);
      break;
    case PowerState::kBooting:
      boot_queue_.erase({n.boot_ready, ni});
      break;
  }
  n.power = PowerState::kFailed;
  ++failed_count_;
}

void ClusterState::recover_node(int ni) {
  Node& n = nodes_[static_cast<std::size_t>(ni)];
  if (n.power != PowerState::kFailed) return;
  --failed_count_;
  n.power = PowerState::kActive;
  n.free_gpus = n.total_gpus;  // repair returns the node empty
  by_free_[static_cast<std::size_t>(n.free_gpus)].insert(ni);
  sched_total_ += n.total_gpus;
  sched_free_ += n.free_gpus;
}

}  // namespace helios::sim
