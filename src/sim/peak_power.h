// Per-bucket peak of a cluster's instantaneous power draw, swept from the
// per-VC BusySegment logs of a simulator run.
//
// Each segment with nonzero watts, clamped to the window, contributes a
// +watts edge at its start and a -watts edge at its end. The sweep applies
// the edges in (time, VC, log order) — the order a stable sort by time of
// every VC's edges, gathered in VC order, produces — so the running draw
// visits the same partial sums, and every peak is the same double, on every
// run. A VC's log is contiguous and time-ordered, so its edges already come
// sorted: the sweep k-way merges one cursor per VC instead of gathering and
// sorting a cluster-wide edge vector.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/vc_simulator.h"

namespace helios::sim {

/// Peak draw per `step`-second bucket of [begin, end) (at least one bucket).
/// logs[v] is VC v's segment log, time-ordered. All edges at one instant are
/// applied before the draw is sampled, so a segment ending and another
/// starting at the same second never stack. A bucket boundary carries the
/// running draw into the next bucket; buckets after the final edge stay 0.
[[nodiscard]] std::vector<double> peak_power_series(
    std::span<const std::span<const BusySegment>> logs, UnixTime begin,
    UnixTime end, std::int64_t step);

}  // namespace helios::sim
