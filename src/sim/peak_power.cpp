#include "sim/peak_power.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

namespace helios::sim {

namespace {

constexpr UnixTime kNoEdge = std::numeric_limits<UnixTime>::max();

/// One VC's power edges in log order: the +watts open edge and then the
/// -watts close edge of every segment whose clamped interval is non-empty
/// and whose draw is nonzero.
class EdgeCursor {
 public:
  EdgeCursor(std::span<const BusySegment> log, UnixTime begin, UnixTime end)
      : seg_(log.data()), last_(log.data() + log.size()), begin_(begin),
        end_(end) {
    seek_open();
  }

  [[nodiscard]] UnixTime time() const noexcept { return time_; }
  [[nodiscard]] double delta() const noexcept { return delta_; }

  void next() {
    if (open_) {
      open_ = false;
      time_ = std::min(seg_->t1, end_);
      delta_ = -seg_->watts;
    } else {
      ++seg_;
      seek_open();
    }
  }

 private:
  // Position on the next billable segment's open edge, or past the end.
  void seek_open() {
    for (; seg_ != last_; ++seg_) {
      const UnixTime t0 = std::max(seg_->t0, begin_);
      if (std::min(seg_->t1, end_) > t0 && seg_->watts != 0.0) {
        open_ = true;
        time_ = t0;
        delta_ = seg_->watts;
        return;
      }
    }
    time_ = kNoEdge;
  }

  const BusySegment* seg_;
  const BusySegment* last_;
  UnixTime begin_;
  UnixTime end_;
  UnixTime time_ = kNoEdge;
  double delta_ = 0.0;
  bool open_ = false;
};

/// (next edge time, VC); the lexicographic order puts equal times in VC
/// order.
using Head = std::pair<UnixTime, std::size_t>;

/// Restore the min-heap property after heads[0] changed.
void sift_down(std::vector<Head>& heads) {
  const Head top = heads[0];
  std::size_t i = 0;
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heads.size()) break;
    if (child + 1 < heads.size() && heads[child + 1] < heads[child]) ++child;
    if (!(heads[child] < top)) break;
    heads[i] = heads[child];
    i = child;
  }
  heads[i] = top;
}

}  // namespace

std::vector<double> peak_power_series(
    std::span<const std::span<const BusySegment>> logs, UnixTime begin,
    UnixTime end, std::int64_t step) {
  std::vector<double> peak(static_cast<std::size_t>(
                               std::max<std::int64_t>(1, (end - begin + step - 1) / step)),
                           0.0);
  std::vector<EdgeCursor> cursors;
  cursors.reserve(logs.size());
  std::vector<Head> heads;  // min-heap over the VCs with edges left
  heads.reserve(logs.size());
  for (std::size_t v = 0; v < logs.size(); ++v) {
    cursors.emplace_back(logs[v], begin, end);
    if (cursors.back().time() != kNoEdge) heads.emplace_back(cursors.back().time(), v);
  }
  std::make_heap(heads.begin(), heads.end(), std::greater<>{});

  double cur = 0.0;
  std::size_t b = 0;
  while (!heads.empty()) {
    const UnixTime t = heads.front().first;
    while (b + 1 < peak.size() &&
           t >= begin + static_cast<UnixTime>(b + 1) * step) {
      ++b;
      peak[b] = std::max(peak[b], cur);  // draw carries across the boundary
    }
    // Apply every edge of this instant before sampling: VCs in order, each
    // VC's edges in log order. The top VC's next edge is strictly later, so
    // it sinks behind every VC still due at `t`.
    while (!heads.empty() && heads.front().first == t) {
      EdgeCursor& c = cursors[heads.front().second];
      do {
        cur += c.delta();
        c.next();
      } while (c.time() == t);
      if (c.time() != kNoEdge) {
        heads.front().first = c.time();
      } else {
        heads.front() = heads.back();
        heads.pop_back();
      }
      if (!heads.empty()) sift_down(heads);
    }
    peak[b] = std::max(peak[b], cur);
  }
  return peak;
}

}  // namespace helios::sim
