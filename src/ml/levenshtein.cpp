#include "ml/levenshtein.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "serialize/binary.h"

namespace helios::ml {

std::size_t levenshtein(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);  // a is the shorter string
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  if (m == 0) return n;
  std::vector<std::size_t> row(m + 1);
  for (std::size_t i = 0; i <= m; ++i) row[i] = i;
  for (std::size_t j = 1; j <= n; ++j) {
    std::size_t prev_diag = row[0];
    row[0] = j;
    for (std::size_t i = 1; i <= m; ++i) {
      const std::size_t cur = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1,
                         prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      prev_diag = cur;
    }
  }
  return row[m];
}

double normalized_levenshtein(std::string_view a, std::string_view b) {
  const std::size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  return static_cast<double>(levenshtein(a, b)) / static_cast<double>(longest);
}

bool within_distance(std::string_view a, std::string_view b, std::size_t limit) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const std::size_t diff = m > n ? m - n : n - m;
  if (diff > limit) return false;
  if (limit == 0) return a == b;
  if (m > n) std::swap(a, b);
  // Banded DP: only cells within `limit` of the diagonal can stay <= limit.
  const std::size_t sm = a.size();
  const std::size_t sn = b.size();
  constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max() / 2;
  std::vector<std::size_t> row(sm + 1, kInf);
  for (std::size_t i = 0; i <= std::min(sm, limit); ++i) row[i] = i;
  for (std::size_t j = 1; j <= sn; ++j) {
    const std::size_t lo = j > limit ? j - limit : 0;
    const std::size_t hi = std::min(sm, j + limit);
    std::size_t prev_diag = row[lo > 0 ? lo - 1 : 0];
    std::size_t new_low = kInf;
    if (lo == 0) {
      prev_diag = row[0];
      row[0] = j;
      new_low = row[0];
    } else {
      row[lo - 1] = kInf;
    }
    bool any_le = lo == 0 && row[0] <= limit;
    for (std::size_t i = std::max<std::size_t>(lo, 1); i <= hi; ++i) {
      const std::size_t cur = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1,
                         prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      prev_diag = cur;
      any_le |= row[i] <= limit;
    }
    (void)new_low;
    if (!any_le) return false;  // whole band exceeded the limit
  }
  return row[sm] <= limit;
}

std::uint32_t NameBucketizer::find_nearest(std::string_view name) const {
  std::uint32_t best = kNoBucket;
  double best_dist = threshold_;
  auto consider = [&](std::uint32_t i) {
    const std::string& rep = representatives_[i];
    const auto limit = static_cast<std::size_t>(
        std::floor(threshold_ * static_cast<double>(std::max(rep.size(), name.size()))));
    if (!within_distance(rep, name, limit)) return;
    const double d = normalized_levenshtein(rep, name);
    if (d <= best_dist) {
      best_dist = d;
      best = i;
    }
  };
  if (prefix_len_ > 0) {
    const auto it = by_prefix_.find(prefix_key(name));
    if (it != by_prefix_.end()) {
      for (std::uint32_t i : it->second) consider(i);
    }
  } else {
    for (std::uint32_t i = 0; i < representatives_.size(); ++i) consider(i);
  }
  return best;
}

std::uint32_t NameBucketizer::bucket(std::string_view name) {
  const auto it = exact_.find(std::string(name));
  if (it != exact_.end()) return it->second;
  std::uint32_t id = find_nearest(name);
  if (id == kNoBucket) {
    id = static_cast<std::uint32_t>(representatives_.size());
    representatives_.emplace_back(name);
    if (prefix_len_ > 0) by_prefix_[prefix_key(name)].push_back(id);
  }
  exact_.emplace(name, id);
  return id;
}

std::uint32_t NameBucketizer::lookup(std::string_view name) const {
  const auto it = exact_.find(std::string(name));
  if (it != exact_.end()) return it->second;
  return find_nearest(name);
}

namespace {
constexpr std::uint32_t kBucketizerTag = serialize::fourcc("NBKT");
constexpr std::uint32_t kBucketizerVersion = 1;
}  // namespace

void NameBucketizer::save(serialize::Writer& w) const {
  w.begin_section(kBucketizerTag);
  w.u32(kBucketizerVersion);
  w.f64(threshold_);
  w.u64(prefix_len_);
  w.u64(representatives_.size());
  for (const std::string& rep : representatives_) w.str(rep);
  // Memoized assignments in sorted order: the bytes are canonical however
  // the unordered map happens to hash.
  std::vector<std::pair<std::string_view, std::uint32_t>> memo(exact_.begin(),
                                                               exact_.end());
  std::sort(memo.begin(), memo.end());
  w.u64(memo.size());
  for (const auto& [name, id] : memo) {
    w.str(name);
    w.u32(id);
  }
  w.end_section();
}

void NameBucketizer::load(serialize::Reader& r) {
  serialize::Reader s = r.section(kBucketizerTag);
  const std::uint32_t version = s.u32();
  if (version != kBucketizerVersion) {
    throw serialize::Error(
        serialize::ErrorCode::kUnsupportedVersion,
        "bucketizer section version " + std::to_string(version));
  }
  const double threshold = s.f64();
  // find_nearest converts threshold × name length to size_t, which is
  // undefined for a negative or NaN threshold; the distance it bounds lies
  // in [0, 1].
  if (!(threshold >= 0.0 && threshold <= 1.0)) {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           "bucketizer threshold outside [0, 1]");
  }
  const std::size_t prefix_len = static_cast<std::size_t>(s.u64());
  const std::size_t n_reps = s.length(8);
  std::vector<std::string> reps(n_reps);
  for (std::size_t i = 0; i < n_reps; ++i) reps[i] = s.str();
  const std::size_t n_memo = s.length(12);  // str length + u32 id
  std::unordered_map<std::string, std::uint32_t> memo;
  memo.reserve(n_memo);
  for (std::size_t i = 0; i < n_memo; ++i) {
    std::string name = s.str();
    const std::uint32_t id = s.u32();
    if (id >= n_reps) {
      throw serialize::Error(serialize::ErrorCode::kCorrupt,
                             "bucket id " + std::to_string(id) + " of " +
                                 std::to_string(n_reps));
    }
    memo.emplace(std::move(name), id);
  }
  s.close("bucketizer");

  threshold_ = threshold;
  prefix_len_ = prefix_len;
  representatives_ = std::move(reps);
  exact_ = std::move(memo);
  // The prefix index is derived state: rebuild it exactly as bucket() grew
  // it — bucket ids appended in founding order.
  by_prefix_.clear();
  if (prefix_len_ > 0) {
    for (std::uint32_t i = 0; i < representatives_.size(); ++i) {
      by_prefix_[prefix_key(representatives_[i])].push_back(i);
    }
  }
}

}  // namespace helios::ml
