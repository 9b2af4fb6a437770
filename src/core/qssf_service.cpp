#include "core/qssf_service.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/civil_time.h"
#include "serialize/binary.h"

namespace helios::core {

using trace::JobRecord;
using trace::Trace;

ml::GBDTConfig QssfConfig::default_gbdt_config() {
  ml::GBDTConfig cfg;
  cfg.n_trees = 60;
  cfg.max_depth = 6;
  cfg.learning_rate = 0.12;
  cfg.min_samples_leaf = 30;
  cfg.subsample = 0.7;
  cfg.max_bins = 64;
  cfg.max_training_rows = 200'000;  // keeps multi-month fits to seconds
  return cfg;
}

// ---------------------------------------------------------------------------
// RollingEstimator
// ---------------------------------------------------------------------------

namespace {

/// Whether `x` lies in [0, 1]; false for NaN.
bool in_unit_interval(double x) { return x >= 0.0 && x <= 1.0; }

/// Why the rolling knobs are unusable, or nullptr. find_name converts
/// threshold × name length to size_t, which is undefined for a negative or
/// NaN threshold (the normalised distance it bounds lies in [0, 1]); the
/// decay weighs old against new durations, so outside [0, 1] the EWMAs go
/// negative or unbounded; and a zero name cap makes observe's eviction
/// erase the end of an empty list.
const char* rolling_knob_error(double name_match_threshold,
                               double rolling_decay,
                               std::size_t max_names_per_user) {
  if (!in_unit_interval(name_match_threshold)) {
    return "name_match_threshold outside [0, 1]";
  }
  if (!in_unit_interval(rolling_decay)) return "rolling_decay outside [0, 1]";
  if (max_names_per_user == 0) return "max_names_per_user is 0";
  return nullptr;
}

/// Why a QSSF config is unusable, or nullptr: the rolling knobs, plus λ,
/// which mixes the rolling and GBDT estimates (a NaN λ prices every job
/// NaN, and NaN is not an order the scheduler can sort by).
const char* qssf_knob_error(const QssfConfig& c) {
  if (!in_unit_interval(c.lambda)) return "lambda outside [0, 1]";
  return rolling_knob_error(c.name_match_threshold, c.rolling_decay,
                            c.max_names_per_user);
}

}  // namespace

RollingEstimator::RollingEstimator(const QssfConfig& config)
    : use_names_(config.use_names),
      name_match_threshold_(config.name_match_threshold),
      rolling_decay_(config.rolling_decay),
      max_names_per_user_(config.max_names_per_user) {
  if (const char* why = rolling_knob_error(
          name_match_threshold_, rolling_decay_, max_names_per_user_)) {
    throw std::invalid_argument(std::string("QssfConfig: ") + why);
  }
}

const RollingEstimator::NameEntry* RollingEstimator::find_name(
    const UserHistory& u, const std::string& name) const {
  const NameEntry* best = nullptr;
  double best_dist = name_match_threshold_;
  for (const auto& e : u.names) {
    if (e.name == name) return &e;  // exact hit wins immediately
    const auto limit = static_cast<std::size_t>(std::floor(
        name_match_threshold_ *
        static_cast<double>(std::max(e.name.size(), name.size()))));
    if (!ml::within_distance(e.name, name, limit)) continue;
    const double d = ml::normalized_levenshtein(e.name, name);
    if (d <= best_dist) {
      best_dist = d;
      best = &e;
    }
  }
  return best;
}

void RollingEstimator::observe(const Trace& t, const JobRecord& job) {
  if (!job.is_gpu_job()) return;
  const double dur = static_cast<double>(job.duration);
  ++observe_counter_;

  auto& g = global_by_gpus_[job.num_gpus];
  g.first += dur;
  ++g.second;
  global_duration_sum_ += dur;
  ++global_jobs_;

  UserHistory& u = users_[t.user_name(job)];
  auto& ug = u.by_gpus[job.num_gpus];
  ug.first += dur;
  ++ug.second;
  u.duration_sum += dur;
  ++u.jobs;

  if (!use_names_) return;  // limited-information mode
  const std::string& name = t.job_name(job);
  if (auto* e = const_cast<NameEntry*>(find_name(u, name))) {
    // Exponentially-weighted rolling duration (newest dominates).
    e->ewma_duration = rolling_decay_ * e->ewma_duration +
                       (1.0 - rolling_decay_) * dur;
    e->weight = rolling_decay_ * e->weight + (1.0 - rolling_decay_);
    e->last_seen = observe_counter_;
  } else {
    if (u.names.size() >= max_names_per_user_) {
      // Evict the least-recently-seen entry.
      auto oldest = std::min_element(u.names.begin(), u.names.end(),
                                     [](const NameEntry& a, const NameEntry& b) {
                                       return a.last_seen < b.last_seen;
                                     });
      u.names.erase(oldest);
    }
    NameEntry fresh;
    fresh.name = name;
    fresh.ewma_duration = (1.0 - rolling_decay_) * dur;
    fresh.weight = 1.0 - rolling_decay_;
    fresh.last_seen = observe_counter_;
    u.names.push_back(std::move(fresh));
  }
}

double RollingEstimator::estimate(const Trace& t, const JobRecord& job) const {
  return estimate(t.user_name(job), t.job_name(job), job.num_gpus);
}

double RollingEstimator::estimate(const std::string& user,
                                  const std::string& job_name,
                                  int num_gpus) const {
  const auto user_it = users_.find(user);
  if (user_it == users_.end()) {
    // New user: cluster-wide mean duration for this GPU demand (line 14).
    const auto it = global_by_gpus_.find(num_gpus);
    if (it != global_by_gpus_.end() && it->second.second > 0) {
      return it->second.first / static_cast<double>(it->second.second);
    }
    return global_jobs_ > 0 ? global_duration_sum_ / static_cast<double>(global_jobs_)
                            : 600.0;
  }
  const UserHistory& u = user_it->second;
  if (use_names_) {
    if (const NameEntry* e = find_name(u, job_name);
        e != nullptr && e->weight > 0.0) {
      // Similar name: exponentially-weighted decay of its durations (line 18).
      return e->ewma_duration / e->weight;
    }
  }
  // Known user, new job name: user's mean for this GPU demand (line 16).
  const auto it = u.by_gpus.find(num_gpus);
  if (it != u.by_gpus.end() && it->second.second > 0) {
    return it->second.first / static_cast<double>(it->second.second);
  }
  return u.jobs > 0 ? u.duration_sum / static_cast<double>(u.jobs) : 600.0;
}

// ---------------------------------------------------------------------------
// Persistence (docs/FORMATS.md)
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kRollingTag = serialize::fourcc("ROLL");
/// Version 2 dropped version 1's trailing observed-id dedupe set.
constexpr std::uint32_t kRollingVersion = 2;
constexpr std::uint32_t kQssfTag = serialize::fourcc("QSSF");
constexpr std::uint32_t kQssfVersion = 1;

/// (sum, count) pairs of an unordered map, keys sorted — canonical bytes.
void save_by_gpus(
    serialize::Writer& w,
    const std::unordered_map<int, std::pair<double, std::int64_t>>& m) {
  std::vector<std::pair<int, std::pair<double, std::int64_t>>> sorted(
      m.begin(), m.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u64(sorted.size());
  for (const auto& [gpus, sum_n] : sorted) {
    w.i32(gpus);
    w.f64(sum_n.first);
    w.i64(sum_n.second);
  }
}

std::unordered_map<int, std::pair<double, std::int64_t>> load_by_gpus(
    serialize::Reader& r) {
  const std::size_t n = r.length(20);  // i32 + f64 + i64
  std::unordered_map<int, std::pair<double, std::int64_t>> m;
  m.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int gpus = r.i32();
    const double sum = r.f64();
    const std::int64_t count = r.i64();
    m[gpus] = {sum, count};
  }
  return m;
}

}  // namespace

void RollingEstimator::save(serialize::Writer& w) const {
  w.begin_section(kRollingTag);
  w.u32(kRollingVersion);
  w.u8(use_names_ ? 1 : 0);
  w.f64(name_match_threshold_);
  w.f64(rolling_decay_);
  w.u64(max_names_per_user_);
  w.f64(global_duration_sum_);
  w.i64(global_jobs_);
  w.u64(observe_counter_);
  save_by_gpus(w, global_by_gpus_);

  // Users sorted by name for canonical bytes; each user's name entries keep
  // their vector (insertion) order, which find_name's scan depends on.
  std::vector<const std::pair<const std::string, UserHistory>*> users;
  users.reserve(users_.size());
  for (const auto& kv : users_) users.push_back(&kv);
  std::sort(users.begin(), users.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  w.u64(users.size());
  for (const auto* kv : users) {
    w.str(kv->first);
    const UserHistory& u = kv->second;
    w.f64(u.duration_sum);
    w.i64(u.jobs);
    save_by_gpus(w, u.by_gpus);
    w.u64(u.names.size());
    for (const NameEntry& e : u.names) {
      w.str(e.name);
      w.f64(e.ewma_duration);
      w.f64(e.weight);
      w.u64(e.last_seen);
    }
  }
  w.end_section();
}

void RollingEstimator::load(serialize::Reader& r) {
  serialize::Reader s = r.section(kRollingTag);
  const std::uint32_t version = s.u32();
  if (version != kRollingVersion) {
    throw serialize::Error(serialize::ErrorCode::kUnsupportedVersion,
                           "rolling section version " + std::to_string(version));
  }
  RollingEstimator out;
  out.use_names_ = s.u8() != 0;
  out.name_match_threshold_ = s.f64();
  out.rolling_decay_ = s.f64();
  out.max_names_per_user_ = static_cast<std::size_t>(s.u64());
  if (const char* why =
          rolling_knob_error(out.name_match_threshold_, out.rolling_decay_,
                             out.max_names_per_user_)) {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           std::string("rolling section: ") + why);
  }
  out.global_duration_sum_ = s.f64();
  out.global_jobs_ = s.i64();
  out.observe_counter_ = s.u64();
  out.global_by_gpus_ = load_by_gpus(s);

  const std::size_t n_users = s.length(8);
  out.users_.reserve(n_users);
  for (std::size_t i = 0; i < n_users; ++i) {
    std::string user = s.str();
    UserHistory u;
    u.duration_sum = s.f64();
    u.jobs = s.i64();
    u.by_gpus = load_by_gpus(s);
    const std::size_t n_names = s.length(8);
    u.names.resize(n_names);
    for (NameEntry& e : u.names) {
      e.name = s.str();
      e.ewma_duration = s.f64();
      e.weight = s.f64();
      e.last_seen = s.u64();
    }
    out.users_.emplace(std::move(user), std::move(u));
  }
  s.close("rolling");
  *this = std::move(out);
}

// ---------------------------------------------------------------------------
// QssfService
// ---------------------------------------------------------------------------

namespace {

/// P_M from the GBDT's log1p(duration) prediction, floored at one second —
/// the one definition every pricing path shares and load() bounds.
double ml_duration(double log_duration) {
  return std::max(1.0, std::expm1(log_duration));
}

}  // namespace

QssfService::QssfService(QssfConfig config)
    : config_(config),
      model_(config.gbdt),
      name_buckets_(config.name_match_threshold, kNamePrefixLen),
      rolling_(config) {
  if (const char* why = qssf_knob_error(config_)) {
    throw std::invalid_argument(std::string("QssfConfig: ") + why);
  }
}

void QssfService::encode(const Trace& t, const JobRecord& job,
                         std::vector<double>& out) const {
  out.clear();
  out.reserve(kFeatureCount);
  const CivilTime c = to_civil(job.submit_time);
  out.push_back(static_cast<double>(job.num_gpus));
  out.push_back(static_cast<double>(job.num_cpus));
  out.push_back(static_cast<double>(job.vc));
  out.push_back(static_cast<double>(job.user));
  out.push_back(config_.use_names
                    ? static_cast<double>(name_buckets_.bucket(t.job_name(job)))
                    : 0.0);
  out.push_back(static_cast<double>(c.month));
  out.push_back(static_cast<double>(c.weekday));
  out.push_back(static_cast<double>(c.hour));
  out.push_back(static_cast<double>(c.minute));
}

ml::Dataset QssfService::encode_jobs(
    const Trace& t, std::span<const std::uint32_t> job_indices) const {
  ml::Dataset data(kFeatureCount);
  data.reserve(job_indices.size());
  std::vector<double> row;
  for (const std::uint32_t i : job_indices) {
    encode(t, t.jobs()[i], row);
    data.add_row(row, 0.0);
  }
  return data;
}

void QssfService::observe(const Trace& t, const JobRecord& job) {
  rolling_.observe(t, job);
}

void QssfService::fit(const Trace& history) {
  // Both halves start over, so the fit depends on (config, history) alone.
  name_buckets_ = ml::NameBucketizer(config_.name_match_threshold,
                                     kNamePrefixLen);
  rolling_ = RollingEstimator(config_);
  for (const auto& job : history.jobs()) rolling_.observe(history, job);

  // GBDT on log-duration.
  ml::Dataset data(kFeatureCount);
  std::vector<double> row;
  for (const auto& job : history.jobs()) {
    if (!job.is_gpu_job()) continue;
    encode(history, job, row);
    data.add_row(row, std::log1p(static_cast<double>(job.duration)));
  }
  model_.fit(data);
}

void QssfService::save(serialize::Writer& w) const {
  w.begin_section(kQssfTag);
  w.u32(kQssfVersion);
  w.f64(config_.lambda);
  w.f64(config_.name_match_threshold);
  w.f64(config_.rolling_decay);
  w.u64(config_.max_names_per_user);
  w.u8(config_.use_names ? 1 : 0);
  model_.save(w);  // carries config_.gbdt inside the GBDT section
  name_buckets_.save(w);
  rolling_.save(w);
  w.end_section();
}

void QssfService::load(serialize::Reader& r) {
  serialize::Reader s = r.section(kQssfTag);
  const std::uint32_t version = s.u32();
  if (version != kQssfVersion) {
    throw serialize::Error(serialize::ErrorCode::kUnsupportedVersion,
                           "qssf section version " + std::to_string(version));
  }
  QssfConfig cfg;
  cfg.lambda = s.f64();
  cfg.name_match_threshold = s.f64();
  cfg.rolling_decay = s.f64();
  cfg.max_names_per_user = static_cast<std::size_t>(s.u64());
  cfg.use_names = s.u8() != 0;
  if (const char* why = qssf_knob_error(cfg)) {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           std::string("qssf section: ") + why);
  }
  ml::GBDTRegressor model;
  model.load(s);
  // encode() always hands predict() a kFeatureCount-element row; a trained
  // model expecting any other width would index past it. (GBDT load already
  // guarantees binner width == the model's feature count when trained.)
  if (model.trained() && model.binner().features() != kFeatureCount) {
    throw serialize::Error(
        serialize::ErrorCode::kCorrupt,
        "qssf model expects " + std::to_string(model.binner().features()) +
            " features, service encodes " + std::to_string(kFeatureCount));
  }
  // The GBDT load only bounds predictions to finite values, but expm1
  // overflows above ~709.8: a P_M of Inf prices jobs Inf, or NaN once λ = 1
  // multiplies it by zero.
  if (model.trained() &&
      !std::isfinite(ml_duration(model.prediction_bound()))) {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           "qssf model's duration estimate overflows");
  }
  cfg.gbdt = model.config();
  ml::NameBucketizer buckets;
  buckets.load(s);
  RollingEstimator rolling;
  rolling.load(s);
  s.close("qssf");

  config_ = cfg;
  model_ = std::move(model);
  name_buckets_ = std::move(buckets);
  rolling_ = std::move(rolling);
}

double QssfService::rolling_estimate(const Trace& t, const JobRecord& job) const {
  return rolling_.estimate(t, job);
}

double QssfService::ml_estimate(const Trace& t, const JobRecord& job) const {
  if (!model_.trained()) return rolling_.estimate(t, job);
  std::vector<double> row;
  encode(t, job, row);
  return ml_duration(model_.predict(row));
}

double QssfService::predict_duration(const Trace& t, const JobRecord& job) const {
  const double pr = rolling_estimate(t, job);
  const double pm = ml_estimate(t, job);
  return config_.lambda * pr + (1.0 - config_.lambda) * pm;
}

double QssfService::priority(const Trace& t, const JobRecord& job) const {
  return combine(config_, rolling_estimate(t, job), ml_estimate(t, job), job);
}

void QssfService::encode_frozen(const JobQuery& query,
                                std::vector<double>& out) const {
  // Column-for-column the layout of encode(); the name bucket comes from the
  // const lookup, with an unseen name mapped to bucket_count() — the id
  // bucket() would mint for it, so freezing never changes a feature value.
  out.clear();
  out.reserve(kFeatureCount);
  const CivilTime c = to_civil(query.submit_time);
  out.push_back(static_cast<double>(query.num_gpus));
  out.push_back(static_cast<double>(query.num_cpus));
  out.push_back(static_cast<double>(query.vc_id));
  out.push_back(static_cast<double>(query.user_id));
  double bucket = 0.0;
  if (config_.use_names) {
    const std::uint32_t b = name_buckets_.lookup(query.job_name);
    bucket = static_cast<double>(
        b == ml::NameBucketizer::kNoBucket ? name_buckets_.bucket_count() : b);
  }
  out.push_back(bucket);
  out.push_back(static_cast<double>(c.month));
  out.push_back(static_cast<double>(c.weekday));
  out.push_back(static_cast<double>(c.hour));
  out.push_back(static_cast<double>(c.minute));
}

double QssfService::predict_duration(const JobQuery& query) const {
  const double pr = rolling_.estimate(query.user, query.job_name, query.num_gpus);
  double pm = pr;
  if (model_.trained()) {
    std::vector<double> row;
    encode_frozen(query, row);
    pm = ml_duration(model_.predict(row));
  }
  return config_.lambda * pr + (1.0 - config_.lambda) * pm;
}

// ---------------------------------------------------------------------------
// OnlinePriorityEvaluator
// ---------------------------------------------------------------------------

OnlinePriorityEvaluator::OnlinePriorityEvaluator(QssfService& service,
                                                 const Trace& eval,
                                                 EvalOptions options) {
  const auto& jobs = eval.jobs();
  std::vector<std::uint32_t> gpu;
  gpu.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].is_gpu_job()) gpu.push_back(static_cast<std::uint32_t>(i));
  }

  // The GBDT half of every priority depends only on the (fixed) model, so
  // kParallel batches it into one binned predict_many pass. Encoding runs in
  // stream order, which warms the name buckets exactly as the per-job path.
  const bool trained = service.trained();
  const bool batched =
      trained && options.execution == common::ExecMode::kParallel;
  std::vector<double> ml_est;
  if (batched) {
    ml_est = service.model().predict_many(service.encode_jobs(eval, gpu));
    for (double& v : ml_est) v = ml_duration(v);
  }

  priorities_.reserve(gpu.size());
  predicted_.reserve(gpu.size());
  actual_.reserve(gpu.size());
  RollingEstimator& rolling = service.rolling_;
  ReplayQueue pending;
  for (std::size_t pos = 0; pos < gpu.size(); ++pos) {
    const JobRecord& job = jobs[gpu[pos]];
    // Fold in every job that has (approximately) finished by now; queuing
    // delay is unknown at this point, so submit+duration approximates the
    // termination feed of the Model Update Engine.
    pending.drain(job.submit_time, [&](std::uint32_t idx) {
      rolling.observe(eval, jobs[idx]);
    });
    const double pr = rolling.estimate(eval, job);
    // Untrained model: ml_estimate falls back to the rolling estimate, which
    // is bitwise pr (a pure function of the same state).
    double pm = pr;
    if (trained) pm = batched ? ml_est[pos] : service.ml_estimate(eval, job);
    const double p = QssfService::combine(service.config(), pr, pm, job);
    priorities_.emplace(job.job_id, p);
    predicted_.push_back(p);
    actual_.push_back(job.gpu_time());
    pending.push(job, gpu[pos]);
  }
}

double OnlinePriorityEvaluator::priority_of(const JobRecord& job) const {
  const auto it = priorities_.find(job.job_id);
  return it != priorities_.end()
             ? it->second
             : static_cast<double>(job.num_gpus) * 600.0;
}

sim::PriorityFn OnlinePriorityEvaluator::as_priority_fn() const {
  return [this](const JobRecord& job) { return priority_of(job); };
}

}  // namespace helios::core
