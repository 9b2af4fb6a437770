// Quasi-Shortest-Service-First scheduling service (paper §4.2, Algorithm 1).
//
// Assigns every incoming job a priority P = N * (λ * P_R + (1-λ) * P_M):
//   * P_R — rolling estimate from the user's history:
//       - unknown user           -> mean duration of all jobs with the same
//                                   GPU demand,
//       - user known, new name   -> mean duration of this user's jobs with
//                                   the same GPU demand,
//       - similar name found     -> exponentially-weighted mean of the
//                                   durations of name-matched jobs
//                                   (Levenshtein similarity),
//   * P_M — GBDT estimate from encoded job attributes (user, VC, bucketized
//     name, GPU/CPU demand, submission-time calendar features),
//   * N   — requested GPU count, turning the duration estimate into expected
//     GPU time (the paper ranks by GPU time, not duration, so that large
//     short jobs don't starve behind small ones).
// The scheduler then runs jobs in ascending priority (sim::SchedulerPolicy::
// kQssf). Lower P = expected-shorter service = runs first.
//
// Determinism: fit() is a pure function of (config, history); observe() and
// the evaluator are pure functions of their inputs and the service's prior
// state — no wall clock, no unseeded randomness. OnlinePriorityEvaluator's
// batched mode is bit-identical to its per-job reference at any thread count
// (test_prediction_parity), and a service restored from save()
// (docs/FORMATS.md, "QSSF" frame) produces bit-identical priorities and
// estimates (test_serialize).
//
// Each finished job reaches observe() once by construction: fit() walks its
// history once, and every causal replay (the evaluator, the streaming
// svc::PredictionServer) pushes each job onto its ReplayQueue once. These
// are the paper's Model Update Engine hook (§4.1).
//
// Thread-safety: QssfService and RollingEstimator are externally
// synchronized — fit()/observe()/load() mutate and must be
// exclusive; the const estimate/predict accessors are safe to share across
// threads between mutations (predict-time name bucketing is memoized behind
// logical constness, so even const use requires external synchronization if
// callers race on previously-unseen job names). OnlinePriorityEvaluator
// batches GBDT inference on the shared global_pool() and is safe to read
// from any thread once constructed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/exec_mode.h"
#include "ml/gbdt.h"
#include "ml/levenshtein.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace helios::serialize {
class Reader;
class Writer;
}  // namespace helios::serialize

namespace helios::core {

struct QssfConfig {
  /// Merge coefficient λ between the rolling and the GBDT estimate.
  double lambda = 0.45;
  /// Normalised Levenshtein distance below which two job names "match".
  /// 0.20 keeps "_v2"-style variants together while separating different
  /// templates of the same user ("train_bert" vs "eval_bert"). Must lie in
  /// [0, 1], the range of the distance it bounds.
  double name_match_threshold = 0.20;
  /// Exponential decay applied to older name-matched durations.
  double rolling_decay = 0.75;
  /// Per-user cap on remembered name entries (oldest evicted); at least 1.
  std::size_t max_names_per_user = 64;
  /// GBDT hyper-parameters; max_training_rows caps fit cost on huge traces.
  ml::GBDTConfig gbdt = default_gbdt_config();
  /// Limited-information mode (paper §6.2 future work: "some attributes in
  /// our services may not be available in other clusters"): when false, job
  /// names are ignored — the rolling estimator skips name matching and the
  /// GBDT drops the name-bucket feature.
  bool use_names = true;

  [[nodiscard]] static ml::GBDTConfig default_gbdt_config();
};

/// The rolling half of Algorithm 1: per-user duration history with
/// Levenshtein name matching, plus cluster-wide fallbacks.
///
/// observe() folds in whatever it is given: callers hand it each finished
/// job once, so a job observed twice counts twice.
class RollingEstimator {
 public:
  RollingEstimator() = default;
  /// Throws std::invalid_argument if name_match_threshold or rolling_decay
  /// lies outside [0, 1] (or is NaN) or max_names_per_user is 0.
  explicit RollingEstimator(const QssfConfig& config);

  /// Absorb one finished GPU job (non-GPU jobs are ignored).
  void observe(const trace::Trace& t, const trace::JobRecord& job);

  /// Expected duration (seconds) of an incoming job, Algorithm 1 lines 13-18.
  [[nodiscard]] double estimate(const trace::Trace& t,
                                const trace::JobRecord& job) const;

  /// Trace-free overload for callers that hold raw strings instead of a
  /// Trace (the serving layer's query path); the Trace overload delegates
  /// here, so both are the same algorithm.
  [[nodiscard]] double estimate(const std::string& user,
                                const std::string& job_name,
                                int num_gpus) const;

  [[nodiscard]] std::int64_t observed_jobs() const noexcept { return global_jobs_; }

  /// Persist / restore the full rolling state ("ROLL" section,
  /// docs/FORMATS.md): per-user histories (GPU-demand sums, name EWMAs with
  /// their eviction clocks) and the cluster-wide fallbacks, so a restored
  /// estimator estimates and evolves bit-identically. Throws
  /// serialize::Error on malformed input, including knobs the config
  /// constructor would reject (ErrorCode::kCorrupt), and on a section
  /// version other than the current one (ErrorCode::kUnsupportedVersion).
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

 private:
  struct NameEntry {
    std::string name;
    double ewma_duration = 0.0;
    double weight = 0.0;
    std::uint64_t last_seen = 0;  // insertion counter, for eviction
  };
  struct UserHistory {
    std::unordered_map<int, std::pair<double, std::int64_t>> by_gpus;  // sum, n
    double duration_sum = 0.0;
    std::int64_t jobs = 0;
    std::vector<NameEntry> names;
  };

  [[nodiscard]] const NameEntry* find_name(const UserHistory& u,
                                           const std::string& name) const;

  bool use_names_ = true;
  double name_match_threshold_ = 0.20;
  double rolling_decay_ = 0.75;
  std::size_t max_names_per_user_ = 64;

  std::unordered_map<std::string, UserHistory> users_;
  std::unordered_map<int, std::pair<double, std::int64_t>> global_by_gpus_;
  double global_duration_sum_ = 0.0;
  std::int64_t global_jobs_ = 0;
  std::uint64_t observe_counter_ = 0;
};

/// A job described by raw strings plus pre-resolved feature ids — the query
/// shape of the serving layer (svc::), which prices jobs that have no Trace
/// row yet. user_id/vc_id must be resolved against the interners of the
/// trace the service learned from (an unseen value maps to interner size,
/// the id a fresh intern would have received — svc::Snapshot does this).
struct JobQuery {
  std::string user;          ///< submitting user (rolling-estimator key)
  std::string job_name;      ///< job name (name match + bucket feature)
  std::uint32_t user_id = 0; ///< trace interner id of `user`
  std::uint32_t vc_id = 0;   ///< trace interner id of the virtual cluster
  std::int32_t num_gpus = 1;
  std::int32_t num_cpus = 0;
  UnixTime submit_time = 0;
};

class QssfService {
 public:
  /// Throws std::invalid_argument on a config RollingEstimator rejects, or
  /// on a lambda outside [0, 1] (or NaN).
  explicit QssfService(QssfConfig config = {});

  /// Train the GBDT and seed a fresh rolling estimator from a historical
  /// trace (the paper trains on April-August and evaluates on September).
  /// Replaces both halves, so a second fit() starts over rather than adding
  /// to the first.
  void fit(const trace::Trace& history);

  /// Absorb a single finished job into the rolling estimator (no GBDT refit).
  void observe(const trace::Trace& t, const trace::JobRecord& job);

  /// Expected duration (seconds) of an incoming job.
  [[nodiscard]] double predict_duration(const trace::Trace& t,
                                        const trace::JobRecord& job) const;

  /// Algorithm 1's Priority(): expected GPU time, lower first.
  [[nodiscard]] double priority(const trace::Trace& t,
                                const trace::JobRecord& job) const;

  /// Rolling estimate alone / GBDT estimate alone (for the λ ablation).
  [[nodiscard]] double rolling_estimate(const trace::Trace& t,
                                        const trace::JobRecord& job) const;
  [[nodiscard]] double ml_estimate(const trace::Trace& t,
                                   const trace::JobRecord& job) const;

  /// Frozen-service variant of predict_duration() for the concurrent query
  /// path (svc::Snapshot::query scales it to a priority): never mutates —
  /// the job name goes through the const NameBucketizer::lookup(), with an
  /// unseen name mapped to bucket_count(), exactly the id the mutating path
  /// would mint for it — so any number of threads may call it on a shared
  /// service with no synchronization, and for a name the service has already
  /// priced once the result is bit-identical to the Trace-based accessor.
  [[nodiscard]] double predict_duration(const JobQuery& query) const;

  /// λ-merge of the two estimates scaled to GPU time — the single definition
  /// of Priority() shared by priority() and the evaluator.
  [[nodiscard]] static double combine(const QssfConfig& config, double rolling,
                                      double ml, const trace::JobRecord& job) {
    return static_cast<double>(std::max(1, job.num_gpus)) *
           (config.lambda * rolling + (1.0 - config.lambda) * ml);
  }

  /// Encode the given jobs into a GBDT feature matrix, warming the name
  /// buckets in job order (the same order the serial path would).
  [[nodiscard]] ml::Dataset encode_jobs(
      const trace::Trace& t, std::span<const std::uint32_t> job_indices) const;

  [[nodiscard]] const QssfConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool trained() const noexcept { return model_.trained(); }
  [[nodiscard]] const ml::GBDTRegressor& model() const noexcept { return model_; }
  [[nodiscard]] const RollingEstimator& rolling() const noexcept { return rolling_; }

  /// Persist the whole service ("QSSF" frame, docs/FORMATS.md): config,
  /// GBDT model, name buckets, and rolling state. Wrap with
  /// serialize::save_file to snapshot; load() into a fresh service
  /// warm-restarts it — predictions and priorities are bit-identical to the
  /// saved instance, with no history replay or refit.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

 private:
  friend class OnlinePriorityEvaluator;  // replays into rolling_

  static constexpr std::size_t kFeatureCount = 9;
  static constexpr std::size_t kNamePrefixLen = 6;
  void encode(const trace::Trace& t, const trace::JobRecord& job,
              std::vector<double>& out) const;
  /// Same feature layout as encode(), from a JobQuery, never mutating the
  /// name buckets — the two must stay column-for-column identical.
  void encode_frozen(const JobQuery& query, std::vector<double>& out) const;

  QssfConfig config_;
  ml::GBDTRegressor model_;
  mutable ml::NameBucketizer name_buckets_;  // grows lazily at predict time
  RollingEstimator rolling_;
};

/// Pending-finish replay queue: a min-heap of (finish, index) events, popped
/// in (finish, then index) total order — identical however the heap was
/// assembled. This is the one heap-op sequence every causal replay site
/// shares; the streaming svc::PredictionServer's bit-parity with the batch
/// evaluator depends on both sites executing it identically. Externally
/// synchronized, like the estimators it feeds.
class ReplayQueue {
 public:
  struct Entry {
    std::int64_t finish = 0;   ///< approximate finish: submit + duration
    std::uint32_t index = 0;   ///< caller-defined job index (tie-break)
  };

  /// Queue the job's finish event under the given index.
  void push(const trace::JobRecord& job, std::uint32_t index) {
    heap_.push_back({job.submit_time + job.duration, index});
    std::push_heap(heap_.begin(), heap_.end(), after);
  }

  /// Pop every entry with finish <= now in (finish, index) order, invoking
  /// observe(index) for each.
  template <class ObserveFn>
  void drain(std::int64_t now, ObserveFn&& observe) {
    while (!heap_.empty() && heap_.front().finish <= now) {
      std::pop_heap(heap_.begin(), heap_.end(), after);
      const std::uint32_t index = heap_.back().index;
      heap_.pop_back();
      observe(index);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  /// Raw heap storage, for checkpointing; feed back through restore().
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return heap_;
  }
  /// Adopt entries() output verbatim (the storage is already heap-ordered).
  void restore(std::vector<Entry> entries) { heap_ = std::move(entries); }
  /// Whether `entries` is heap-ordered under (finish, index), as entries()
  /// always is; a checkpoint loader checks this before restore().
  [[nodiscard]] static bool is_heap(const std::vector<Entry>& entries) {
    return std::is_heap(entries.begin(), entries.end(), after);
  }

 private:
  static bool after(const Entry& a, const Entry& b) noexcept {
    return a.finish != b.finish ? a.finish > b.finish : a.index > b.index;
  }

  std::vector<Entry> heap_;
};

struct EvalOptions {
  /// kParallel takes the GBDT half of every priority from one batched,
  /// row-parallel predict_many pass on the shared pool; kSerial (the
  /// per-job reference) encodes and predicts each job as it is priced. Both
  /// run the same causal replay and are bit-identical at any thread count.
  common::ExecMode execution = common::ExecMode::kParallel;
};

/// Evaluates QSSF priorities for a stream of jobs in submission order while
/// honouring causality: a job is folded into the rolling estimator only once
/// its (approximate) finish time submit+duration has passed. This mirrors
/// the deployed Model Update Engine, which fine-tunes from jobs as they
/// terminate. Returns a PriorityFn suitable for sim::SimConfig after
/// precomputing priorities for every GPU job of `eval`.
///
/// The replay runs once, job by job, on the service's own rolling estimator
/// (drain the ReplayQueue up to the job's submit time, estimate, combine,
/// queue its finish), so the service ends holding every evaluated job, as
/// the Model Update Engine would.
class OnlinePriorityEvaluator {
 public:
  OnlinePriorityEvaluator(QssfService& service, const trace::Trace& eval,
                          EvalOptions options = {});

  /// Priority for a trace job (precomputed; keyed by job_id).
  [[nodiscard]] double priority_of(const trace::JobRecord& job) const;

  /// Adapter for the simulator.
  [[nodiscard]] sim::PriorityFn as_priority_fn() const;

  /// Prediction quality over the evaluated jobs: predicted vs actual GPU time.
  [[nodiscard]] const std::vector<double>& predicted_gpu_time() const noexcept {
    return predicted_;
  }
  [[nodiscard]] const std::vector<double>& actual_gpu_time() const noexcept {
    return actual_;
  }

 private:
  std::unordered_map<std::uint64_t, double> priorities_;
  std::vector<double> predicted_;
  std::vector<double> actual_;
};

}  // namespace helios::core
