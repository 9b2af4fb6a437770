// Golden parity suite for the prediction layer (smoke):
//
//  * GBDTEngine::kHistogram (sibling-subtraction, row-parallel, packed
//    buckets) must reproduce GBDTEngine::kReference bit-for-bit — same
//    trees (features, split bins, thresholds, leaf values, gains) and the
//    same per-iteration training RMSE — across seeds and configs on
//    trace::synthetic-derived data. Exactness is by construction (int64
//    quantized gradients), and this suite is the regression net for the
//    row-set / subtraction / leaf-tracking machinery on top.
//  * predict_many (batched, binned, tree-at-a-time) must equal predict()
//    per row, bitwise.
//  * OnlinePriorityEvaluator's batched mode (one predict_many pass for the
//    GBDT half) must reproduce the per-job serial reference — priorities,
//    prediction-quality vectors, and the service's final rolling state.
//  * The AVX2 kernels (histogram accumulation, batched forest walk) must be
//    bit-identical to the scalar forms: fits, predict_many, and evaluator
//    output are compared with the dispatch forced on vs off. Skipped (not
//    silently passed) where the hardware or build lacks AVX2.
//  * Nodes at or above the packed 24-bit row cap shard into wide histograms
//    instead of falling back to GBDTEngine::kReference; an injected tiny cap
//    drives that path at test scale and must not change a single bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/simd.h"
#include "core/qssf_service.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "serialize/binary.h"
#include "trace/synthetic.h"

namespace {

/// Forces the SIMD dispatch for one scope; restores the prior state on exit.
/// `active` reports whether the requested state actually took effect (asking
/// for SIMD on a scalar-only build/CPU yields false — callers GTEST_SKIP).
class ScopedSimd {
 public:
  explicit ScopedSimd(bool on)
      : prev_(helios::common::simd_enabled()),
        active_(helios::common::set_simd_enabled(on) == on) {}
  ~ScopedSimd() { helios::common::set_simd_enabled(prev_); }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;
  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  bool prev_;
  bool active_;
};

/// Restores the injectable packed-row cap on scope exit.
class ScopedPackedRowLimit {
 public:
  explicit ScopedPackedRowLimit(std::size_t limit) {
    helios::ml::gbdt_set_packed_row_limit(limit);
  }
  ~ScopedPackedRowLimit() { helios::ml::gbdt_set_packed_row_limit(0); }
  ScopedPackedRowLimit(const ScopedPackedRowLimit&) = delete;
  ScopedPackedRowLimit& operator=(const ScopedPackedRowLimit&) = delete;
};

}  // namespace

namespace helios::ml {
namespace {

/// QSSF-shaped feature encoding of a synthetic trace: demand, user/VC ids,
/// calendar fields; target = log1p(duration) — the shape the service trains
/// on, without depending on core/.
Dataset trace_dataset(const trace::Trace& t) {
  Dataset d(7);
  std::vector<double> row(7);
  for (const auto& j : t.jobs()) {
    if (!j.is_gpu_job()) continue;
    const CivilTime c = to_civil(j.submit_time);
    row[0] = static_cast<double>(j.num_gpus);
    row[1] = static_cast<double>(j.num_cpus);
    row[2] = static_cast<double>(j.vc);
    row[3] = static_cast<double>(j.user);
    row[4] = static_cast<double>(c.weekday);
    row[5] = static_cast<double>(c.hour);
    row[6] = static_cast<double>(c.minute);
    d.add_row(row, std::log1p(static_cast<double>(j.duration)));
  }
  return d;
}

void expect_models_identical(const GBDTRegressor& a, const GBDTRegressor& b) {
  ASSERT_EQ(a.tree_count(), b.tree_count());
  ASSERT_EQ(a.training_rmse().size(), b.training_rmse().size());
  for (std::size_t i = 0; i < a.training_rmse().size(); ++i) {
    ASSERT_EQ(a.training_rmse()[i], b.training_rmse()[i]) << "rmse @" << i;
  }
  for (std::size_t t = 0; t < a.tree_count(); ++t) {
    const auto& na = a.trees()[t].nodes();
    const auto& nb = b.trees()[t].nodes();
    ASSERT_EQ(na.size(), nb.size()) << "tree " << t;
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i].feature, nb[i].feature) << "tree " << t << " node " << i;
      ASSERT_EQ(na[i].split_bin, nb[i].split_bin) << "tree " << t << " node " << i;
      ASSERT_EQ(na[i].threshold, nb[i].threshold) << "tree " << t << " node " << i;
      ASSERT_EQ(na[i].left, nb[i].left) << "tree " << t << " node " << i;
      ASSERT_EQ(na[i].right, nb[i].right) << "tree " << t << " node " << i;
      ASSERT_EQ(na[i].value, nb[i].value) << "tree " << t << " node " << i;
      ASSERT_EQ(na[i].gain, nb[i].gain) << "tree " << t << " node " << i;
    }
  }
}

TEST(GbdtEngineParity, BitIdenticalAcrossSeedsAndConfigs) {
  for (const std::uint64_t seed : {11ull, 29ull}) {
    auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                              seed, 0.02);
    const Dataset data = trace_dataset(trace::SyntheticTraceGenerator(gen).generate());
    ASSERT_GT(data.rows(), 1000u);

    GBDTConfig configs[3];
    configs[0].n_trees = 10;
    configs[1].n_trees = 8;
    configs[1].max_depth = 4;
    configs[1].max_bins = 33;
    configs[1].subsample = 1.0;
    configs[2].n_trees = 8;
    configs[2].min_samples_leaf = 5;
    configs[2].max_training_rows = data.rows() / 2;
    for (GBDTConfig cfg : configs) {
      cfg.seed = seed;
      cfg.engine = GBDTEngine::kHistogram;
      GBDTConfig ref_cfg = cfg;
      ref_cfg.engine = GBDTEngine::kReference;
      GBDTRegressor hist_model(cfg);
      GBDTRegressor ref_model(ref_cfg);
      hist_model.fit(data);
      ref_model.fit(data);
      ASSERT_TRUE(hist_model.trained());
      expect_models_identical(hist_model, ref_model);
    }
  }
}

TEST(GbdtEngineParity, PredictManyMatchesPerRowBitwise) {
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 11,
                                            0.02);
  const Dataset data = trace_dataset(trace::SyntheticTraceGenerator(gen).generate());
  GBDTConfig cfg;
  cfg.n_trees = 10;
  GBDTRegressor model(cfg);
  model.fit(data);
  const auto batched = model.predict_many(data);
  ASSERT_EQ(batched.size(), data.rows());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    ASSERT_EQ(batched[r], model.predict(data.row(r))) << "row " << r;
  }
}

// The AVX2 histogram kernel reorders only integer adds, so a fit with the
// dispatch on must reproduce the scalar fit bit-for-bit — trees, thresholds,
// leaf values, gains, and per-iteration RMSE — across configs.
TEST(SimdParity, FitBitIdenticalToScalar) {
  {
    ScopedSimd probe(true);
    if (!probe.active()) GTEST_SKIP() << "AVX2 unavailable: " << common::simd_mode();
  }
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 23,
                                            0.02);
  const Dataset data = trace_dataset(trace::SyntheticTraceGenerator(gen).generate());
  GBDTConfig configs[2];
  configs[0].n_trees = 10;
  configs[1].n_trees = 8;
  configs[1].max_depth = 4;
  configs[1].max_bins = 33;
  configs[1].subsample = 1.0;
  for (const GBDTConfig& cfg : configs) {
    GBDTRegressor simd_model(cfg);
    GBDTRegressor scalar_model(cfg);
    {
      ScopedSimd simd(true);
      simd_model.fit(data);
    }
    {
      ScopedSimd scalar(false);
      scalar_model.fit(data);
    }
    ASSERT_TRUE(simd_model.trained());
    expect_models_identical(simd_model, scalar_model);
  }
}

// The AVX2 forest walk performs the same separate multiply-then-add per
// (row, tree) as the scalar loop, so batched predictions must match the
// scalar batch AND the per-row reference bitwise — including the tail rows
// the kernel hands back to the scalar walker.
TEST(SimdParity, PredictManyBitIdenticalToScalar) {
  {
    ScopedSimd probe(true);
    if (!probe.active()) GTEST_SKIP() << "AVX2 unavailable: " << common::simd_mode();
  }
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 31,
                                            0.02);
  const Dataset data = trace_dataset(trace::SyntheticTraceGenerator(gen).generate());
  GBDTConfig cfg;
  cfg.n_trees = 12;
  GBDTRegressor model(cfg);
  model.fit(data);
  std::vector<double> simd_out;
  std::vector<double> scalar_out;
  {
    ScopedSimd simd(true);
    simd_out = model.predict_many(data);
  }
  {
    ScopedSimd scalar(false);
    scalar_out = model.predict_many(data);
  }
  ASSERT_EQ(simd_out.size(), data.rows());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    ASSERT_EQ(simd_out[r], scalar_out[r]) << "row " << r;
    ASSERT_EQ(simd_out[r], model.predict(data.row(r))) << "row " << r;
  }
}

// Lifted row cap: with the packed 24-bit limit injected down to toy scale,
// nodes shard into wide histograms (observable via the build counter) and
// the fit stays bit-identical to both the default-cap fit and the
// from-scratch reference engine — no fallback, no drift. Runs on both sides
// of the SIMD dispatch.
TEST(SimdParity, WideShardedHistogramsMatchPackedAndReference) {
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 37,
                                            0.02);
  const Dataset data = trace_dataset(trace::SyntheticTraceGenerator(gen).generate());
  ASSERT_GT(data.rows(), 1024u);
  GBDTConfig cfg;
  cfg.n_trees = 8;
  GBDTConfig ref_cfg = cfg;
  ref_cfg.engine = GBDTEngine::kReference;

  GBDTRegressor default_cap_model(cfg);
  default_cap_model.fit(data);
  GBDTRegressor ref_model(ref_cfg);
  ref_model.fit(data);

  for (const bool simd_on : {true, false}) {
    ScopedSimd simd(simd_on);
    if (simd_on && !simd.active()) continue;  // covered by the scalar pass
    ScopedPackedRowLimit cap(512);
    const std::uint64_t wide_before = gbdt_wide_histogram_builds();
    GBDTRegressor sharded_model(cfg);
    sharded_model.fit(data);
    // The root (and every early node) exceeds the injected cap, so the wide
    // path must actually have run.
    EXPECT_GT(gbdt_wide_histogram_builds(), wide_before)
        << "simd=" << simd_on;
    expect_models_identical(sharded_model, default_cap_model);
    expect_models_identical(sharded_model, ref_model);
  }
}

}  // namespace
}  // namespace helios::ml

namespace helios::core {
namespace {

/// The estimator's persisted bytes: every user history, the global
/// fallbacks and the dedupe set, in canonical order.
std::vector<std::uint8_t> rolling_bytes(const RollingEstimator& rolling) {
  serialize::Writer w;
  rolling.save(w);
  return w.buffer();
}

TEST(EvaluatorParity, BatchedMatchesSerialBitwise) {
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 13,
                                            0.02);
  const trace::Trace t = trace::SyntheticTraceGenerator(gen).generate();
  const auto train =
      t.between(trace::helios_trace_begin(), from_civil(2020, 9, 1));
  const auto eval = t.between(from_civil(2020, 9, 1), trace::helios_trace_end());

  QssfConfig cfg;
  cfg.gbdt.n_trees = 15;
  for (const bool trained : {true, false}) {
    QssfService serial_svc(cfg);
    QssfService batched_svc(cfg);
    if (trained) {
      serial_svc.fit(train);
      batched_svc.fit(train);
    }
    EvalOptions serial_opts;
    serial_opts.execution = common::ExecMode::kSerial;
    OnlinePriorityEvaluator serial_eval(serial_svc, eval, serial_opts);
    EvalOptions batched_opts;
    batched_opts.execution = common::ExecMode::kParallel;
    OnlinePriorityEvaluator batched_eval(batched_svc, eval, batched_opts);

    ASSERT_EQ(serial_eval.predicted_gpu_time(),
              batched_eval.predicted_gpu_time())
        << "trained=" << trained;
    ASSERT_EQ(serial_eval.actual_gpu_time(), batched_eval.actual_gpu_time());
    for (const auto& j : eval.jobs()) {
      if (!j.is_gpu_job()) continue;
      ASSERT_EQ(serial_eval.priority_of(j), batched_eval.priority_of(j))
          << "job " << j.job_id << " trained=" << trained;
      // The service's final rolling state must match the serial feed too.
      ASSERT_EQ(serial_svc.rolling_estimate(eval, j),
                batched_svc.rolling_estimate(eval, j))
          << "job " << j.job_id << " trained=" << trained;
    }
    const std::vector<std::uint8_t> after = rolling_bytes(batched_svc.rolling());
    EXPECT_EQ(rolling_bytes(serial_svc.rolling()), after)
        << "trained=" << trained;
    // The first evaluated job finished long before the last submit, so the
    // replay folded it in; feeding it again must be a no-op.
    const auto first_gpu = std::find_if(
        eval.jobs().begin(), eval.jobs().end(),
        [](const trace::JobRecord& j) { return j.is_gpu_job(); });
    ASSERT_NE(first_gpu, eval.jobs().end());
    batched_svc.observe(eval, *first_gpu);
    EXPECT_EQ(rolling_bytes(batched_svc.rolling()), after);
  }
}

// End-to-end dispatch sweep: the whole evaluator pipeline (GBDT fit +
// batched predict_many + causal replay) must produce bit-identical
// priorities and quality vectors with SIMD forced on vs forced off.
TEST(EvaluatorParity, SimdDispatchBitIdentical) {
  {
    ScopedSimd probe(true);
    if (!probe.active()) {
      GTEST_SKIP() << "AVX2 unavailable: " << common::simd_mode();
    }
  }
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 41,
                                            0.02);
  const trace::Trace t = trace::SyntheticTraceGenerator(gen).generate();
  const auto train =
      t.between(trace::helios_trace_begin(), from_civil(2020, 9, 1));
  const auto eval = t.between(from_civil(2020, 9, 1), trace::helios_trace_end());

  QssfConfig cfg;
  cfg.gbdt.n_trees = 12;
  auto run = [&](bool simd_on) {
    ScopedSimd simd(simd_on);
    QssfService svc(cfg);
    svc.fit(train);
    OnlinePriorityEvaluator ev(svc, eval, {});
    return std::make_pair(ev.predicted_gpu_time(), ev.actual_gpu_time());
  };
  const auto simd_result = run(true);
  const auto scalar_result = run(false);
  ASSERT_EQ(simd_result.first, scalar_result.first);
  ASSERT_EQ(simd_result.second, scalar_result.second);
}

TEST(EvaluatorParity, EmptyAndCpuOnlyTraces) {
  trace::ClusterSpec spec;
  spec.name = "s";
  spec.vcs = {{"vc0", 2, 8}};
  spec.nodes = 2;
  trace::Trace empty(spec);
  trace::Trace cpu_only(spec);
  cpu_only.add(0, 100, 0, 8, "u", "vc0", "prep", trace::JobState::kCompleted);

  for (const auto execution : {common::ExecMode::kParallel, common::ExecMode::kSerial}) {
    EvalOptions opts;
    opts.execution = execution;
    QssfService svc;
    OnlinePriorityEvaluator a(svc, empty, opts);
    EXPECT_TRUE(a.predicted_gpu_time().empty());
    OnlinePriorityEvaluator b(svc, cpu_only, opts);
    EXPECT_TRUE(b.predicted_gpu_time().empty());
  }
}

}  // namespace
}  // namespace helios::core
