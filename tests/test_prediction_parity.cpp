// Golden parity suite for the prediction layer (smoke):
//
//  * GBDTRegressor::fit (sibling-subtraction, row-parallel histograms
//    accumulated in packed runs) must reproduce the from-scratch boosting
//    loop below (oracle_fit) bit-for-bit — same trees (features, split
//    bins, thresholds, leaf values, gains) and the same per-iteration
//    training RMSE — across seeds and configs on trace::synthetic-derived
//    data, the microbench_ml workload, denormal-tiny gradients, and a
//    training set large enough that node histograms span several packed
//    kernel runs. Exactness is by construction (int64 quantized gradients),
//    and this suite is the regression net for the row-set / run /
//    subtraction / leaf-tracking machinery on top.
//  * predict_many (batched, binned, tree-at-a-time) must equal predict()
//    per row, bitwise.
//  * OnlinePriorityEvaluator's batched mode (one predict_many pass for the
//    GBDT half) must reproduce the per-job serial reference — priorities,
//    prediction-quality vectors, and the service's final rolling state.
//  * The AVX2 forest walk must be bit-identical to the scalar walk:
//    predict_many and evaluator output are compared with the dispatch forced
//    on vs off. Skipped (not silently passed) where the hardware or build
//    lacks AVX2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
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

/// What the oracle fits: every tree's nodes in build order, and the training
/// RMSE before each boosting iteration.
struct OracleFit {
  std::vector<std::vector<RegressionTree::Node>> trees;
  std::vector<double> rmse;
};

/// One oracle tree: every node rebuilds its (sum, count) histograms from its
/// own rows, then scans (feature, bin) pairs in order for the first strictly
/// best variance gain. `bins[f][r]` is row r's bin of feature f.
struct OracleTree {
  const GBDTConfig& cfg;
  const FeatureBinner& binner;
  const std::vector<std::vector<std::uint8_t>>& bins;
  const QuantizedGradients& grad;
  std::vector<RegressionTree::Node> nodes;

  std::int32_t build(const std::vector<std::uint32_t>& rows, int depth) {
    const auto id = static_cast<std::size_t>(nodes.size());
    nodes.emplace_back();
    std::int64_t total_q = 0;
    for (const std::uint32_t r : rows) total_q += grad.q[r];
    const auto total_cnt = static_cast<std::int64_t>(rows.size());
    const double s = grad.inv_scale;
    const auto leaf = [&] {
      nodes[id].value = (static_cast<double>(total_q) * s) /
                        (static_cast<double>(total_cnt) + cfg.lambda);
      return static_cast<std::int32_t>(id);
    };
    if (depth >= cfg.max_depth || total_cnt < 2 * cfg.min_samples_leaf) {
      return leaf();
    }

    const double total_sum = static_cast<double>(total_q) * s;
    const double parent =
        total_sum * total_sum / (static_cast<double>(total_cnt) + cfg.lambda);
    double best_gain = 0.0;
    int best_f = -1;
    int best_b = -1;
    for (std::size_t f = 0; f < bins.size(); ++f) {
      const auto n_bins = static_cast<std::size_t>(binner.bins(f));
      std::vector<std::int64_t> sum(n_bins, 0);
      std::vector<std::int64_t> cnt(n_bins, 0);
      for (const std::uint32_t r : rows) {
        sum[bins[f][r]] += grad.q[r];
        ++cnt[bins[f][r]];
      }
      std::int64_t left_q = 0;
      std::int64_t left_cnt = 0;
      for (std::size_t b = 0; b + 1 < n_bins; ++b) {
        left_q += sum[b];
        left_cnt += cnt[b];
        const std::int64_t right_cnt = total_cnt - left_cnt;
        if (left_cnt < cfg.min_samples_leaf) continue;
        if (right_cnt < cfg.min_samples_leaf) break;
        const double ls = static_cast<double>(left_q) * s;
        const double rs = static_cast<double>(total_q - left_q) * s;
        const double gain =
            ls * ls / (static_cast<double>(left_cnt) + cfg.lambda) +
            rs * rs / (static_cast<double>(right_cnt) + cfg.lambda) - parent;
        if (gain > best_gain) {
          best_gain = gain;
          best_f = static_cast<int>(f);
          best_b = static_cast<int>(b);
        }
      }
    }
    if (best_f < 0 || best_gain <= 1e-12) return leaf();

    std::vector<std::uint32_t> left_rows;
    std::vector<std::uint32_t> right_rows;
    for (const std::uint32_t r : rows) {
      (bins[static_cast<std::size_t>(best_f)][r] <= best_b ? left_rows
                                                           : right_rows)
          .push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) return leaf();
    nodes[id].feature = best_f;
    nodes[id].split_bin = best_b;
    nodes[id].threshold = binner.edge(static_cast<std::size_t>(best_f), best_b);
    nodes[id].gain = best_gain;
    const std::int32_t left = build(left_rows, depth + 1);
    const std::int32_t right = build(right_rows, depth + 1);
    nodes[id].left = left;
    nodes[id].right = right;
    return static_cast<std::int32_t>(id);
  }
};

/// From-scratch boosting loop with GBDTRegressor::fit's contract: one Rng
/// stream draws the row cap, the binner's quantile sample and each tree's
/// Bernoulli row sample, in that order; each tree fits the quantized
/// residuals of the sampled rows; every row then walks the new tree on its
/// raw feature values to update its prediction. It shares only the binner,
/// the gradient quantizer and the Rng with the library.
OracleFit oracle_fit(const Dataset& full, const GBDTConfig& cfg) {
  OracleFit out;
  Rng rng(cfg.seed);
  Dataset data(full.features());
  const bool capped =
      cfg.max_training_rows > 0 && full.rows() > cfg.max_training_rows;
  const double keep = static_cast<double>(cfg.max_training_rows) /
                      static_cast<double>(full.rows());
  for (std::size_t r = 0; r < full.rows(); ++r) {
    if (!capped || rng.bernoulli(keep)) data.add_row(full.row(r), full.target(r));
  }
  const std::size_t n = data.rows();
  if (n == 0) return out;

  double base = 0.0;
  for (std::size_t r = 0; r < n; ++r) base += data.target(r);
  base /= static_cast<double>(n);

  FeatureBinner binner;
  binner.fit(data, cfg.max_bins, rng);
  std::vector<std::vector<std::uint8_t>> bins(data.features(),
                                              std::vector<std::uint8_t>(n));
  for (std::size_t f = 0; f < data.features(); ++f) {
    for (std::size_t r = 0; r < n; ++r) bins[f][r] = binner.bin(f, data.at(r, f));
  }

  std::vector<double> prediction(n, base);
  std::vector<double> residuals(n);
  for (int t = 0; t < cfg.n_trees; ++t) {
    double sq = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      residuals[r] = data.target(r) - prediction[r];
      sq += residuals[r] * residuals[r];
    }
    out.rmse.push_back(std::sqrt(sq / static_cast<double>(n)));
    std::vector<std::uint32_t> rows;
    for (std::size_t r = 0; r < n; ++r) {
      if (cfg.subsample >= 1.0 || rng.bernoulli(cfg.subsample)) {
        rows.push_back(static_cast<std::uint32_t>(r));
      }
    }
    if (rows.size() < static_cast<std::size_t>(2 * cfg.min_samples_leaf) ||
        rows.empty()) {
      break;
    }
    const QuantizedGradients grad = QuantizedGradients::from(residuals);
    OracleTree tree{cfg, binner, bins, grad, {}};
    tree.build(rows, 0);
    for (std::size_t r = 0; r < n; ++r) {
      std::size_t i = 0;
      while (tree.nodes[i].feature >= 0) {
        const auto& node = tree.nodes[i];
        const double v = data.at(r, static_cast<std::size_t>(node.feature));
        i = static_cast<std::size_t>(v <= node.threshold ? node.left : node.right);
      }
      prediction[r] += cfg.learning_rate * tree.nodes[i].value;
    }
    out.trees.push_back(std::move(tree.nodes));
  }
  return out;
}

/// Fits the library's model and the oracle on the same input and requires
/// the same trees and the same training-RMSE curve, bit for bit.
void expect_fit_matches_oracle(const Dataset& data, const GBDTConfig& cfg) {
  GBDTRegressor model(cfg);
  model.fit(data);
  ASSERT_TRUE(model.trained());
  const OracleFit oracle = oracle_fit(data, cfg);
  ASSERT_EQ(model.training_rmse().size(), oracle.rmse.size());
  for (std::size_t i = 0; i < oracle.rmse.size(); ++i) {
    ASSERT_EQ(model.training_rmse()[i], oracle.rmse[i]) << "rmse @" << i;
  }
  ASSERT_EQ(model.tree_count(), oracle.trees.size());
  for (std::size_t t = 0; t < oracle.trees.size(); ++t) {
    const auto& na = model.trees()[t].nodes();
    const auto& nb = oracle.trees[t];
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

/// microbench_ml's GBDT config (BM_GbdtFit), at test size.
GBDTConfig microbench_config() {
  GBDTConfig cfg;
  cfg.n_trees = 20;
  cfg.max_depth = 6;
  cfg.learning_rate = 0.12;
  cfg.min_samples_leaf = 30;
  cfg.subsample = 0.7;
  cfg.max_bins = 64;
  return cfg;
}

TEST(GbdtEngineParity, BitIdenticalAcrossSeedsAndConfigs) {
  for (const std::uint64_t seed : {11ull, 29ull}) {
    auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                              seed, 0.02);
    const Dataset data = trace_dataset(trace::SyntheticTraceGenerator(gen).generate());
    ASSERT_GT(data.rows(), 1000u);

    GBDTConfig configs[4];
    configs[0].n_trees = 10;
    configs[1].n_trees = 8;
    configs[1].max_depth = 4;
    configs[1].max_bins = 33;
    configs[1].subsample = 1.0;
    configs[2].n_trees = 8;
    configs[2].min_samples_leaf = 5;
    configs[2].max_training_rows = data.rows() / 2;
    configs[3] = microbench_config();
    for (GBDTConfig cfg : configs) {
      cfg.seed = seed;
      expect_fit_matches_oracle(data, cfg);
    }
  }
}

// microbench_ml's own input: mixed continuous and small-integer features, the
// shape of the QSSF encoding, 20k rows.
TEST(GbdtEngineParity, MicrobenchWorkloadMatchesOracle) {
  Rng rng(7);
  Dataset data(9);
  std::vector<double> row(9);
  for (int r = 0; r < 20'000; ++r) {
    double y = 0.0;
    for (std::size_t f = 0; f < row.size(); ++f) {
      row[f] = (f % 2 == 0) ? rng.uniform(-1.0, 1.0)
                            : static_cast<double>(rng.uniform_int(0, 12));
      y += (f % 3 == 0 ? 2.0 : -0.5) * row[f];
    }
    data.add_row(row, y + rng.normal(0.0, 0.1));
  }
  GBDTConfig cfg = microbench_config();
  cfg.n_trees = 10;
  expect_fit_matches_oracle(data, cfg);
}

// Residuals around 1e-300 saturate the quantization scale (see
// Gbdt.DenormalTinyTargetsStayFinite); the saturated grid must still split
// and price leaves exactly as the oracle does.
TEST(GbdtEngineParity, DenormalGradientsMatchOracle) {
  Dataset data(1);
  for (int i = 0; i < 200; ++i) {
    const double row[] = {static_cast<double>(i % 7)};
    data.add_row(row, 1e-300 * static_cast<double>(i % 5));
  }
  GBDTConfig cfg;
  cfg.n_trees = 5;
  cfg.min_samples_leaf = 5;
  expect_fit_matches_oracle(data, cfg);
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

// Node histograms are accumulated in packed runs of at most 16384 rows and
// unpacked between runs. At scale 0.02 no node crosses a run boundary; here
// the root holds every row (subsample 1.0), so it spans three runs at pool
// width 1 and several chunks of two runs each on wider pools.
TEST(GbdtEngineParity, HistogramRunsMatchOracle) {
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 37,
                                            0.25);
  const Dataset data = trace_dataset(trace::SyntheticTraceGenerator(gen).generate());
  ASSERT_GT(data.rows(), 2u * 16384u);
  GBDTConfig cfg;
  cfg.n_trees = 6;
  cfg.subsample = 1.0;
  expect_fit_matches_oracle(data, cfg);
}

}  // namespace
}  // namespace helios::ml

namespace helios::core {
namespace {

/// The estimator's persisted bytes: every user history and the global
/// fallbacks, in canonical order.
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
    // The replay folded in each evaluated job once: every GPU job that
    // finished by the last GPU job's submit, on top of the fitted history.
    std::int64_t expected = 0;
    if (trained) {
      for (const auto& j : train.jobs()) expected += j.is_gpu_job();
    }
    const auto last_gpu = std::find_if(
        eval.jobs().rbegin(), eval.jobs().rend(),
        [](const trace::JobRecord& j) { return j.is_gpu_job(); });
    ASSERT_NE(last_gpu, eval.jobs().rend());
    for (auto it = eval.jobs().begin(); it != last_gpu.base() - 1; ++it) {
      expected += it->is_gpu_job() &&
                  it->submit_time + it->duration <= last_gpu->submit_time;
    }
    EXPECT_EQ(batched_svc.rolling().observed_jobs(), expected)
        << "trained=" << trained;
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
