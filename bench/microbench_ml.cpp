// google-benchmark microbenchmarks for the ML kernels on the QSSF hot paths:
// GBDT training/inference, the online priority evaluator, Levenshtein
// matching, name bucketization.
//
// The BM_GbdtFit / BM_GbdtPredictMany / BM_OnlineEvaluator benches run the
// histogram engine (GBDTEngine::kHistogram) and the batched evaluator
// (common::ExecMode::kParallel); the *Reference / *Serial variants run the
// retained baselines for comparison. main() first asserts bit-for-bit
// parity — histogram-vs-reference models (same trees, same training RMSE)
// and batched-vs-serial evaluator priorities — so a perf run against a
// broken trainer fails loudly instead of reporting a meaningless speedup.
// See BENCH_ml.json for recorded before/after numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "common/simd.h"
#include "core/qssf_service.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "ml/gbdt_kernels.h"
#include "ml/levenshtein.h"
#include "serialize/binary.h"
#include "trace/synthetic.h"

namespace {

using namespace helios;

ml::Dataset make_dataset(std::size_t rows, std::size_t features, Rng& rng) {
  ml::Dataset d(features);
  std::vector<double> row(features);
  for (std::size_t r = 0; r < rows; ++r) {
    double y = 0.0;
    for (std::size_t f = 0; f < features; ++f) {
      // Mix continuous and small-integer (categorical-like) features, the
      // shape of the QSSF encoding.
      row[f] = (f % 2 == 0) ? rng.uniform(-1.0, 1.0)
                            : static_cast<double>(rng.uniform_int(0, 12));
      y += (f % 3 == 0 ? 2.0 : -0.5) * row[f];
    }
    d.add_row(row, y + rng.normal(0.0, 0.1));
  }
  return d;
}

/// Philly-scale training set: ~100k jobs (Table 1), 9 features like the
/// QSSF encoding.
const ml::Dataset& philly_dataset() {
  static const ml::Dataset d = [] {
    Rng rng(42);
    return make_dataset(100'000, 9, rng);
  }();
  return d;
}

ml::GBDTConfig philly_cfg(ml::GBDTEngine engine) {
  ml::GBDTConfig cfg;
  cfg.n_trees = 20;
  cfg.max_depth = 6;
  cfg.learning_rate = 0.12;
  cfg.min_samples_leaf = 30;
  cfg.subsample = 0.7;
  cfg.max_bins = 64;
  cfg.engine = engine;
  return cfg;
}

/// Forces the SIMD dispatch for one benchmark; restores the prior state on
/// destruction. -1 = leave the ambient dispatch alone.
class ScopedSimd {
 public:
  explicit ScopedSimd(int force) : prev_(helios::common::simd_enabled()) {
    if (force >= 0) helios::common::set_simd_enabled(force != 0);
  }
  ~ScopedSimd() { helios::common::set_simd_enabled(prev_); }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;

 private:
  bool prev_;
};

void run_fit(benchmark::State& state, ml::GBDTEngine engine) {
  const auto& data = philly_dataset();
  const auto cfg = philly_cfg(engine);
  for (auto _ : state) {
    ml::GBDTRegressor model(cfg);
    model.fit(data);
    benchmark::DoNotOptimize(model.trained());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.rows()));
}

void BM_GbdtFit(benchmark::State& state) {
  run_fit(state, ml::GBDTEngine::kHistogram);
}
void BM_GbdtFitReference(benchmark::State& state) {
  run_fit(state, ml::GBDTEngine::kReference);
}
BENCHMARK(BM_GbdtFit)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GbdtFitReference)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Raw histogram kernel (the training hot loop, no tree machinery around it)
// ---------------------------------------------------------------------------

void BM_HistogramKernel(benchmark::State& state) {
  const auto& data = philly_dataset();
  ml::FeatureBinner binner;
  Rng rng(3);
  binner.fit(data, 64, rng);
  const ml::BinnedMatrix x =
      ml::bin_dataset(data, binner, ml::BinLayout::kRowMajor);
  const auto total_bins = static_cast<std::size_t>(x.feature_offset.back());
  std::vector<std::uint32_t> rows(x.rows);
  std::iota(rows.begin(), rows.end(), 0u);
  std::vector<std::int32_t> grad(x.rows);
  Rng grng(11);
  for (auto& g : grad) {
    g = static_cast<std::int32_t>(grng.uniform_int(0, 2'000'000)) - 1'000'000;
  }
  std::vector<std::int64_t> h0(total_bins);
  std::vector<std::int64_t> h1(total_bins);
  for (auto _ : state) {
    std::fill(h0.begin(), h0.end(), 0);
    std::fill(h1.begin(), h1.end(), 0);
    ml::kernels::hist_accumulate(x.bins.data(), x.feature_offset.data(),
                                 x.features, rows.data(), 0, x.rows,
                                 grad.data(), h0.data(), h1.data());
    benchmark::DoNotOptimize(h0.data());
    benchmark::DoNotOptimize(h1.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.rows * x.features));
}

BENCHMARK(BM_HistogramKernel)->Unit(benchmark::kMillisecond);

const ml::GBDTRegressor& philly_model() {
  static const ml::GBDTRegressor model = [] {
    auto cfg = philly_cfg(ml::GBDTEngine::kHistogram);
    cfg.n_trees = 60;
    ml::GBDTRegressor m(cfg);
    m.fit(philly_dataset());
    return m;
  }();
  return model;
}

void run_predict_many(benchmark::State& state, int simd = -1) {
  ScopedSimd dispatch(simd);
  const auto& data = philly_dataset();
  const auto& model = philly_model();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_many(data).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.rows()));
}

void BM_GbdtPredictMany(benchmark::State& state) { run_predict_many(state); }
/// Batched inference with the SIMD dispatch forced off — the
/// BM_GbdtPredictMany/BM_GbdtPredictManyScalar gap is the AVX2 forest-walk
/// speedup (same binning, same tree-at-a-time scalar route PR 3 shipped).
void BM_GbdtPredictManyScalar(benchmark::State& state) {
  run_predict_many(state, /*simd=*/0);
}
/// The pre-batching inference path: one raw-feature tree walk per row.
void BM_GbdtPredictPerRow(benchmark::State& state) {
  const auto& data = philly_dataset();
  const auto& model = philly_model();
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t r = 0; r < data.rows(); ++r) {
      sum += model.predict(data.row(r));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.rows()));
}
BENCHMARK(BM_GbdtPredictMany)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GbdtPredictManyScalar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GbdtPredictPerRow)->Unit(benchmark::kMillisecond);

void BM_GbdtPredict(benchmark::State& state) {
  const auto& model = philly_model();
  const std::vector<double> probe = {0.1, 3.0, 0.3, 4.0, -0.5, 6.0, 0.0, 2.0, -0.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(probe));
  }
}
BENCHMARK(BM_GbdtPredict);

// ---------------------------------------------------------------------------
// OnlinePriorityEvaluator (QSSF rolling-origin evaluation)
// ---------------------------------------------------------------------------

struct EvalFixture {
  trace::Trace eval;
  core::QssfService service;

  EvalFixture() : eval(trace::helios_cluster("Venus")) {
    auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                              42, 0.2);
    const trace::Trace t = trace::SyntheticTraceGenerator(cfg).generate();
    const auto train =
        t.between(trace::helios_trace_begin(), from_civil(2020, 9, 1));
    eval = t.between(from_civil(2020, 9, 1), trace::helios_trace_end());
    service.fit(train);
  }

  static const EvalFixture& instance() {
    static const EvalFixture fx;
    return fx;
  }
};

void run_evaluator(benchmark::State& state, helios::common::ExecMode execution) {
  const auto& fx = EvalFixture::instance();
  core::EvalOptions opts;
  opts.execution = execution;
  std::size_t jobs = 0;
  for (auto _ : state) {
    core::QssfService svc = fx.service;  // evaluator folds jobs into the service
    core::OnlinePriorityEvaluator evaluator(svc, fx.eval, opts);
    jobs = evaluator.predicted_gpu_time().size();
    benchmark::DoNotOptimize(jobs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}

void BM_OnlineEvaluator(benchmark::State& state) {
  run_evaluator(state, helios::common::ExecMode::kParallel);
}
void BM_OnlineEvaluatorSerial(benchmark::State& state) {
  run_evaluator(state, helios::common::ExecMode::kSerial);
}
BENCHMARK(BM_OnlineEvaluator)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OnlineEvaluatorSerial)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Model persistence (serialize:: frame round trip, docs/FORMATS.md)
// ---------------------------------------------------------------------------

void BM_GbdtSave(benchmark::State& state) {
  const auto& model = philly_model();
  std::size_t bytes = 0;
  for (auto _ : state) {
    serialize::Writer w;
    model.save(w);
    const auto file = serialize::frame(w);
    bytes = file.size();
    benchmark::DoNotOptimize(file.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

void BM_GbdtLoad(benchmark::State& state) {
  const auto& model = philly_model();
  serialize::Writer w;
  model.save(w);
  const auto file = serialize::frame(w);
  for (auto _ : state) {
    const auto body = serialize::unframe(file);  // CRC + header validation
    serialize::Reader r(body);
    ml::GBDTRegressor loaded;
    loaded.load(r);
    benchmark::DoNotOptimize(loaded.tree_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(file.size()));
}
BENCHMARK(BM_GbdtSave)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GbdtLoad)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Levenshtein / name bucketization
// ---------------------------------------------------------------------------

void BM_Levenshtein(benchmark::State& state) {
  const std::string a = "u0042_train_resnet50_v1";
  const std::string b = "u0042_train_resnet101_v2";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::levenshtein(a, b));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_WithinDistanceBanded(benchmark::State& state) {
  const std::string a = "u0042_train_resnet50_v1";
  const std::string b = "u0913_preprocess_pointnet";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::within_distance(a, b, 4));
  }
}
BENCHMARK(BM_WithinDistanceBanded);

void BM_NameBucketizer(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::string> names;
  for (int u = 0; u < 100; ++u) {
    for (int t = 0; t < 10; ++t) {
      names.push_back("u" + std::to_string(1000 + u) + "_train_model" +
                      std::to_string(t) + "_v" + std::to_string(t % 4));
    }
  }
  for (auto _ : state) {
    ml::NameBucketizer buckets(0.2, /*prefix_len=*/6);
    for (const auto& n : names) benchmark::DoNotOptimize(buckets.bucket(n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(names.size()));
}
BENCHMARK(BM_NameBucketizer)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Parity gates
// ---------------------------------------------------------------------------

bool models_equal(const ml::GBDTRegressor& a, const ml::GBDTRegressor& b) {
  if (a.tree_count() != b.tree_count()) return false;
  if (a.training_rmse() != b.training_rmse()) return false;
  for (std::size_t t = 0; t < a.tree_count(); ++t) {
    const auto& na = a.trees()[t].nodes();
    const auto& nb = b.trees()[t].nodes();
    if (na.size() != nb.size()) return false;
    for (std::size_t i = 0; i < na.size(); ++i) {
      if (na[i].feature != nb[i].feature || na[i].split_bin != nb[i].split_bin ||
          na[i].threshold != nb[i].threshold || na[i].left != nb[i].left ||
          na[i].right != nb[i].right || na[i].value != nb[i].value ||
          na[i].gain != nb[i].gain) {
        return false;
      }
    }
  }
  return true;
}

/// Hard gate: the histogram engine must reproduce the reference trainer
/// bit-for-bit, and the batched evaluator the serial one, on the benchmark
/// workloads, before any timing runs.
void verify_parity() {
  Rng rng(7);
  const ml::Dataset data = make_dataset(20'000, 9, rng);
  auto cfg = philly_cfg(ml::GBDTEngine::kHistogram);
  cfg.n_trees = 10;
  auto ref_cfg = cfg;
  ref_cfg.engine = ml::GBDTEngine::kReference;
  ml::GBDTRegressor hist_model(cfg);
  ml::GBDTRegressor ref_model(ref_cfg);
  hist_model.fit(data);
  ref_model.fit(data);
  if (!models_equal(hist_model, ref_model)) {
    std::fprintf(stderr,
                 "FATAL: histogram GBDT engine diverges from the reference "
                 "trainer\n");
    std::exit(1);
  }
  const auto batched = hist_model.predict_many(data);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    if (batched[r] != hist_model.predict(data.row(r))) {
      std::fprintf(stderr,
                   "FATAL: predict_many diverges from per-row predict\n");
      std::exit(1);
    }
  }

  // SIMD-vs-scalar gate: when the AVX2 dispatch can be forced on, a batched
  // predict on each side of it must agree bit-for-bit — otherwise the
  // BM_GbdtPredictManyScalar comparison times a different computation.
  {
    const bool ambient = helios::common::simd_enabled();
    if (helios::common::set_simd_enabled(true)) {
      const auto simd_batched = hist_model.predict_many(data);
      helios::common::set_simd_enabled(false);
      if (hist_model.predict_many(data) != simd_batched) {
        std::fprintf(stderr,
                     "FATAL: AVX2 forest walk diverges from the scalar "
                     "predict path\n");
        std::exit(1);
      }
    }
    helios::common::set_simd_enabled(ambient);
  }

  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 13,
                                            0.03);
  const trace::Trace t = trace::SyntheticTraceGenerator(gen).generate();
  const auto train = t.between(trace::helios_trace_begin(), from_civil(2020, 9, 1));
  const auto eval = t.between(from_civil(2020, 9, 1), trace::helios_trace_end());
  core::QssfConfig qcfg;
  qcfg.gbdt.n_trees = 20;
  core::QssfService serial_svc(qcfg);
  core::QssfService batched_svc(qcfg);
  serial_svc.fit(train);
  batched_svc.fit(train);
  core::EvalOptions serial_opts;
  serial_opts.execution = helios::common::ExecMode::kSerial;
  core::EvalOptions batched_opts;
  batched_opts.execution = helios::common::ExecMode::kParallel;
  core::OnlinePriorityEvaluator serial_eval(serial_svc, eval, serial_opts);
  core::OnlinePriorityEvaluator batched_eval(batched_svc, eval, batched_opts);
  bool ok = serial_eval.predicted_gpu_time() == batched_eval.predicted_gpu_time() &&
            serial_eval.actual_gpu_time() == batched_eval.actual_gpu_time();
  for (const auto& j : eval.jobs()) {
    if (!ok) break;
    if (!j.is_gpu_job()) continue;
    ok = serial_eval.priority_of(j) == batched_eval.priority_of(j) &&
         serial_svc.rolling_estimate(eval, j) ==
             batched_svc.rolling_estimate(eval, j);
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FATAL: batched OnlinePriorityEvaluator diverges from the "
                 "serial reference\n");
    std::exit(1);
  }

  // Persistence gate: a model restored from its own snapshot must predict
  // bit-identically (the BM_GbdtSave/BM_GbdtLoad timings are meaningless if
  // the round trip is lossy).
  serialize::Writer w;
  hist_model.save(w);
  const auto body = serialize::unframe(serialize::frame(w));
  serialize::Reader reader(body);
  ml::GBDTRegressor loaded;
  loaded.load(reader);
  if (!models_equal(hist_model, loaded) ||
      loaded.predict_many(data) != batched) {
    std::fprintf(stderr,
                 "FATAL: GBDT save/load round trip is not bit-identical\n");
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  verify_parity();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Record which dispatch the un-suffixed benches ran under ("avx2" or
  // "scalar") in the console header and the JSON context block.
  benchmark::AddCustomContext("simd",
                              std::string(helios::common::simd_mode()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
