// Persistence suite (smoke): round-trip parity + malformed-input handling.
//
//  * For every persisted model type — GBDTRegressor, NameBucketizer,
//    RollingEstimator and QssfService — load(save(m)) must predict
//    bit-identically to m, across the same synthetic seeds/configs the
//    parity harness (test_prediction_parity) uses.
//  * Malformed input — truncation at any byte, bad magic, a future format
//    version, CRC mismatch, wrong section tags, hostile lengths, and
//    invariant-violating payloads — must throw serialize::Error with the
//    right ErrorCode, never crash or invoke UB.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/qssf_service.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "ml/levenshtein.h"
#include "serialize/binary.h"
#include "svc/prediction_server.h"
#include "trace/synthetic.h"

namespace helios {
namespace {

using serialize::Error;
using serialize::ErrorCode;

/// Save via `save`, frame, unframe, and load into `out` — the full in-memory
/// round trip every model goes through on disk.
template <typename SaveFn, typename LoadFn>
void round_trip(SaveFn&& save, LoadFn&& load) {
  serialize::Writer w;
  save(w);
  const std::vector<std::uint8_t> file = serialize::frame(w);
  const std::vector<std::uint8_t> body = serialize::unframe(file);
  serialize::Reader r(body);
  load(r);
  r.close("frame body");
}

ml::Dataset trace_dataset(const trace::Trace& t) {
  ml::Dataset d(7);
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

trace::Trace venus_trace(std::uint64_t seed) {
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                            seed, 0.02);
  return trace::SyntheticTraceGenerator(gen).generate();
}

void expect_models_identical(const ml::GBDTRegressor& a,
                             const ml::GBDTRegressor& b) {
  ASSERT_EQ(a.tree_count(), b.tree_count());
  ASSERT_EQ(a.training_rmse(), b.training_rmse());
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

// ---------------------------------------------------------------------------
// Round-trip parity
// ---------------------------------------------------------------------------

TEST(SerializeRoundTrip, GbdtBitIdenticalAcrossSeedsAndConfigs) {
  for (const std::uint64_t seed : {11ull, 29ull}) {
    const ml::Dataset data = trace_dataset(venus_trace(seed));
    ASSERT_GT(data.rows(), 1000u);

    ml::GBDTConfig configs[3];
    configs[0].n_trees = 10;
    configs[1].n_trees = 8;
    configs[1].max_depth = 4;
    configs[1].max_bins = 33;
    configs[1].subsample = 1.0;
    configs[2].n_trees = 8;
    configs[2].min_samples_leaf = 5;
    configs[2].max_training_rows = data.rows() / 2;
    for (ml::GBDTConfig cfg : configs) {
      cfg.seed = seed;
      ml::GBDTRegressor model(cfg);
      model.fit(data);
      ASSERT_TRUE(model.trained());

      ml::GBDTRegressor loaded;
      round_trip([&](serialize::Writer& w) { model.save(w); },
                 [&](serialize::Reader& r) { loaded.load(r); });

      expect_models_identical(model, loaded);
      const auto& c = loaded.config();
      EXPECT_EQ(c.n_trees, cfg.n_trees);
      EXPECT_EQ(c.seed, cfg.seed);
      EXPECT_EQ(c.max_training_rows, cfg.max_training_rows);

      const auto batched = model.predict_many(data);
      const auto loaded_batched = loaded.predict_many(data);
      ASSERT_EQ(batched, loaded_batched);
      for (std::size_t r = 0; r < data.rows(); r += 97) {
        ASSERT_EQ(model.predict(data.row(r)), loaded.predict(data.row(r)))
            << "row " << r;
      }
    }
  }
}

TEST(SerializeRoundTrip, UntrainedGbdt) {
  ml::GBDTRegressor model;
  ml::GBDTRegressor loaded;
  round_trip([&](serialize::Writer& w) { model.save(w); },
             [&](serialize::Reader& r) { loaded.load(r); });
  EXPECT_FALSE(loaded.trained());
  const double probe[3] = {1.0, 2.0, 3.0};
  EXPECT_EQ(model.predict(probe), loaded.predict(probe));
}

TEST(SerializeRoundTrip, NameBucketizerKeepsAssignments) {
  ml::NameBucketizer buckets(0.2, /*prefix_len=*/6);
  std::vector<std::string> names;
  for (int u = 0; u < 20; ++u) {
    for (int t = 0; t < 5; ++t) {
      names.push_back("u" + std::to_string(1000 + u) + "_train_model" +
                      std::to_string(t) + "_v" + std::to_string(t % 3));
    }
  }
  std::vector<std::uint32_t> ids;
  for (const auto& n : names) ids.push_back(buckets.bucket(n));

  ml::NameBucketizer loaded;
  round_trip([&](serialize::Writer& w) { buckets.save(w); },
             [&](serialize::Reader& r) { loaded.load(r); });
  ASSERT_EQ(buckets.bucket_count(), loaded.bucket_count());
  ASSERT_EQ(buckets.representatives(), loaded.representatives());
  // Replaying the same names — and growing with fresh ones — must agree.
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(loaded.bucket(names[i]), ids[i]) << names[i];
  }
  for (int t = 0; t < 5; ++t) {
    const std::string fresh = "u9999_eval_model" + std::to_string(t);
    ASSERT_EQ(buckets.bucket(fresh), loaded.bucket(fresh)) << fresh;
  }
}

TEST(SerializeRoundTrip, RollingEstimatorStateAndDedupe) {
  const trace::Trace t = venus_trace(17);
  core::QssfConfig cfg;
  core::RollingEstimator rolling(cfg);
  for (const auto& job : t.jobs()) rolling.observe(t, job);
  ASSERT_GT(rolling.observed_jobs(), 0);

  core::RollingEstimator loaded;
  round_trip([&](serialize::Writer& w) { rolling.save(w); },
             [&](serialize::Reader& r) { loaded.load(r); });

  ASSERT_EQ(rolling.observed_jobs(), loaded.observed_jobs());
  for (const auto& job : t.jobs()) {
    if (!job.is_gpu_job()) continue;
    ASSERT_EQ(rolling.estimate(t, job), loaded.estimate(t, job))
        << "job " << job.job_id;
  }
  // Dedupe keys survived: re-feeding the very same trace is a no-op.
  const std::int64_t before = loaded.observed_jobs();
  for (const auto& job : t.jobs()) loaded.observe(t, job);
  EXPECT_EQ(loaded.observed_jobs(), before);
  // And both copies keep evolving identically on genuinely new jobs.
  trace::Trace more = t;
  auto& fresh = more.add(trace::helios_trace_end() + 60, 1234, 4, 16, "new_u",
                         "vc42", "train_llm_v9", trace::JobState::kCompleted);
  fresh.job_id = 1u << 30;
  rolling.observe(more, fresh);
  loaded.observe(more, fresh);
  for (const auto& job : more.jobs()) {
    if (!job.is_gpu_job()) continue;
    ASSERT_EQ(rolling.estimate(more, job), loaded.estimate(more, job));
  }
}

TEST(SerializeRoundTrip, QssfServiceWarmRestart) {
  const trace::Trace t = venus_trace(13);
  const auto train =
      t.between(trace::helios_trace_begin(), from_civil(2020, 9, 1));
  const auto eval = t.between(from_civil(2020, 9, 1), trace::helios_trace_end());

  core::QssfConfig cfg;
  cfg.gbdt.n_trees = 10;
  core::QssfService service(cfg);
  service.fit(train);

  core::QssfService loaded;
  round_trip([&](serialize::Writer& w) { service.save(w); },
             [&](serialize::Reader& r) { loaded.load(r); });

  ASSERT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.config().lambda, cfg.lambda);
  EXPECT_EQ(loaded.config().gbdt.n_trees, cfg.gbdt.n_trees);
  for (const auto& job : eval.jobs()) {
    if (!job.is_gpu_job()) continue;
    ASSERT_EQ(service.rolling_estimate(eval, job),
              loaded.rolling_estimate(eval, job))
        << "job " << job.job_id;
    ASSERT_EQ(service.ml_estimate(eval, job), loaded.ml_estimate(eval, job))
        << "job " << job.job_id;
    ASSERT_EQ(service.priority(eval, job), loaded.priority(eval, job))
        << "job " << job.job_id;
  }

  // The full evaluation — including the rolling state both services end up
  // with — must be indistinguishable from the original's.
  core::OnlinePriorityEvaluator orig_eval(service, eval);
  core::OnlinePriorityEvaluator loaded_eval(loaded, eval);
  ASSERT_EQ(orig_eval.predicted_gpu_time(), loaded_eval.predicted_gpu_time());
  ASSERT_EQ(orig_eval.actual_gpu_time(), loaded_eval.actual_gpu_time());
  for (const auto& job : eval.jobs()) {
    if (!job.is_gpu_job()) continue;
    ASSERT_EQ(orig_eval.priority_of(job), loaded_eval.priority_of(job));
    ASSERT_EQ(service.rolling_estimate(eval, job),
              loaded.rolling_estimate(eval, job));
  }
}

TEST(SerializeRoundTrip, QssfServiceLimitedInfoMode) {
  const trace::Trace t = venus_trace(23);
  const auto train =
      t.between(trace::helios_trace_begin(), from_civil(2020, 7, 1));
  core::QssfConfig cfg;
  cfg.use_names = false;
  cfg.gbdt.n_trees = 6;
  core::QssfService service(cfg);
  service.fit(train);
  core::QssfService loaded;
  round_trip([&](serialize::Writer& w) { service.save(w); },
             [&](serialize::Reader& r) { loaded.load(r); });
  EXPECT_FALSE(loaded.config().use_names);
  for (const auto& job : t.jobs()) {
    if (!job.is_gpu_job()) continue;
    ASSERT_EQ(service.priority(t, job), loaded.priority(t, job));
  }
}

TEST(SerializeRoundTrip, FileIo) {
  const ml::Dataset data = trace_dataset(venus_trace(11));
  ml::GBDTConfig cfg;
  cfg.n_trees = 6;
  ml::GBDTRegressor model(cfg);
  model.fit(data);

  const std::string path = testing::TempDir() + "helios_model_roundtrip.bin";
  serialize::save_file(path, model);

  // load_file validates the frame, loads, and rejects trailing bytes — and
  // is byte-equivalent to the longhand write_file/read_file pair.
  const auto loaded = serialize::load_file<ml::GBDTRegressor>(path);
  expect_models_identical(model, loaded);

  serialize::Writer w;
  model.save(w);
  EXPECT_EQ(serialize::read_file(path), serialize::unframe(serialize::frame(w)));

  // In-place overload (for non-default-constructible types).
  ml::GBDTRegressor in_place;
  serialize::load_file(path, in_place);
  expect_models_identical(model, in_place);
  std::remove(path.c_str());

  EXPECT_THROW(
      { auto missing = serialize::read_file(path); (void)missing; }, Error);
  EXPECT_THROW(
      { auto missing = serialize::load_file<ml::GBDTRegressor>(path); (void)missing; },
      Error);
}

// ---------------------------------------------------------------------------
// Malformed input
// ---------------------------------------------------------------------------

/// A small but real frame to corrupt: a trained QSSF service.
const std::vector<std::uint8_t>& sample_frame() {
  static const std::vector<std::uint8_t> file = [] {
    trace::ClusterSpec spec;
    spec.name = "s";
    spec.vcs = {{"vc0", 2, 8}};
    spec.nodes = 2;
    trace::Trace t(spec);
    for (int i = 0; i < 50; ++i) {
      t.add(600 * i, 300 + 10 * i, 1 + i % 4, 8, "u" + std::to_string(i % 5),
            "vc0", "train_job_v" + std::to_string(i % 7),
            trace::JobState::kCompleted);
    }
    core::QssfConfig cfg;
    cfg.gbdt.n_trees = 3;
    core::QssfService service(cfg);
    service.fit(t);
    serialize::Writer w;
    service.save(w);
    return serialize::frame(w);
  }();
  return file;
}

void expect_error(const std::vector<std::uint8_t>& file, ErrorCode code) {
  try {
    const auto body = serialize::unframe(file);
    serialize::Reader r(body);
    core::QssfService svc;
    svc.load(r);
    FAIL() << "expected serialize::Error " << serialize::to_string(code);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

TEST(SerializeMalformed, BadMagic) {
  auto file = sample_frame();
  file[0] ^= 0x40;
  expect_error(file, ErrorCode::kBadMagic);
}

TEST(SerializeMalformed, FutureFormatVersion) {
  // Craft a structurally valid frame claiming version kFormatVersion + 1
  // (CRC recomputed, so only the version is "wrong").
  serialize::Writer raw;
  raw.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(serialize::kMagic), 8));
  raw.u32(serialize::kFormatVersion + 1);
  raw.u32(0);
  raw.str("payload from the future");
  serialize::Writer file = std::move(raw);
  file.u32(serialize::crc32(file.buffer()));
  expect_error(file.buffer(), ErrorCode::kUnsupportedVersion);
}

TEST(SerializeMalformed, CrcMismatch) {
  auto file = sample_frame();
  file[file.size() / 2] ^= 0x01;  // body bit flip
  expect_error(file, ErrorCode::kCrcMismatch);
}

TEST(SerializeMalformed, TruncationAtEveryByte) {
  const auto& file = sample_frame();
  // Every strict prefix must throw a typed Error — never crash, never
  // produce a usable model. Step 1 keeps the sweep exhaustive.
  for (std::size_t len = 0; len < file.size(); ++len) {
    std::vector<std::uint8_t> prefix(file.begin(),
                                     file.begin() + static_cast<long>(len));
    EXPECT_THROW(
        {
          const auto body = serialize::unframe(prefix);
          serialize::Reader r(body);
          core::QssfService svc;
          svc.load(r);
        },
        Error)
        << "prefix length " << len;
  }
}

TEST(SerializeMalformed, WrongSectionTag) {
  // A GBDT body handed to QssfService::load -> kBadSection, and vice versa.
  ml::GBDTRegressor model;
  serialize::Writer w;
  model.save(w);
  serialize::Reader r(w.buffer());
  core::QssfService svc;
  try {
    svc.load(r);
    FAIL() << "expected kBadSection";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadSection);
  }
}

TEST(SerializeMalformed, HostileLengthRejectedBeforeAllocation) {
  // A declared element count far beyond the payload must be rejected by
  // Reader::length() without attempting the allocation.
  serialize::Writer w;
  w.u64(std::uint64_t{1} << 60);
  serialize::Reader r(w.buffer());
  try {
    const auto v = r.vec_f64();
    FAIL() << "expected kTruncated, got vector of " << v.size();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTruncated);
  }
}

TEST(SerializeMalformed, TreeWithBadChildLinksRejected) {
  // Interior nodes split feature 0 at bin 10; leaves (left < 0) hold 42 at
  // node 8 and 0 elsewhere. Both shapes must be rejected as corrupt:
  //  * one interior node pointing at itself would loop forever in predict();
  //  * 0->(1,4) 1->(2,3) 2->(5,6) 4->(5,7) 5->(8,9) has every child index
  //    above its parent's, but node 5 hangs under both 2 (depth 3) and 4
  //    (depth 2). predict() reaches leaf 8 along 0-1-2-5-8, while
  //    PackedForest, taking node 5's depth from its last parent, padded the
  //    tree one level short and its walk returned 0.
  struct Link {
    std::int32_t left, right;
  };
  const std::vector<std::vector<Link>> trees = {
      {{0, 0}},
      {{1, 4}, {2, 3}, {5, 6}, {-1, -1}, {5, 7},
       {8, 9}, {-1, -1}, {-1, -1}, {-1, -1}, {-1, -1}},
  };
  for (const auto& links : trees) {
    serialize::Writer w;
    w.begin_section(serialize::fourcc("TREE"));
    w.u32(1);  // section version
    w.u64(links.size());
    for (std::size_t i = 0; i < links.size(); ++i) {
      const bool interior = links[i].left >= 0;
      w.i32(interior ? 0 : -1);   // feature 0, or a leaf
      w.i32(interior ? 10 : -1);  // split_bin
      w.f64(interior ? 10.5 : 0.0);
      w.i32(links[i].left);
      w.i32(links[i].right);
      w.f64(i == 8 ? 42.0 : 0.0);
      w.f64(0.0);
    }
    w.end_section();
    serialize::Reader r(w.buffer());
    ml::RegressionTree tree;
    try {
      tree.load(r, /*n_features=*/1);
      FAIL() << "expected kCorrupt for a " << links.size() << "-node tree";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorrupt) << e.what();
    }
  }
}

TEST(SerializeMalformed, TreesWithoutMatchingBinnerRejected) {
  // A model claiming trees but shipping an empty binner would make
  // predict_many index a zero-feature BinnedMatrix; load must reject it.
  serialize::Writer w;
  w.begin_section(serialize::fourcc("GBDT"));
  w.u32(1);    // section version
  w.i32(1);    // n_trees
  w.i32(6);    // max_depth
  w.f64(0.1);  // learning_rate
  w.i32(20);   // min_samples_leaf
  w.f64(0.8);  // subsample
  w.i32(64);   // max_bins
  w.f64(1.0);  // lambda
  w.u64(42);   // seed
  w.u64(0);    // max_training_rows
  w.u8(0);     // engine
  w.f64(1.5);  // base prediction
  w.u64(1);    // n_features
  w.u64(0);    // empty rmse vector
  w.begin_section(serialize::fourcc("BINR"));
  w.u32(1);    // version
  w.u64(0);    // zero features despite n_features = 1
  w.end_section();
  w.u64(1);    // one tree
  w.begin_section(serialize::fourcc("TREE"));
  w.u32(1);    // version
  w.u64(1);    // one leaf node
  w.i32(-1);   // feature < 0 -> leaf
  w.i32(-1);
  w.f64(0.0);
  w.i32(-1);
  w.i32(-1);
  w.f64(2.0);
  w.f64(0.0);
  w.end_section();
  w.end_section();
  serialize::Reader r(w.buffer());
  ml::GBDTRegressor loaded;
  try {
    loaded.load(r);
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
  }
}

TEST(SerializeMalformed, GbdtEngineIdOneLoadsAsTheOneEngine) {
  // Byte 72 of the section is the engine id. A stored 1 came from a second
  // trainer that fit bit-identical trees, so it loads as the one engine; a
  // value above 1 was never written.
  const ml::Dataset data = trace_dataset(venus_trace(11));
  ml::GBDTConfig cfg;
  cfg.n_trees = 4;
  ml::GBDTRegressor model(cfg);
  model.fit(data);
  serialize::Writer w;
  model.save(w);
  std::vector<std::uint8_t> body = w.buffer();
  ASSERT_EQ(body[72], 0);
  body[72] = 1;
  {
    serialize::Reader r(body);
    ml::GBDTRegressor loaded;
    loaded.load(r);
    expect_models_identical(model, loaded);
    ASSERT_EQ(model.predict_many(data), loaded.predict_many(data));
    serialize::Writer again;
    loaded.save(again);
    EXPECT_EQ(again.buffer(), w.buffer());  // re-saved as 0
  }
  body[72] = 2;
  serialize::Reader r(body);
  ml::GBDTRegressor loaded;
  try {
    loaded.load(r);
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt) << e.what();
  }
}

TEST(SerializeMalformed, GbdtByteMutationsNeverPriceNonFinite) {
  // Every byte of a small model's section, set to 0x7F and then to 0xFF:
  // the load either throws, or the model it adopts predicts finite values
  // on every row through both predict paths. 0x7F in an f64's top byte
  // makes it ~1e307 (or NaN), 0xFF makes it negative and huge (or NaN).
  Rng rng(5);
  ml::Dataset data(3);
  std::vector<double> row(3);
  for (int i = 0; i < 400; ++i) {
    for (auto& v : row) v = rng.uniform(-2.0, 2.0);
    data.add_row(row, 5.0 + 2.0 * row[0] - row[1] + rng.normal(0.0, 0.1));
  }
  ml::GBDTConfig cfg;
  cfg.n_trees = 4;
  cfg.max_depth = 3;
  cfg.max_bins = 16;
  cfg.min_samples_leaf = 10;
  ml::GBDTRegressor model(cfg);
  model.fit(data);
  ASSERT_EQ(model.tree_count(), 4u);
  serialize::Writer w;
  model.save(w);
  const std::vector<std::uint8_t>& clean = w.buffer();
  std::size_t adopted = 0;
  for (std::size_t at = 0; at < clean.size(); ++at) {
    for (const std::uint8_t b : {std::uint8_t{0x7F}, std::uint8_t{0xFF}}) {
      std::vector<std::uint8_t> body = clean;
      body[at] = b;
      serialize::Reader r(body);
      ml::GBDTRegressor loaded;
      try {
        loaded.load(r);
      } catch (const Error&) {
        continue;
      }
      ++adopted;
      const std::vector<double> batched = loaded.predict_many(data);
      for (std::size_t i = 0; i < data.rows(); ++i) {
        ASSERT_TRUE(std::isfinite(loaded.predict(data.row(i))))
            << "byte " << at << " = " << int{b} << ", row " << i;
        ASSERT_TRUE(std::isfinite(batched[i]))
            << "byte " << at << " = " << int{b} << ", row " << i;
      }
    }
  }
  EXPECT_GT(adopted, 0u);  // the sweep reaches the predict paths
}

/// A small but genuinely trained GBDT with an unusual feature width, for
/// crafting cross-layer width-mismatch payloads.
ml::GBDTRegressor trained_model(std::size_t n_features) {
  Rng rng(9);
  ml::Dataset data(n_features);
  std::vector<double> row(n_features);
  for (int i = 0; i < 800; ++i) {
    double y = 0.0;
    for (std::size_t f = 0; f < n_features; ++f) {
      row[f] = rng.uniform(-1.0, 1.0);
      y += (f % 2 == 0 ? 1.0 : -0.5) * row[f];
    }
    data.add_row(row, y);
  }
  ml::GBDTConfig cfg;
  cfg.n_trees = 2;
  cfg.min_samples_leaf = 10;
  ml::GBDTRegressor model(cfg);
  model.fit(data);
  return model;
}

TEST(SerializeMalformed, EmptyTreeRejected) {
  // leaf_for_binned reads nodes_[0] unconditionally; a zero-node tree must
  // be refused at load time.
  serialize::Writer w;
  w.begin_section(serialize::fourcc("TREE"));
  w.u32(1);  // section version
  w.u64(0);  // zero nodes
  w.end_section();
  serialize::Reader r(w.buffer());
  ml::RegressionTree tree;
  try {
    tree.load(r, /*n_features=*/4);
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
  }
}

TEST(SerializeMalformed, QssfFeatureWidthMismatchRejected) {
  // A QSSF snapshot embedding an internally-consistent GBDT trained on 16
  // features: every section validates in isolation, but the service always
  // encodes 9-feature rows, so load must reject the pairing.
  const ml::GBDTRegressor wide = trained_model(16);
  ASSERT_TRUE(wide.trained());
  serialize::Writer w;
  w.begin_section(serialize::fourcc("QSSF"));
  w.u32(1);     // section version
  w.f64(0.45);  // lambda
  w.f64(0.20);  // name_match_threshold
  w.f64(0.75);  // rolling_decay
  w.u64(64);    // max_names_per_user
  w.u8(1);      // use_names
  wide.save(w);
  ml::NameBucketizer().save(w);
  core::RollingEstimator().save(w);
  w.end_section();
  serialize::Reader r(w.buffer());
  core::QssfService svc;
  try {
    svc.load(r);
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
  }
}

/// Knob values the rolling estimator cannot run with: a negative, NaN or
/// out-of-range threshold reaches a double -> size_t conversion, a decay
/// outside [0, 1] makes the EWMAs negative or unbounded, and a zero name cap
/// makes observe's eviction erase the end of an empty list.
struct RollingKnobs {
  double threshold;
  std::uint64_t max_names;
  double decay = 0.75;
};
const std::vector<RollingKnobs>& unusable_knobs() {
  static const std::vector<RollingKnobs> knobs = {
      {-0.1, 64},
      {std::numeric_limits<double>::quiet_NaN(), 64},
      {std::numeric_limits<double>::infinity(), 64},
      {1.5, 64},
      {0.20, 0},
      {0.20, 64, -0.1},
      {0.20, 64, std::numeric_limits<double>::quiet_NaN()},
      {0.20, 64, std::numeric_limits<double>::infinity()},
      {0.20, 64, 1.5},
  };
  return knobs;
}

/// A hand-built ROLL section, otherwise valid, carrying the given knobs.
serialize::Writer rolling_section(const RollingKnobs& knobs) {
  serialize::Writer w;
  w.begin_section(serialize::fourcc("ROLL"));
  w.u32(1);                 // section version
  w.u8(1);                  // use_names
  w.f64(knobs.threshold);   // name_match_threshold
  w.f64(knobs.decay);       // rolling_decay
  w.u64(knobs.max_names);   // max_names_per_user
  w.f64(0.0);               // global_duration_sum
  w.i64(0);                 // global_jobs
  w.u64(0);                 // observe_counter
  w.u64(0);                 // global_by_gpus: no entries
  w.u64(0);                 // users: none
  w.vec_u64({});            // observed ids: none
  w.end_section();
  return w;
}

TEST(SerializeMalformed, RollingKnobsRejected) {
  {
    // Control: the same section with the default knobs loads.
    const serialize::Writer w = rolling_section({0.20, 64});
    serialize::Reader r(w.buffer());
    core::RollingEstimator rolling;
    rolling.load(r);
    EXPECT_EQ(rolling.observed_jobs(), 0);
  }
  for (const RollingKnobs& knobs : unusable_knobs()) {
    const serialize::Writer w = rolling_section(knobs);
    serialize::Reader r(w.buffer());
    core::RollingEstimator rolling;
    try {
      rolling.load(r);
      FAIL() << "expected kCorrupt for threshold " << knobs.threshold
             << " max_names " << knobs.max_names << " decay " << knobs.decay;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorrupt) << e.what();
    }
  }
}

TEST(SerializeMalformed, QssfKnobsRejected) {
  // The QSSF section carries its own copy of the knobs, ahead of the embedded
  // ROLL section; a checkpoint whose copy a fresh service would refuse is
  // refused too.
  for (const RollingKnobs& knobs : unusable_knobs()) {
    serialize::Writer w;
    w.begin_section(serialize::fourcc("QSSF"));
    w.u32(1);                // section version
    w.f64(0.45);             // lambda
    w.f64(knobs.threshold);  // name_match_threshold
    w.f64(knobs.decay);      // rolling_decay
    w.u64(knobs.max_names);  // max_names_per_user
    w.u8(1);                 // use_names
    ml::GBDTRegressor().save(w);
    ml::NameBucketizer().save(w);
    core::RollingEstimator().save(w);
    w.end_section();
    serialize::Reader r(w.buffer());
    core::QssfService svc;
    try {
      svc.load(r);
      FAIL() << "expected kCorrupt for threshold " << knobs.threshold
             << " max_names " << knobs.max_names << " decay " << knobs.decay;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorrupt) << e.what();
    }
  }
}

TEST(SerializeMalformed, QssfLambdaOutsideUnitIntervalRejected) {
  // λ is the f64 at offset 16 of the section (tag, length, version before
  // it); its top byte is 23. Setting that byte to 0x7F makes λ about 1e307,
  // and to 0xFF makes it NaN: either prices every job out of range.
  serialize::Writer w;
  core::QssfService().save(w);
  for (const std::uint8_t top : {std::uint8_t{0x7F}, std::uint8_t{0xFF}}) {
    std::vector<std::uint8_t> body = w.buffer();
    body[23] = top;
    serialize::Reader r(body);
    core::QssfService svc;
    try {
      svc.load(r);
      FAIL() << "expected kCorrupt for lambda " << svc.config().lambda;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorrupt) << e.what();
    }
  }
}

/// A small QSSF training trace: four users, five name templates and four
/// GPU demands, so the rolling state holds per-user, per-name and per-GPU
/// entries.
trace::Trace small_qssf_trace() {
  trace::ClusterSpec spec;
  spec.name = "s";
  spec.vcs = {{"vc0", 4, 8}};
  spec.nodes = 4;
  trace::Trace t(spec);
  for (int i = 0; i < 40; ++i) {
    t.add(600 * i, 300 + 37 * i, 1 << (i % 4), 8, "u" + std::to_string(i % 4),
          "vc0", "train_job_v" + std::to_string(i % 5),
          trace::JobState::kCompleted);
  }
  return t;
}

/// A QSSF fit on small_qssf_trace() with 2 trees. min_samples_leaf is
/// lowered so that 40 rows split at all; the default 30 leaves no tree.
core::QssfService small_trained_qssf(const trace::Trace& t, double lambda) {
  core::QssfConfig cfg;
  cfg.lambda = lambda;
  cfg.gbdt.n_trees = 2;
  cfg.gbdt.min_samples_leaf = 4;
  core::QssfService service(cfg);
  service.fit(t);
  return service;
}

/// The trace plus jobs that reach the estimator's other branches: an unseen
/// user, a known user's new name, and a GPU demand never observed.
trace::Trace probe_trace(trace::Trace t) {
  const UnixTime at = 600 * 41;
  t.add(at, 60, 2, 8, "stranger", "vc0", "train_job_v0",
        trace::JobState::kCompleted);
  t.add(at, 60, 1, 8, "u1", "vc0", "eval_other_model",
        trace::JobState::kCompleted);
  t.add(at, 60, 3, 8, "u2", "vc0", "train_job_v2",
        trace::JobState::kCompleted);
  return t;
}

TEST(SerializeMalformed, QssfDurationEstimateOverflowRejected) {
  // P_M is expm1 of the GBDT's log-duration, which overflows to Inf above
  // ~709.8 although the GBDT's own worst case is still finite. With λ = 1
  // the priority takes 0 * P_M, which is NaN for an Inf P_M, so the QSSF
  // load refuses a model whose worst-case P_M is not finite.
  const trace::Trace t = small_qssf_trace();
  const core::QssfService service = small_trained_qssf(t, /*lambda=*/1.0);
  ASSERT_EQ(service.model().tree_count(), 2u);
  serialize::Writer w;
  service.save(w);
  // The QSSF header is 49 bytes: tag and length (12), version (4), three f64
  // knobs, the u64 name cap and the u8 names flag. The GBDT section's engine
  // byte is its byte 72, and the f64 base prediction follows it.
  constexpr std::size_t kEngine = 49 + 72;
  constexpr std::size_t kBase = kEngine + 1;
  const std::vector<std::uint8_t>& clean = w.buffer();
  ASSERT_EQ(clean[kEngine], 0);
  const double base =
      serialize::Reader(std::span(clean).subspan(kBase, 8)).f64();
  ASSERT_TRUE(base > 0.0 && base < 20.0) << base;  // a log1p(duration)

  const auto with_base = [&](double patched) {
    serialize::Writer f64;
    f64.f64(patched);
    std::vector<std::uint8_t> body = clean;
    std::copy(f64.buffer().begin(), f64.buffer().end(), body.begin() + kBase);
    return body;
  };

  const trace::Trace probe = probe_trace(t);
  {
    const std::vector<std::uint8_t> body = with_base(800.0);
    serialize::Reader r(body);
    core::QssfService loaded;
    try {
      loaded.load(r);
      ADD_FAILURE() << "accepted base 800, priority "
                    << loaded.priority(probe, probe.jobs().front());
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorrupt) << e.what();
    }
  }
  // expm1(700 + the leaves) is about 1e305: large, finite, and accepted.
  const std::vector<std::uint8_t> body = with_base(700.0);
  serialize::Reader r(body);
  core::QssfService loaded;
  loaded.load(r);
  for (const auto& job : probe.jobs()) {
    ASSERT_TRUE(std::isfinite(loaded.priority(probe, job)))
        << "job " << job.job_id;
  }
}

TEST(SerializeMalformed, QssfByteMutationsNeverPriceNonFinite) {
  // Every body byte of a small trained QSSF (2 trees), set to 0x7F and then
  // to 0xFF: the load either throws, or the service it adopts prices every
  // probe job finite through both query paths, the Trace-based priority()
  // and a svc::Snapshot's query().
  const trace::Trace t = small_qssf_trace();
  const core::QssfService service =
      small_trained_qssf(t, core::QssfConfig{}.lambda);
  ASSERT_EQ(service.model().tree_count(), 2u);
  serialize::Writer w;
  service.save(w);
  const std::vector<std::uint8_t>& clean = w.buffer();

  const trace::Trace probe = probe_trace(t);
  std::vector<svc::QueryRequest> requests;
  for (const auto& job : probe.jobs()) {
    svc::QueryRequest req;
    req.user = probe.user_name(job);
    req.vc = probe.vc_name(job);
    req.job_name = probe.job_name(job);
    req.num_gpus = job.num_gpus;
    req.num_cpus = job.num_cpus;
    req.submit_time = job.submit_time;
    requests.push_back(std::move(req));
  }

  std::size_t adopted = 0;
  for (std::size_t at = 0; at < clean.size(); ++at) {
    for (const std::uint8_t b : {std::uint8_t{0x7F}, std::uint8_t{0xFF}}) {
      std::vector<std::uint8_t> body = clean;
      body[at] = b;
      serialize::Reader r(body);
      core::QssfService loaded;
      try {
        loaded.load(r);
      } catch (const Error&) {
        continue;
      }
      ++adopted;
      const svc::Snapshot snapshot(loaded, probe, 0, 0);
      for (const svc::QueryRequest& req : requests) {
        const svc::QueryResult q = snapshot.query(req);
        ASSERT_TRUE(std::isfinite(q.priority) &&
                    std::isfinite(q.expected_duration))
            << "byte " << at << " = " << int{b} << ", query " << req.user
            << "/" << req.job_name << "/" << req.num_gpus;
      }
      for (const auto& job : probe.jobs()) {
        ASSERT_TRUE(std::isfinite(loaded.priority(probe, job)))
            << "byte " << at << " = " << int{b} << ", job " << job.job_id;
      }
    }
  }
  EXPECT_GT(adopted, 0u);  // the sweep reaches the pricing paths
}

TEST(SerializeMalformed, BucketizerThresholdRejected) {
  // The name bucketizer's matcher has the same double -> size_t conversion.
  for (const double threshold : {-0.1, std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(), 1.5}) {
    serialize::Writer w;
    w.begin_section(serialize::fourcc("NBKT"));
    w.u32(1);           // section version
    w.f64(threshold);
    w.u64(6);           // prefix length
    w.u64(0);           // no representatives
    w.u64(0);           // no memoized names
    w.end_section();
    serialize::Reader r(w.buffer());
    ml::NameBucketizer buckets;
    try {
      buckets.load(r);
      FAIL() << "expected kCorrupt for threshold " << threshold;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorrupt) << e.what();
    }
  }
}

TEST(SerializeMalformed, TrailingBytesRejected) {
  ml::GBDTRegressor model;
  serialize::Writer w;
  model.save(w);
  w.u8(0x5a);  // trailing garbage after the section
  serialize::Reader r(w.buffer());
  ml::GBDTRegressor loaded;
  loaded.load(r);  // section itself is fine
  try {
    r.close("test");
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
  }
}

TEST(SerializeMalformed, BinnerEdgeValidation) {
  // Unsorted edges would break FeatureBinner::bin()'s halving search.
  serialize::Writer w;
  w.begin_section(serialize::fourcc("BINR"));
  w.u32(1);   // version
  w.u64(1);   // one feature
  const double edges[3] = {1.0, 3.0, 2.0};
  w.vec_f64(edges);
  w.end_section();
  serialize::Reader r(w.buffer());
  ml::FeatureBinner binner;
  try {
    binner.load(r);
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorrupt);
  }
}

}  // namespace
}  // namespace helios
