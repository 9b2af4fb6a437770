#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/qssf_service.h"
#include "serialize/binary.h"
#include "sim/simulator.h"
#include "stats/correlation.h"
#include "trace/synthetic.h"

namespace helios::core {
namespace {

using trace::JobState;
using trace::Trace;

trace::ClusterSpec small_spec() {
  trace::ClusterSpec s;
  s.name = "small";
  s.gpus_per_node = 8;
  s.vcs = {{"vc0", 4, 8}};
  s.nodes = 4;
  return s;
}

/// History with two users: alice runs "train_bert" jobs of ~1000s and
/// "eval_bert" jobs of ~50s; bob runs 4-GPU jobs of ~5000s.
Trace make_history() {
  Trace t(small_spec());
  UnixTime at = from_civil(2020, 4, 1);
  for (int i = 0; i < 40; ++i) {
    t.add(at, 1000 + 10 * (i % 5), 1, 6, "alice", "vc0", "alice_train_bert",
          JobState::kCompleted);
    at += 3000;
    t.add(at, 50 + (i % 3), 1, 6, "alice", "vc0", "alice_eval_bert",
          JobState::kCompleted);
    at += 3000;
    t.add(at, 5000 + 100 * (i % 4), 4, 24, "bob", "vc0", "bob_train_gpt2",
          JobState::kCompleted);
    at += 3000;
  }
  t.sort_by_submit_time();
  return t;
}

QssfConfig fast_config() {
  QssfConfig cfg;
  cfg.gbdt.n_trees = 20;
  cfg.gbdt.min_samples_leaf = 5;
  return cfg;
}

TEST(QssfService, RollingUsesNameMatch) {
  QssfService svc(fast_config());
  const Trace h = make_history();
  svc.fit(h);
  Trace probe(small_spec());
  const auto& j1 = probe.add(from_civil(2020, 9, 1), 0, 1, 6, "alice", "vc0",
                             "alice_train_bert", JobState::kCompleted);
  // Rolling estimate should be near 1000s for the train template.
  EXPECT_NEAR(svc.rolling_estimate(probe, j1), 1020.0, 150.0);
  const auto& j2 = probe.add(from_civil(2020, 9, 1), 0, 1, 6, "alice", "vc0",
                             "alice_eval_bert", JobState::kCompleted);
  EXPECT_NEAR(svc.rolling_estimate(probe, j2), 51.0, 20.0);
}

TEST(QssfService, RollingNameVariantMatches) {
  QssfService svc(fast_config());
  const Trace h = make_history();
  svc.fit(h);
  Trace probe(small_spec());
  // "_v2" suffix is within the Levenshtein threshold of the stored name.
  const auto& j = probe.add(from_civil(2020, 9, 1), 0, 1, 6, "alice", "vc0",
                            "alice_train_bert_v2", JobState::kCompleted);
  EXPECT_NEAR(svc.rolling_estimate(probe, j), 1020.0, 150.0);
}

TEST(QssfService, NewNameFallsBackToUserGpuMean) {
  QssfService svc(fast_config());
  const Trace h = make_history();
  svc.fit(h);
  Trace probe(small_spec());
  const auto& j = probe.add(from_civil(2020, 9, 1), 0, 4, 24, "bob", "vc0",
                            "bob_something_completely_new", JobState::kCompleted);
  // bob's 4-GPU jobs average ~5150s.
  EXPECT_NEAR(svc.rolling_estimate(probe, j), 5150.0, 300.0);
}

TEST(QssfService, NewUserFallsBackToGlobalGpuMean) {
  QssfService svc(fast_config());
  const Trace h = make_history();
  svc.fit(h);
  Trace probe(small_spec());
  const auto& j = probe.add(from_civil(2020, 9, 1), 0, 4, 24, "carol", "vc0",
                            "carol_first_job", JobState::kCompleted);
  // Only bob ran 4-GPU jobs; the global 4-GPU mean is his.
  EXPECT_NEAR(svc.rolling_estimate(probe, j), 5150.0, 300.0);
}

TEST(QssfService, PriorityScalesWithGpuCount) {
  QssfService svc(fast_config());
  const Trace h = make_history();
  svc.fit(h);
  Trace probe(small_spec());
  const auto& j1 = probe.add(from_civil(2020, 9, 1), 0, 1, 6, "alice", "vc0",
                             "alice_train_bert", JobState::kCompleted);
  auto j8 = j1;
  j8.num_gpus = 8;
  EXPECT_GT(svc.priority(probe, j8), 4.0 * svc.priority(probe, j1));
}

TEST(QssfService, LambdaExtremesSelectEstimator) {
  const Trace h = make_history();
  QssfConfig rolling_only = fast_config();
  rolling_only.lambda = 1.0;
  QssfConfig ml_only = fast_config();
  ml_only.lambda = 0.0;
  QssfService a(rolling_only);
  QssfService b(ml_only);
  a.fit(h);
  b.fit(h);
  Trace probe(small_spec());
  const auto& j = probe.add(from_civil(2020, 9, 1), 0, 1, 6, "alice", "vc0",
                            "alice_train_bert", JobState::kCompleted);
  EXPECT_DOUBLE_EQ(a.predict_duration(probe, j), a.rolling_estimate(probe, j));
  EXPECT_DOUBLE_EQ(b.predict_duration(probe, j), b.ml_estimate(probe, j));
}

TEST(QssfService, RejectsUnusableRollingKnobs) {
  // A threshold outside [0, 1] (or NaN) would reach a double -> size_t
  // conversion in name matching; a zero name cap would make the first new
  // name's eviction erase end(). Both are refused at construction.
  for (const double threshold : {-0.1, std::nan(""), 1.5}) {
    QssfConfig cfg = fast_config();
    cfg.name_match_threshold = threshold;
    EXPECT_THROW(QssfService{cfg}, std::invalid_argument) << threshold;
    EXPECT_THROW(RollingEstimator{cfg}, std::invalid_argument) << threshold;
  }
  QssfConfig no_names = fast_config();
  no_names.max_names_per_user = 0;
  EXPECT_THROW(QssfService{no_names}, std::invalid_argument);
  QssfConfig edges = fast_config();
  edges.name_match_threshold = 0.0;
  edges.max_names_per_user = 1;
  EXPECT_NO_THROW(QssfService{edges});
  edges.name_match_threshold = 1.0;
  EXPECT_NO_THROW(QssfService{edges});
}

TEST(QssfService, RejectsWeightsOutsideUnitInterval) {
  // λ mixes the two estimates and rolling_decay the old and new durations;
  // outside [0, 1] (or NaN) either prices jobs NaN or unbounded.
  for (const double bad : {-0.1, std::nan(""), HUGE_VAL, 1.5}) {
    QssfConfig lambda = fast_config();
    lambda.lambda = bad;
    EXPECT_THROW(QssfService{lambda}, std::invalid_argument) << bad;
    QssfConfig decay = fast_config();
    decay.rolling_decay = bad;
    EXPECT_THROW(QssfService{decay}, std::invalid_argument) << bad;
    EXPECT_THROW(RollingEstimator{decay}, std::invalid_argument) << bad;
  }
  for (const double edge : {0.0, 1.0}) {
    QssfConfig cfg = fast_config();
    cfg.lambda = edge;
    cfg.rolling_decay = edge;
    EXPECT_NO_THROW(QssfService{cfg}) << edge;
  }
}

TEST(QssfService, RefitStartsOver) {
  // fit() is a pure function of (config, history): a refit after pricing and
  // observing other jobs leaves exactly what one fit on a fresh service does.
  const Trace h = make_history();
  QssfService once(fast_config());
  once.fit(h);
  QssfService twice(fast_config());
  twice.fit(h);
  Trace other(small_spec());
  const auto& stray = other.add(from_civil(2020, 9, 1), 700, 2, 12, "dave",
                                "vc0", "dave_train_vit", JobState::kCompleted);
  EXPECT_GT(twice.priority(other, stray), 0.0);  // buckets the unseen name
  twice.observe(other, stray);
  twice.fit(h);
  serialize::Writer a;
  once.save(a);
  serialize::Writer b;
  twice.save(b);
  EXPECT_EQ(a.buffer(), b.buffer());
  EXPECT_EQ(twice.rolling().observed_jobs(), once.rolling().observed_jobs());
}

TEST(QssfService, ObservesJobsFromIndependentTraceLineages) {
  // Every job handed to observe() counts, whatever its id: independently
  // built traces restart job ids at 0, and distinct jobs of one trace may
  // share any summary of their identity.
  QssfService svc(fast_config());
  Trace a(small_spec());
  const auto& ja = a.add(1000, 500, 1, 6, "erin", "vc0", "erin_job_a",
                         JobState::kCompleted);
  svc.observe(a, ja);
  Trace b(small_spec());  // job_id 0 again, different content
  const auto& jb = b.add(99000, 3500, 1, 6, "erin", "vc0", "erin_job_b",
                         JobState::kCompleted);
  svc.observe(b, jb);
  Trace probe(small_spec());
  const auto& p = probe.add(200000, 0, 1, 6, "erin", "vc0", "something_else",
                            JobState::kCompleted);
  // Both observations counted: erin's 1-GPU mean is (500 + 3500) / 2.
  EXPECT_NEAR(svc.rolling_estimate(probe, p), 2000.0, 1e-9);

  // Jobs 87677 and 87680 of Earth (seed 42, scale 0.1): same user, demand
  // and duration, and equal job_id ^ submit_time, so a 64-bit content hash
  // of them collides. Both count.
  Trace earth(small_spec());
  auto& first = earth.add(1597611779, 2, 2, 12, "u7932", "vc0",
                          "u7932_preprocess_bert_v2", JobState::kCompleted);
  first.job_id = 87677;
  svc.observe(earth, first);
  auto& second = earth.add(1597612030, 2, 2, 12, "u7932", "vc0",
                           "u7932_preprocess_bert_v3", JobState::kFailed);
  second.job_id = 87680;
  svc.observe(earth, second);
  EXPECT_EQ(svc.rolling().observed_jobs(), 4);
  // One more 2-GPU job of 8 s: the user's 2-GPU mean is (2 + 2 + 8) / 3.
  const auto& third = earth.add(1597700000, 8, 2, 12, "u7932", "vc0",
                                "u7932_eval", JobState::kCompleted);
  svc.observe(earth, third);
  const auto& q = probe.add(1597800000, 0, 2, 12, "u7932", "vc0",
                            "something_else", JobState::kCompleted);
  EXPECT_NEAR(svc.rolling_estimate(probe, q), 4.0, 1e-12);
}

TEST(QssfService, PredictionsCorrelateWithActualOnSyntheticTrace) {
  auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 11,
                                            0.03);
  const Trace t = trace::SyntheticTraceGenerator(cfg).generate();
  const auto train = t.between(trace::helios_trace_begin(), from_civil(2020, 8, 1));
  const auto test = t.between(from_civil(2020, 8, 1), from_civil(2020, 9, 1));

  QssfService svc(fast_config());
  svc.fit(train);
  std::vector<double> predicted;
  std::vector<double> actual;
  for (const auto& j : test.jobs()) {
    if (!j.is_gpu_job()) continue;
    predicted.push_back(svc.priority(test, j));
    actual.push_back(j.gpu_time());
  }
  ASSERT_GT(predicted.size(), 500u);
  // Priority ordering must correlate strongly with true GPU time; this is
  // exactly what QSSF needs (ordering, not calibration).
  EXPECT_GT(stats::spearman(predicted, actual), 0.55);
}

TEST(OnlinePriorityEvaluator, CausalAndComplete) {
  auto cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"), 13,
                                            0.02);
  const Trace t = trace::SyntheticTraceGenerator(cfg).generate();
  const auto train = t.between(trace::helios_trace_begin(), from_civil(2020, 9, 1));
  const auto eval = t.between(from_civil(2020, 9, 1), trace::helios_trace_end());

  QssfService svc(fast_config());
  svc.fit(train);
  OnlinePriorityEvaluator evaluator(svc, eval);
  std::size_t gpu_jobs = 0;
  for (const auto& j : eval.jobs()) {
    if (!j.is_gpu_job()) continue;
    ++gpu_jobs;
    EXPECT_GT(evaluator.priority_of(j), 0.0);
  }
  EXPECT_EQ(evaluator.predicted_gpu_time().size(), gpu_jobs);
  EXPECT_EQ(evaluator.actual_gpu_time().size(), gpu_jobs);
}

TEST(QssfEndToEnd, BeatsFifoAndApproachesSjf) {
  auto gen_cfg = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                                17, 0.05);
  Trace t = trace::SyntheticTraceGenerator(gen_cfg).generate();
  const auto train = t.between(trace::helios_trace_begin(), from_civil(2020, 9, 1));
  const auto eval = t.between(from_civil(2020, 9, 1), trace::helios_trace_end());

  QssfService svc(fast_config());
  svc.fit(train);
  OnlinePriorityEvaluator evaluator(svc, eval);

  auto run = [&](sim::SchedulerPolicy policy, sim::PriorityFn fn) {
    sim::SimConfig sc;
    sc.policy = policy;
    sc.priority_fn = std::move(fn);
    return sim::ClusterSimulator(eval.cluster(), sc).run(eval);
  };
  const auto fifo = run(sim::SchedulerPolicy::kFifo, nullptr);
  const auto sjf = run(sim::SchedulerPolicy::kSjf, nullptr);
  const auto qssf = run(sim::SchedulerPolicy::kQssf, evaluator.as_priority_fn());

  // The headline result (Table 3): QSSF dramatically beats FIFO and lands in
  // the same league as the oracle SJF.
  EXPECT_LT(qssf.avg_jct, 0.8 * fifo.avg_jct);
  EXPECT_LT(qssf.avg_queue_delay, 0.6 * fifo.avg_queue_delay);
  EXPECT_LT(qssf.avg_jct, 3.0 * sjf.avg_jct);
}

}  // namespace
}  // namespace helios::core
