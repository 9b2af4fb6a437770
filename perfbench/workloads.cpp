#include "workloads.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/cluster_stats.h"
#include "analysis/job_stats.h"
#include "analysis/user_stats.h"
#include "common/thread_pool.h"
#include "core/ces_service.h"
#include "core/qssf_service.h"
#include "forecast/models.h"
#include "sim/simulator.h"
#include "svc/prediction_server.h"
#include "sweep/scenario.h"
#include "sweep/scenario_engine.h"
#include "sweep/trace_store.h"
#include "trace/parallel_loader.h"
#include "trace/synthetic.h"

namespace perfbench {

using namespace helios;

namespace {

/// Set-up runs this many times per process; setup_s is the median.
constexpr int kSetupReps = 5;
/// Fewest timed iterations of each kind (untraced, traced) per run.
constexpr std::size_t kMinIterations = 3;

/// One per-layer metric: the median, over traced iterations (or set-up runs,
/// for spans that only occur in set-up), of the summed self time of the
/// spans with this name.
struct Layer {
  std::string_view metric;
  std::string_view span;
};

struct LoopResult {
  std::vector<double> untraced;  ///< seconds per iteration
  std::vector<double> traced;
  double cpu_per_wall = 0.0;     ///< process CPU / wall over the iterations
};

/// Runs `setup(tracer)` kSetupReps times and returns the last state. Each
/// run is timed into `times`; in a traced run each sits under a "setup" root
/// span. The previous state is freed first, so peak memory holds one copy.
template <class Setup>
auto timed_setup(const Options& opt, Tracer& tracer, Setup&& setup,
                 std::vector<double>& times) {
  Tracer* tr = opt.trace ? &tracer : nullptr;
  std::optional<decltype(setup(tr))> state;
  for (int r = 0; r < kSetupReps; ++r) {
    state.reset();
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tr, "setup");
      state.emplace(setup(tr));
    }
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return std::move(*state);
}

/// The timed loop. `iterate(tracer)` runs one unit of work and returns its
/// outputs; `inspect(output, traced)` runs untimed afterwards, checks the
/// outputs and returns whether they are correct (a traced iteration may also
/// take untimed per-layer measurements there). Iterations repeat until
/// opt.seconds have passed and each kind has kMinIterations samples; a
/// traced run alternates untraced and traced iterations so host drift hits
/// both alike.
template <class Iterate, class Inspect>
LoopResult timed_loop(const Options& opt, Tracer& tracer, Report& report,
                      Iterate&& iterate, Inspect&& inspect) {
  LoopResult r;
  double cpu = 0.0;
  double wall = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    Tracer* tr = traced ? &tracer : nullptr;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    auto out = [&] {
      ScopedSpan span(tr, "iteration");
      return iterate(tr);
    }();
    const double s = seconds_between(t0, Clock::now());
    cpu += process_cpu_seconds() - cpu0;
    wall += s;
    (traced ? r.traced : r.untraced).push_back(s);
    report.operation(true, "iteration");
    report.operation(inspect(out, traced),
                     "output check of iteration " + std::to_string(i + 1));
    const bool enough = r.untraced.size() >= kMinIterations &&
                        (!opt.trace || r.traced.size() >= kMinIterations);
    if (enough && seconds_between(start, Clock::now()) >= opt.seconds) break;
  }
  r.cpu_per_wall = cpu / wall;
  return r;
}

std::string format(const char* fmt, double a, double b = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

void note_samples(Report& report, std::string_view what,
                  const std::vector<double>& samples, std::string_view unit) {
  const SampleSummary s = summarize(samples);
  std::string line = std::string(what) + ": median " + format("%.6g", s.median) +
                     " " + std::string(unit) + " over " +
                     std::to_string(s.count) + " samples";
  if (s.tail_percentile > 0.0) {
    line += format(", p%g %.6g", s.tail_percentile, s.tail) + " " +
            std::string(unit);
  } else {
    line += " (too few samples for a tail percentile):";
    for (const double v : samples) line += format(" %.4g", v);
  }
  report.note(line);
}

/// Metrics every workload reports from its set-up times and timed loop,
/// plus the per-layer span self times of `layers` in a traced run.
void report_loop(const Options& opt, const std::vector<double>& setup_times,
                 const LoopResult& loop, const Tracer& tracer,
                 std::span<const Layer> layers, Report& report) {
  note_samples(report, "setup_s", setup_times, "s");
  note_samples(report, "iter_s (untraced)", loop.untraced, "s");
  report.note(format("pool.cpu_per_wall %.4f", loop.cpu_per_wall));
  if (!opt.trace) {
    report.metric("setup_s", median(setup_times));
    report.metric("iter_s", median(loop.untraced));
    report.metric("peak_rss_mb", peak_rss_mb());
    return;
  }
  note_samples(report, "iter_s (traced)", loop.traced, "s");
  report.metric("pool.cpu_per_wall", loop.cpu_per_wall);
  report.metric("bench.iterations", static_cast<double>(loop.traced.size()));
  report.metric("bench.trace_overhead_s",
                median(loop.traced) - median(loop.untraced));
  const auto coverage = coverage_per_root(tracer.spans(), "iteration");
  report.metric("bench.span_coverage", coverage.empty() ? 0.0 : median(coverage));
  const auto per_iteration = self_time_per_root(tracer.spans(), "iteration");
  const auto per_setup = self_time_per_root(tracer.spans(), "setup");
  for (const Layer& layer : layers) {
    // A layer is timed either in set-up or in the iterations, never both.
    const auto& roots = per_iteration.front().count(std::string(layer.span)) > 0
                            ? per_iteration
                            : per_setup;
    std::vector<double> values;
    for (const auto& selfs : roots) {
      const auto it = selfs.find(std::string(layer.span));
      values.push_back(it != selfs.end() ? it->second : 0.0);
    }
    report.metric(layer.metric, median(values));
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_series(const forecast::TimeSeries& a, const forecast::TimeSeries& b) {
  return a.begin == b.begin && a.step == b.step &&
         std::equal(a.values.begin(), a.values.end(), b.values.begin(),
                    b.values.end(), same_bits);
}

bool same_ces(const core::CesResult& a, const core::CesResult& b) {
  return same_series(a.running_nodes, b.running_nodes) &&
         same_series(a.active_nodes, b.active_nodes) &&
         same_series(a.predicted_nodes, b.predicted_nodes) &&
         a.total_nodes == b.total_nodes &&
         same_bits(a.avg_drs_nodes, b.avg_drs_nodes) &&
         same_bits(a.daily_wakeups, b.daily_wakeups) &&
         same_bits(a.avg_woken_per_wakeup, b.avg_woken_per_wakeup) &&
         a.wakeup_events == b.wakeup_events && a.woken_nodes == b.woken_nodes &&
         same_bits(a.node_util_original, b.node_util_original) &&
         same_bits(a.node_util_ces, b.node_util_ces) &&
         a.affected_jobs == b.affected_jobs && a.total_jobs == b.total_jobs &&
         same_bits(a.saved_kwh, b.saved_kwh) &&
         same_bits(a.annualized_kwh, b.annualized_kwh) &&
         same_bits(a.forecast_smape, b.forecast_smape);
}

/// Index of the first of the last `count` jobs of `t` (GPU jobs only when
/// `gpu_only`); jobs are sorted by submit time. The workloads split traces
/// at such row counts rather than at calendar dates: the generator fixes a
/// trace's row count, but the share of it in one month swings with the seed
/// (September holds 8% to 24% of a Venus trace), and a calendar split would
/// make each stage's input size, and so its cost, depend on the seed.
std::size_t first_of_last(const trace::Trace& t, std::size_t count, bool gpu_only) {
  std::size_t seen = 0;
  for (std::size_t i = t.size(); i-- > 0;) {
    if (!gpu_only || t.jobs()[i].is_gpu_job()) ++seen;
    if (seen == count) return i;
  }
  throw std::runtime_error("perfbench: trace has fewer jobs than a split needs");
}

// ===========================================================================
// qssf_pipeline — the paper's path over one Venus trace at full scale:
// ingest, operate, characterize, QSSF fit and evaluation, the four-policy
// comparison on the evaluation rows, and CES. Heavy on ML, analysis and
// ingest; light on the simulator. One pool worker (a second one made it no
// faster); its traced run also measures the svc layers.
// ===========================================================================

namespace serve_replay {
/// Per-layer metrics of the prediction service: see its definition below.
void measure(const Options& opt, Tracer& tracer, Report& report);
}  // namespace serve_replay

namespace qssf_pipeline {

struct Input {
  trace::Trace generated;
  std::string csv;
};

struct Output {
  trace::Trace operated;
  std::vector<double> analysis_digest;
  std::vector<sim::SimResult> sims;  ///< operate, FIFO, SJF, SRTF, QSSF, CES history
  core::CesResult ces;
  core::CesResult vanilla;
};

/// QSSF trains on kTrainRows jobs and is evaluated on the kEvalRows jobs
/// after them (the last ones of the trace); CES forecasts from the history
/// before the evaluation rows and replays them.
constexpr std::size_t kTrainRows = 120'000;
constexpr std::size_t kEvalRows = 30'000;

constexpr sim::SchedulerPolicy kPolicies[] = {
    sim::SchedulerPolicy::kFifo, sim::SchedulerPolicy::kSjf,
    sim::SchedulerPolicy::kSrtf, sim::SchedulerPolicy::kQssf};

constexpr Layer kLayers[] = {
    {"trace.parse_s", "trace.parse"},
    {"sim.operate_fifo_s", "sim.operate_fifo"},
    {"analysis.characterize_s", "analysis.characterize"},
    {"analysis.vc_behaviors_s", "analysis.vc_behaviors"},
    {"core.qssf_fit_s", "core.qssf_fit"},
    {"core.evaluate_s", "core.evaluate"},
    {"sim.run_s.FIFO", "sim.run.FIFO"},
    {"sim.run_s.SJF", "sim.run.SJF"},
    {"sim.run_s.SRTF", "sim.run.SRTF"},
    {"sim.run_s.QSSF", "sim.run.QSSF"},
    {"core.ces_history_sim_s", "core.ces_history_sim"},
    {"core.ces_fit_s", "core.ces_fit"},
    {"core.ces_replay_s", "core.ces_replay"},
};

Input setup(std::uint64_t seed, Tracer* tr) {
  Input in;
  {
    ScopedSpan span(tr, "trace.generate");
    in.generated = trace::SyntheticTraceGenerator(
                       trace::GeneratorConfig::helios(
                           trace::helios_cluster("Venus"), seed, 1.0))
                       .generate();
  }
  ScopedSpan span(tr, "trace.save_csv");
  std::ostringstream csv;
  in.generated.save_csv(csv);
  in.csv = std::move(csv).str();
  return in;
}

Output iterate(const Input& in, Tracer* tr) {
  const UnixTime begin = trace::helios_trace_begin();
  const UnixTime end = trace::helios_trace_end();
  Output out;
  trace::Trace& t = out.operated;
  {
    ScopedSpan span(tr, "trace.parse");
    t = trace::ParallelLoader().load(in.csv, in.generated.cluster());
  }
  {
    ScopedSpan span(tr, "sim.operate_fifo");
    out.sims.push_back(sim::operate_fifo(t));
  }
  {
    ScopedSpan span(tr, "analysis.characterize");
    const auto summary = analysis::summarize(t);
    const auto util = analysis::utilization_series(t, begin, end, 600);
    const auto months = analysis::monthly_trends(t, begin, end);
    std::vector<analysis::VCBehavior> vcs;
    {
      ScopedSpan inner(tr, "analysis.vc_behaviors");
      vcs = analysis::vc_behaviors(t, begin, end);
    }
    const auto cdf = analysis::duration_cdf(t, /*gpu_jobs=*/true);
    const auto users = analysis::user_aggregates(t);
    double util_sum = 0.0;
    for (const double u : util.values) util_sum += u;
    double vc_delay = 0.0;
    for (const auto& vc : vcs) vc_delay += vc.avg_queue_delay;
    out.analysis_digest = {static_cast<double>(summary.gpu_jobs),
                           summary.avg_gpu_job_duration,
                           util_sum,
                           static_cast<double>(months.size()),
                           vc_delay,
                           cdf.inverse(0.5),
                           static_cast<double>(users.size())};
  }
  const UnixTime train_begin =
      t.jobs()[first_of_last(t, kTrainRows + kEvalRows, false)].submit_time;
  const UnixTime split = t.jobs()[first_of_last(t, kEvalRows, false)].submit_time;
  trace::Trace train;
  trace::Trace eval;
  {
    ScopedSpan span(tr, "trace.slice");
    train = t.between(train_begin, split);
    eval = t.between(split, end);
  }
  core::QssfService service;
  {
    ScopedSpan span(tr, "core.qssf_fit");
    service.fit(train);
  }
  std::optional<core::OnlinePriorityEvaluator> evaluator;
  {
    ScopedSpan span(tr, "core.evaluate");
    evaluator.emplace(service, eval);
  }
  for (const auto policy : kPolicies) {
    ScopedSpan span(tr, "sim.run." + std::string(sim::to_string(policy)));
    sim::SimConfig cfg;
    cfg.policy = policy;
    if (policy == sim::SchedulerPolicy::kQssf) {
      cfg.priority_fn = evaluator->as_priority_fn();
    }
    out.sims.push_back(sim::ClusterSimulator(eval.cluster(), cfg).run(eval));
  }

  // The CES protocol of sweep::run_ces_study, one public call per span:
  // running-nodes history from the FIFO-operated schedule, then a GBDT
  // forecaster under Algorithm 2 and vanilla DRS over the evaluation rows.
  {
    ScopedSpan span(tr, "core.ces_history_sim");
    out.sims.push_back(sim::ClusterSimulator(t.cluster(), {}).run(t));
  }
  const auto& busy = out.sims.back().busy_nodes;
  const auto history = busy.between(busy.begin, split);
  const auto replay = [&](core::CesConfig cfg,
                          std::unique_ptr<forecast::Forecaster> model) {
    core::CesService ces(std::move(cfg), std::move(model));
    {
      ScopedSpan span(tr, "core.ces_fit");
      ces.fit(history);
    }
    ScopedSpan span(tr, "core.ces_replay");
    return ces.replay(t, history, split, end);
  };
  core::CesConfig cfg;
  cfg.sigma = std::max(1, t.cluster().nodes / 30);
  out.ces = replay(cfg, std::make_unique<forecast::GBDTForecaster>());
  cfg.vanilla_drs = true;
  out.vanilla =
      replay(cfg, std::make_unique<forecast::SeasonalNaiveForecaster>(144));
  return out;
}

bool same_output(const Output& a, const Output& b) {
  bool ok = a.operated.contents_equal(b.operated) &&
            std::equal(a.analysis_digest.begin(), a.analysis_digest.end(),
                       b.analysis_digest.begin(), b.analysis_digest.end(),
                       same_bits) &&
            a.sims.size() == b.sims.size() && same_ces(a.ces, b.ces) &&
            same_ces(a.vanilla, b.vanilla);
  for (std::size_t i = 0; ok && i < a.sims.size(); ++i) {
    ok = sweep::results_identical(a.sims[i], b.sims[i]);
  }
  return ok;
}

void run(const Options& opt, Tracer& tracer, Report& report) {
  std::vector<double> setup_times;
  const Input in = timed_setup(
      opt, tracer, [&](Tracer* tr) { return setup(opt.seed, tr); }, setup_times);
  report.note("qssf_pipeline: Venus scale 1.0, " +
              std::to_string(in.generated.size()) + " rows, " +
              std::to_string(in.csv.size()) + " CSV bytes");

  // The generator interns strings in its own order, so ids differ from a
  // parse's first-occurrence ids; the parse is checked as a lossless round
  // trip of the generated trace's CSV instead.
  {
    std::ostringstream again;
    trace::ParallelLoader().load(in.csv, in.generated.cluster()).save_csv(again);
    report.operation(again.view() == in.csv,
                     "parsed trace writes back the generated trace's CSV");
  }

  const Output reference = iterate(in, nullptr);  // warm-up, untimed
  const LoopResult loop = timed_loop(
      opt, tracer, report, [&](Tracer* tr) { return iterate(in, tr); },
      [&](const Output& out, bool) { return same_output(out, reference); });

  report_loop(opt, setup_times, loop, tracer, kLayers, report);
  if (opt.trace) {
    double jobs = 0.0;
    double unfinished = 0.0;
    for (const auto& r : reference.sims) {
      jobs += static_cast<double>(r.outcomes.size());
      unfinished += static_cast<double>(r.unfinished_jobs);
    }
    report.metric("trace.rows", static_cast<double>(reference.operated.size()));
    report.metric("sim.jobs", jobs);
    report.metric("sim.unfinished_jobs", unfinished);
    serve_replay::measure(opt, tracer, report);
  }
}

}  // namespace qssf_pipeline

// ===========================================================================
// sweep_grid — one ScenarioEngine::run over six workload families × four
// policies × backfill off/on: all simulator, no ML.
// ===========================================================================

namespace sweep_grid {

constexpr double kScale = 0.25;
const std::vector<std::string> kClusters = {"Venus",  "Earth",   "Saturn",
                                            "Uranus", "Philly",  "PAI"};
constexpr sim::SchedulerPolicy kPolicies[] = {
    sim::SchedulerPolicy::kFifo, sim::SchedulerPolicy::kSjf,
    sim::SchedulerPolicy::kSrtf, sim::SchedulerPolicy::kQssf};

struct Input {
  // TraceStore is neither copyable nor movable.
  std::unique_ptr<sweep::TraceStore> store;
  sweep::SweepGrid grid;
};

/// Materializes every trace serially, so the engine's level-0 fan-out only
/// ever hits the cache. The cold level-0 path (generation inside the
/// engine's task graph) deadlocks at two or more workers on multi-key grids
/// and is therefore not measured; NOTES.md records it.
Input setup(std::uint64_t seed, Tracer* tr) {
  Input in;
  in.store = std::make_unique<sweep::TraceStore>();
  in.grid.clusters = kClusters;
  in.grid.policies.assign(std::begin(kPolicies), std::end(kPolicies));
  in.grid.backfills = {false, true};
  in.grid.scales = {kScale};
  in.grid.seeds = {seed};
  for (const auto& name : kClusters) {
    ScopedSpan span(tr, "trace.generate", name);
    (void)in.store->get(sweep::TraceKey::workload(name, seed, kScale));
  }
  return in;
}

bool same_sweep(const sweep::SweepResult& a, const sweep::SweepResult& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (!sweep::results_identical(a.cells[i].result, b.cells[i].result)) {
      return false;
    }
  }
  return true;
}

void run(const Options& opt, Tracer& tracer, Report& report) {
  std::vector<double> setup_times;
  const Input in = timed_setup(
      opt, tracer, [&](Tracer* tr) { return setup(opt.seed, tr); }, setup_times);
  sweep::TraceStore& store = *in.store;
  sweep::EngineConfig cfg;
  cfg.priority_provider = sweep::oracle_gpu_time_provider();
  const sweep::ScenarioEngine engine(store, std::move(cfg));
  const auto iterate = [&](Tracer* tr) {
    ScopedSpan span(tr, "sweep.engine_run");
    return engine.run(in.grid);
  };

  const sweep::SweepResult reference = iterate(nullptr);  // warm-up, untimed
  report.operation(reference.cells.size() == in.grid.cell_count(),
                   "engine returned every cell");
  const std::int64_t generations = store.generations();
  const std::int64_t hits = store.hits();
  const LoopResult loop = timed_loop(
      opt, tracer, report, iterate,
      [&](const sweep::SweepResult& out, bool) { return same_sweep(out, reference); });
  const auto iterations =
      static_cast<double>(loop.untraced.size() + loop.traced.size());
  const std::int64_t loop_hits = store.hits() - hits;
  report.operation(store.generations() == generations,
                   "no trace was generated while iterations were timed");
  report.operation(generations == static_cast<std::int64_t>(kClusters.size()),
                   "each workload was generated exactly once");
  report.note("sweep_grid: " + std::to_string(reference.cells.size()) +
              " cells at scale 0.25");

  report_loop(opt, setup_times, loop, tracer, {}, report);
  if (!opt.trace) return;

  // Per-cell costs: each cell again as a standalone serial run of the
  // engine's own cell config, which must reproduce the engine's result.
  std::map<std::string, double> cell_s;
  double total = 0.0;
  double rows = 0.0;
  double jobs = 0.0;
  double unfinished = 0.0;
  const auto cells = in.grid.expand();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto t = store.get(cells[i].workload.key);
    sim::SimConfig sc = engine.cell_config(cells[i], *t);
    sc.execution = common::ExecMode::kSerial;
    const auto t0 = Clock::now();
    sim::SimResult result;
    {
      ScopedSpan span(&tracer, "sim.cell", cells[i].label());
      result = sim::ClusterSimulator(t->cluster(), sc).run(*t);
    }
    const double s = seconds_between(t0, Clock::now());
    report.operation(sweep::results_identical(result, reference.cells[i].result),
                     "standalone cell equals engine cell: " + cells[i].label());
    cell_s[cells[i].workload.name] += s;
    cell_s[std::string(sim::to_string(cells[i].policy))] += s;
    total += s;
    jobs += static_cast<double>(result.outcomes.size());
    unfinished += static_cast<double>(result.unfinished_jobs);
  }
  for (const auto& name : kClusters) {
    rows += static_cast<double>(
        store.get(sweep::TraceKey::workload(name, opt.seed, kScale))->size());
  }
  for (const auto& [name, s] : cell_s) report.metric("sim.cell_s." + name, s);
  const double running_threads = static_cast<double>(opt.threads + 1);
  report.metric("sweep.parallel_efficiency",
                total / (median(loop.untraced) * running_threads));
  report.metric("sweep.trace_generations", static_cast<double>(generations));
  report.metric("sweep.trace_hits", static_cast<double>(loop_hits) / iterations);
  report.metric("trace.rows", rows);
  report.metric("sim.jobs", jobs);
  report.metric("sim.unfinished_jobs", unfinished);
}

}  // namespace sweep_grid

// ===========================================================================
// serve_replay — the svc layers, measured in qssf_pipeline's traced run
// (no workload of its own: its replay time swings too much with the host to
// gate on; see NOTES.md). One replay is a fresh PredictionServer ingesting
// the stream in 200-row batches while one client issues 64 snapshot queries
// after each batch: the service, serialize and rolling-estimator path.
// ===========================================================================

namespace serve_replay {

constexpr double kScale = 0.5;
/// The stream is the last kStreamJobs GPU jobs of the trace (CPU rows carry
/// no priority); the server's context, on which the model is fit, is the
/// kContextRows rows before it.
constexpr std::size_t kStreamJobs = 16'000;
constexpr std::size_t kContextRows = 90'000;
constexpr std::size_t kBatchRows = 200;
constexpr std::size_t kQueriesPerBatch = 64;
constexpr std::size_t kQueryMix = 512;
constexpr std::size_t kPublishEvery = 256;

struct Input {
  core::QssfService model;
  trace::Trace train;                  ///< the server's context
  std::string rows_csv;                ///< stream rows, no header
  std::vector<std::pair<std::size_t, std::size_t>> batches;  ///< byte ranges
  std::vector<svc::PricedJob> reference;  ///< serial batch evaluator's log
  std::vector<svc::QueryRequest> queries;
  std::size_t rows = 0;
  std::size_t gpu_jobs = 0;
};

Input setup(std::uint64_t seed, Tracer* tr) {
  Input in;
  trace::Trace full;
  {
    ScopedSpan span(tr, "trace.generate");
    full = trace::SyntheticTraceGenerator(
               trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                              seed, kScale))
               .generate();
  }
  const std::size_t stream_first = first_of_last(full, kStreamJobs, true);
  if (stream_first < kContextRows) {
    throw std::runtime_error("perfbench: trace too short for the server context");
  }
  const UnixTime split = full.jobs()[stream_first].submit_time;
  in.train = full.between(full.jobs()[stream_first - kContextRows].submit_time, split);
  const trace::Trace eval =
      full.between(split, trace::helios_trace_end()).gpu_jobs();
  {
    ScopedSpan span(tr, "core.qssf_fit_serial");
    in.model.fit(in.train);
  }
  {
    ScopedSpan span(tr, "core.evaluate_serial");
    core::QssfService service = in.model;
    core::EvalOptions opts;
    opts.execution = common::ExecMode::kSerial;
    const core::OnlinePriorityEvaluator evaluator(service, eval, opts);
    for (const auto& j : eval.jobs()) {
      if (!j.is_gpu_job()) continue;
      in.reference.push_back({j.job_id, evaluator.priority_of(j)});
      if (in.queries.size() < kQueryMix) {
        svc::QueryRequest q;
        q.user = eval.user_name(j);
        q.vc = eval.vc_name(j);
        q.job_name = eval.job_name(j);
        q.num_gpus = j.num_gpus;
        q.num_cpus = j.num_cpus;
        q.submit_time = j.submit_time;
        in.queries.push_back(std::move(q));
      }
    }
  }
  std::ostringstream rows;
  eval.save_csv_rows(rows, 0, eval.size());
  in.rows_csv = std::move(rows).str();
  in.rows = eval.size();
  in.gpu_jobs = in.reference.size();
  std::size_t lo = 0;
  while (lo < in.rows_csv.size()) {
    std::size_t hi = lo;
    for (std::size_t n = 0; n < kBatchRows && hi < in.rows_csv.size(); ++n) {
      const auto nl = in.rows_csv.find('\n', hi);
      hi = nl == std::string::npos ? in.rows_csv.size() : nl + 1;
    }
    in.batches.emplace_back(lo, hi);
    lo = hi;
  }
  return in;
}

struct Output {
  std::unique_ptr<svc::PredictionServer> server;
  std::vector<double> batch_s;   ///< each ingest_csv call
  std::vector<double> query_us;  ///< each Snapshot::query call
  double priority_sum = 0.0;     ///< keeps query results observable
};

Output iterate(const Input& in, const std::filesystem::path& dir, Tracer* tr) {
  Output out;
  svc::ServerConfig cfg;
  cfg.checkpoint_every = std::max<std::size_t>(1, in.gpu_jobs / 5);
  cfg.checkpoint_prefix = (dir / "ck").string();
  cfg.publish_every = kPublishEvery;
  {
    ScopedSpan span(tr, "svc.server_init");
    out.server = std::make_unique<svc::PredictionServer>(in.model, in.train, cfg);
  }
  out.batch_s.reserve(in.batches.size());
  out.query_us.reserve(in.batches.size() * kQueriesPerBatch);
  const std::string_view rows = in.rows_csv;
  std::size_t next_query = 0;
  for (const auto& [lo, hi] : in.batches) {
    {
      ScopedSpan span(tr, "svc.ingest_batch");
      const auto t0 = Clock::now();
      out.server->ingest_csv(rows.substr(lo, hi - lo));
      out.batch_s.push_back(seconds_between(t0, Clock::now()));
    }
    ScopedSpan span(tr, "svc.query_batch");
    const auto snap = out.server->snapshot();
    for (std::size_t q = 0; q < kQueriesPerBatch; ++q) {
      const auto& request = in.queries[next_query++ % in.queries.size()];
      const auto t0 = Clock::now();
      out.priority_sum += snap->query(request).priority;
      out.query_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
  }
  return out;
}

bool same_log(const std::vector<svc::PricedJob>& a,
              const std::vector<svc::PricedJob>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const svc::PricedJob& x, const svc::PricedJob& y) {
                      return x.job_id == y.job_id && same_bits(x.priority, y.priority);
                    });
}

std::uintmax_t checkpoint_bytes(const std::filesystem::path& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    bytes += entry.file_size();
  }
  return bytes;
}

/// Per-call costs of publication and checkpointing, which happen inside
/// ingest_csv where no span can reach them: an untimed probe replay of the
/// same batches into a fresh server times one explicit publish() after every
/// batch and one explicit checkpoint() after every kCheckpointProbeEvery
/// batches, so the calls see the server state of each point of the stream.
struct ProbeCosts {
  double publish_s = 0.0;     ///< mean per publish()
  double checkpoint_s = 0.0;  ///< mean per checkpoint(), its own publish included
};

constexpr std::size_t kCheckpointProbeEvery = 16;

ProbeCosts probe_costs(const Input& in, const std::filesystem::path& dir,
                       Tracer& tracer) {
  ScopedSpan root(&tracer, "probe");
  svc::ServerConfig cfg;
  cfg.checkpoint_prefix = (dir / "probe").string();
  cfg.publish_every = kPublishEvery;
  svc::PredictionServer server(in.model, in.train, cfg);
  std::vector<double> publish_s;
  std::vector<double> checkpoint_s;
  for (std::size_t b = 0; b < in.batches.size(); ++b) {
    const auto [lo, hi] = in.batches[b];
    server.ingest_csv(std::string_view(in.rows_csv).substr(lo, hi - lo));
    {
      ScopedSpan span(&tracer, "svc.publish");
      const auto t0 = Clock::now();
      server.publish();
      publish_s.push_back(seconds_between(t0, Clock::now()));
    }
    if ((b + 1) % kCheckpointProbeEvery == 0) {
      ScopedSpan span(&tracer, "svc.checkpoint");
      const auto t0 = Clock::now();
      (void)server.checkpoint();
      checkpoint_s.push_back(seconds_between(t0, Clock::now()));
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  return {mean(publish_s), mean(checkpoint_s)};
}

/// Replays after the warm-up whose samples and spans give the svc layers.
constexpr std::size_t kReplays = 3;

void measure(const Options& opt, Tracer& tracer, Report& report) {
  // Set-up kSetupReps times, each under a "serve.setup" root span, so the
  // serial fit is a median like every other set-up figure.
  std::optional<Input> slot;
  for (int r = 0; r < kSetupReps; ++r) {
    slot.reset();
    ScopedSpan span(&tracer, "serve.setup");
    slot.emplace(setup(opt.seed, &tracer));
  }
  const Input& in = *slot;
  std::vector<double> fit_s;
  for (const auto& selfs : self_time_per_root(tracer.spans(), "serve.setup")) {
    fit_s.push_back(selfs.at("core.qssf_fit_serial"));
  }
  report.operation(global_pool().thread_count() == 1,
                   "serve layers run with one pool worker (serial fit)");
  report.note("serve replay: Venus scale 0.5, " + std::to_string(in.train.size()) +
              " context rows, " + std::to_string(in.rows) + " streamed rows (" +
              std::to_string(in.gpu_jobs) + " GPU jobs) in " +
              std::to_string(in.batches.size()) + " batches");
  const std::filesystem::path dir = opt.workdir / "serve_replay";
  const auto reset_dir = [&] {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  };
  reset_dir();

  // One untimed warm-up replay, then kReplays traced ones; every replay's
  // priority log must equal the batch reference.
  std::vector<double> query_us;
  std::vector<double> batch_s;
  std::vector<double> ingest_rows_per_s;
  std::vector<double> ckpt_bytes;
  std::uint64_t checkpoints = 0;
  for (std::size_t r = 0; r <= kReplays; ++r) {
    const bool warm_up = r == 0;
    Tracer* tr = warm_up ? nullptr : &tracer;
    Output out;
    {
      ScopedSpan span(tr, "serve.replay");
      out = iterate(in, dir, tr);
    }
    const svc::PredictionServer& server = *out.server;
    report.operation(same_log(server.priority_log(), in.reference) &&
                         server.rows_ingested() == in.rows &&
                         server.gpu_jobs_ingested() == in.gpu_jobs &&
                         std::isfinite(out.priority_sum),
                     "serve replay priority log parity");
    checkpoints = server.checkpoints_written();
    if (!warm_up) {
      double ingest = 0.0;
      for (const double s : out.batch_s) ingest += s;
      ingest_rows_per_s.push_back(static_cast<double>(in.rows) / ingest);
      batch_s.insert(batch_s.end(), out.batch_s.begin(), out.batch_s.end());
      query_us.insert(query_us.end(), out.query_us.begin(), out.query_us.end());
      ckpt_bytes.push_back(static_cast<double>(checkpoint_bytes(dir)));
    }
    out.server.reset();
    reset_dir();
  }
  note_samples(report, "serve query latency", query_us, "us");
  note_samples(report, "serve ingest rows/s", ingest_rows_per_s, "1/s");

  const ProbeCosts probe = probe_costs(in, dir, tracer);
  std::filesystem::remove_all(dir);
  // Every ingest batch ends in one checkpoint (which publishes) or one
  // publish; publish_every adds one per 256 GPU jobs, and the constructor
  // publishes once. svc.publishes leaves out the checkpoints' own publishes,
  // which svc.checkpoint_s already holds.
  const double batches = static_cast<double>(in.batches.size());
  const double publishes = 1.0 + batches - static_cast<double>(checkpoints) +
                           std::floor(static_cast<double>(in.gpu_jobs) /
                                      static_cast<double>(kPublishEvery));
  std::sort(batch_s.begin(), batch_s.end());
  std::sort(query_us.begin(), query_us.end());
  report.metric("svc.ingest_batch_p50_s", percentile(batch_s, 50));
  report.metric("svc.ingest_batch_p90_s", percentile(batch_s, 90));
  report.metric("svc.ingest_rows_per_s", median(ingest_rows_per_s));
  report.metric("svc.publish_s", probe.publish_s * publishes);
  report.metric("svc.checkpoint_s",
                probe.checkpoint_s * static_cast<double>(checkpoints));
  report.metric("svc.checkpoint_bytes", median(ckpt_bytes));
  report.metric("svc.publishes", publishes);
  report.metric("svc.checkpoints", static_cast<double>(checkpoints));
  report.metric("svc.queries", batches * static_cast<double>(kQueriesPerBatch));
  report.metric("svc.query_p50_us", percentile(query_us, 50));
  report.metric("svc.query_p99_us", percentile(query_us, 99));
  report.metric("core.qssf_fit_serial_s", median(fit_s));
}

}  // namespace serve_replay

constexpr WorkloadDef kWorkloads[] = {
    {"qssf_pipeline", 1, qssf_pipeline::run},
    {"sweep_grid", 2, sweep_grid::run},
};

}  // namespace

std::span<const WorkloadDef> workloads() { return kWorkloads; }

}  // namespace perfbench
