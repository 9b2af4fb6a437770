#include "core/ces_service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "sim/vc_simulator.h"
#include "stats/metrics.h"

namespace helios::core {

using trace::Trace;

namespace {

/// Facility energy per server joule: the server plus twice as much again for
/// cooling (paper §4.3.3), so every server-watt saved is worth ~3.
constexpr double kFacilityFactor = 3.0;

/// The replay's node draw: sim_config() leaves SimConfig::power_profile at
/// its default, so a sleeping node saves (800 - 0) W.
constexpr PowerProfile kReplayPower{};

}  // namespace

DrsController::DrsController(const CesConfig& config,
                             const forecast::Forecaster& model,
                             const Trace& eval, forecast::TimeSeries history,
                             UnixTime begin, UnixTime end)
    : PowerController(begin, end, config.check_interval),
      config_(config),
      model_(&model),
      gpus_per_node_(eval.cluster().gpus_per_node),
      total_nodes_(eval.cluster().nodes),
      observed_(std::move(history)),
      wakeups_(eval.cluster().vcs.size(), 0),
      woken_(eval.cluster().vcs.size(), 0),
      affected_(eval.size(), 0) {
  if (observed_.step != config_.series_step) {
    observed_.values.clear();
    observed_.begin = begin;
    observed_.step = config_.series_step;
  }
}

sim::SimConfig DrsController::sim_config() {
  sim::SimConfig cfg;
  cfg.policy = sim::SchedulerPolicy::kFifo;
  cfg.series_step = config_.series_step;
  cfg.backfill = true;  // greedy backfill, production Slurm behaviour
  cfg.backfill_depth = std::numeric_limits<int>::max();
  cfg.power_controller = this;
  return cfg;
}

void DrsController::wake(sim::VcSimulator& shard, const sim::JobOutcome& job,
                         int gpus_short, std::int64_t now) {
  const int nodes_needed = (gpus_short + gpus_per_node_ - 1) / gpus_per_node_ +
                           config_.sigma;  // R - CA + sigma
  const int woken = shard.wake_nodes(nodes_needed, now, config_.boot_delay);
  if (woken > 0) {
    ++wakeups_[static_cast<std::size_t>(job.vc)];
    woken_[static_cast<std::size_t>(job.vc)] += woken;
  }
}

void DrsController::on_arrival(sim::VcSimulator& shard,
                               const sim::JobOutcome& job, std::int64_t now) {
  // JobArrivalCheck: wake when the powered nodes cannot offer the request.
  const int free = shard.state().free_gpus();
  if (free < job.gpus) wake(shard, job, job.gpus - free, now);
}

void DrsController::on_blocked_head(sim::VcSimulator& shard,
                                    const sim::JobOutcome& job,
                                    std::int64_t now) {
  const sim::ClusterState& state = shard.state();
  // Fragmentation rescue: the arrival check compares totals, but gang
  // placement may still fail (a 16-GPU job needs whole free nodes). If the
  // VC has sleeping capacity and nothing already booting for it, wake enough
  // nodes for the head job.
  if (state.booting_nodes() == 0 && state.sleeping_nodes() > 0) {
    wake(shard, job, std::max(gpus_per_node_, job.gpus - state.free_gpus()),
         now);
  }
  // The head job is held back while a reboot it needs is in flight: this is
  // the paper's "affected by the 5-minute boot" population.
  if (state.booting_nodes() > 0) affected_[job.trace_index] = 1;
}

void DrsController::on_tick(
    std::span<const std::unique_ptr<sim::VcSimulator>> shards, std::int64_t now) {
  int busy = 0;
  int active = 0;
  for (const auto& shard : shards) {
    busy += shard->state().busy_nodes();
    active += shard->state().active_nodes();
  }
  const double running_now = busy;
  observed_.values.push_back(running_now);
  actual_.push_back(running_now);

  // One-step prediction (for Figure 14's "prediction" curve) and the future
  // trend over the full horizon.
  const auto horizon_steps =
      static_cast<int>(config_.future_window / config_.series_step);
  const auto pred = model_->forecast(observed_, horizon_steps);
  predicted_.push_back(pred.empty() ? running_now : pred.front());
  // Expected demand at the end of the future window: mean of the last few
  // horizon steps (robust to single-step forecast noise).
  double pred_future = running_now;
  if (!pred.empty()) {
    const std::size_t tail = std::min<std::size_t>(3, pred.size());
    pred_future = 0.0;
    for (std::size_t k = pred.size() - tail; k < pred.size(); ++k) {
      pred_future += pred[k];
    }
    pred_future /= static_cast<double>(tail);
  }

  const auto recent_steps =
      static_cast<std::size_t>(config_.recent_window / config_.series_step);
  const std::size_t n = observed_.values.size();
  const double running_past =
      n > recent_steps ? observed_.values[n - 1 - recent_steps] : running_now;
  const double trend_recent = running_past - running_now;  // T_H
  const double trend_future = running_now - pred_future;   // T_P

  const bool sleep_ok =
      config_.vanilla_drs ||
      (trend_recent >= config_.xi_h && trend_future >= config_.xi_p);
  if (!sleep_ok) return;
  const int target_active = std::min(total_nodes_, busy + config_.sigma);
  int surplus = active - target_active;
  // Sleep per VC, keeping a proportional slice of the sigma buffer idle in
  // each so arrivals anywhere rarely hit a boot wait.
  for (const auto& shard : shards) {
    if (surplus <= 0) break;
    const sim::ClusterState& state = shard->state();
    const int vc_buffer =
        std::max(1, (config_.sigma * state.node_count() + total_nodes_ - 1) /
                        std::max(1, total_nodes_));
    const int can =
        std::min(surplus, state.idle_active_nodes() - vc_buffer);
    if (can > 0) surplus -= shard->sleep_idle_nodes(can, now);
  }
}

CesResult DrsController::summarize(const sim::SimResult& run) const {
  CesResult result;
  result.total_nodes = total_nodes_;
  const auto span = static_cast<double>(window_end - window_begin);
  const double span_days = span / static_cast<double>(kSecondsPerDay);
  result.running_nodes = run.busy_nodes;
  result.active_nodes = run.active_nodes;
  result.predicted_nodes = {window_begin, config_.series_step, predicted_};
  result.total_jobs = static_cast<std::int64_t>(run.outcomes.size());
  result.wakeup_events =
      std::accumulate(wakeups_.begin(), wakeups_.end(), std::int64_t{0});
  result.woken_nodes = std::accumulate(woken_.begin(), woken_.end(), std::int64_t{0});
  result.affected_jobs = std::count(affected_.begin(), affected_.end(), 1);
  // Powered node-seconds inside the window: each bucket integral is a sum of
  // whole node-seconds, so rounding mean x step recovers it exactly, and the
  // sleeping node-seconds are exact too.
  double active_node_seconds = 0.0;
  double busy_sum = 0.0;
  double active_sum = 0.0;
  for (std::size_t i = 0; i < run.active_nodes.values.size(); ++i) {
    active_node_seconds += std::round(run.active_nodes.values[i] *
                                      static_cast<double>(config_.series_step));
    busy_sum += run.busy_nodes.values[i];
    active_sum += run.active_nodes.values[i];
  }
  const double sleeping_node_seconds = total_nodes_ * span - active_node_seconds;
  result.avg_drs_nodes = sleeping_node_seconds / span;
  result.daily_wakeups =
      span_days > 0.0 ? static_cast<double>(result.wakeup_events) / span_days : 0.0;
  result.avg_woken_per_wakeup =
      result.wakeup_events > 0
          ? static_cast<double>(result.woken_nodes) /
                static_cast<double>(result.wakeup_events)
          : 0.0;
  result.node_util_ces = active_sum > 0.0 ? busy_sum / active_sum : 0.0;
  const double saved_watts =
      kReplayPower.idle_node_watts - kReplayPower.sleep_node_watts;
  result.saved_kwh =
      sleeping_node_seconds / 3600.0 * (saved_watts / 1000.0) * kFacilityFactor;
  result.annualized_kwh =
      span_days > 0.0 ? result.saved_kwh * 365.0 / span_days : 0.0;
  result.forecast_smape = stats::smape(actual_, predicted_);
  return result;
}

CesService::CesService(CesConfig config,
                       std::unique_ptr<forecast::Forecaster> model)
    : config_(config), model_(std::move(model)) {}

void CesService::fit(const forecast::TimeSeries& running_nodes_history) {
  model_->fit(running_nodes_history);
}

CesResult CesService::replay(const Trace& eval_full,
                             const forecast::TimeSeries& history, UnixTime begin,
                             UnixTime end) const {
  const Trace eval = eval_full.between(begin, end);
  DrsController drs(config_, *model_, eval, history, begin, end);
  CesResult result =
      drs.summarize(sim::ClusterSimulator(eval.cluster(), drs.sim_config()).run(eval));

  // Baseline: every node always powered.
  sim::SimConfig base_cfg;
  base_cfg.policy = sim::SchedulerPolicy::kFifo;
  base_cfg.series_step = config_.series_step;
  const auto baseline = sim::ClusterSimulator(eval.cluster(), base_cfg).run(eval);
  const auto& bn = baseline.busy_nodes;
  const std::size_t window_buckets =
      std::min(bn.values.size(),
               static_cast<std::size_t>((end - begin) / config_.series_step));
  double busy = 0.0;
  for (std::size_t i = 0; i < window_buckets; ++i) busy += bn.values[i];
  result.node_util_original =
      window_buckets > 0 && result.total_nodes > 0
          ? busy / static_cast<double>(window_buckets) / result.total_nodes
          : 0.0;
  return result;
}

}  // namespace helios::core
