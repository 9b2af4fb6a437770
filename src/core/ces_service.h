// Cluster Energy Saving service (paper §4.3, Algorithm 2).
//
// Predicts the cluster's future node demand with a time-series model and
// uses Dynamic Resource Sleep (DRS) to power idle nodes off:
//  * JobArrivalCheck — on submission, if the requested resources exceed what
//    the powered nodes can offer, wake (R - CA + σ) nodes immediately (IPMI;
//    a woken node takes boot_delay to become schedulable, delaying jobs).
//  * PeriodicCheck — every check_interval, compute the recent reduction in
//    busy nodes (T_H, from observed history) and the predicted reduction
//    over the coming future_window (T_P, from the forecaster). When both
//    exceed their thresholds ξ_H/ξ_P, sleep idle nodes down to CR + σ.
// The "vanilla DRS" baseline skips both trend conditions and sleeps whenever
// idle nodes exist — the paper reports it wakes nodes ~34x/day vs 1.1-2.6x.
// replay() runs DRS as a sim::PowerController inside sim::ClusterSimulator
// (FIFO, greedy backfill over the whole queue) and reads every series and
// counter from the simulator's segment accounting.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/power_model.h"
#include "forecast/models.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace helios::core {

struct CesConfig {
  int sigma = 4;                          ///< buffer nodes kept powered
  double xi_h = 0.5;                      ///< recent-trend threshold (nodes)
  double xi_p = 0.5;                      ///< future-trend threshold (nodes)
  std::int64_t check_interval = 600;      ///< PeriodicCheck cadence (10 min)
  std::int64_t boot_delay = 300;          ///< node reboot time (5 min)
  std::int64_t recent_window = 3600;      ///< T_H lookback (1 h)
  std::int64_t future_window = 3 * 3600;  ///< T_P horizon (3 h)
  std::int64_t series_step = 600;         ///< node-series resolution
  bool vanilla_drs = false;               ///< baseline: no trend conditions
};

/// Everything Figure 14/15 and Table 5 need.
struct CesResult {
  forecast::TimeSeries running_nodes;    ///< busy nodes under CES
  forecast::TimeSeries active_nodes;     ///< powered nodes under CES
  forecast::TimeSeries predicted_nodes;  ///< forecaster output per bucket
  int total_nodes = 0;

  double avg_drs_nodes = 0.0;       ///< time-average sleeping nodes in window
  double daily_wakeups = 0.0;       ///< NodesWakeUp events per day
  double avg_woken_per_wakeup = 0.0;
  std::int64_t wakeup_events = 0;
  std::int64_t woken_nodes = 0;
  double node_util_original = 0.0;  ///< busy/total, all nodes always powered
  double node_util_ces = 0.0;       ///< busy/active under CES
  /// Jobs that waited at the head of their VC queue while nodes were booting
  /// for them — the paper's "jobs affected by the 5-minute reboot".
  std::int64_t affected_jobs = 0;
  std::int64_t total_jobs = 0;
  double saved_kwh = 0.0;           ///< over the replay window, incl. cooling
  double annualized_kwh = 0.0;
  double forecast_smape = 0.0;      ///< predicted vs actual running nodes
};

/// Dynamic Resource Sleep as a sim::PowerController: one instance drives one
/// ClusterSimulator run of `eval` (sorted by submit time) over [begin, end).
class DrsController final : public sim::PowerController {
 public:
  /// `model` must be fitted; `history` seeds its lag buffer.
  DrsController(const CesConfig& config, const forecast::Forecaster& model,
                const trace::Trace& eval, forecast::TimeSeries history,
                UnixTime begin, UnixTime end);

  /// The CES replay's simulator configuration: FIFO with greedy backfill
  /// over the whole queue, the CES series step, and this controller.
  [[nodiscard]] sim::SimConfig sim_config();

  /// The CES figures of `run`, the simulator run this controller drove —
  /// every field but node_util_original, which needs the always-on run.
  /// Sleeping node-seconds save the default PowerProfile's (idle - sleep)
  /// node watts (the profile sim_config() leaves), tripled for cooling.
  [[nodiscard]] CesResult summarize(const sim::SimResult& run) const;

  void on_arrival(sim::VcSimulator& shard, const sim::JobOutcome& job,
                  std::int64_t now) override;
  void on_blocked_head(sim::VcSimulator& shard, const sim::JobOutcome& job,
                       std::int64_t now) override;
  void on_tick(std::span<const std::unique_ptr<sim::VcSimulator>> shards,
               std::int64_t now) override;

 private:
  /// NodesWakeUp in `job`'s VC: R - CA + σ nodes for `gpus_short` GPUs.
  void wake(sim::VcSimulator& shard, const sim::JobOutcome& job,
            int gpus_short, std::int64_t now);

  CesConfig config_;
  const forecast::Forecaster* model_;
  int gpus_per_node_;
  int total_nodes_;
  forecast::TimeSeries observed_;  ///< history + checks: the forecast lags
  std::vector<double> predicted_;  ///< one-step forecast per check
  std::vector<double> actual_;     ///< running nodes per check
  std::vector<std::int64_t> wakeups_;  ///< per VC, written by its shard only
  std::vector<std::int64_t> woken_;    ///< per VC, likewise
  std::vector<char> affected_;  ///< per job: head of queue while nodes booted
};

class CesService {
 public:
  /// The forecaster models the *running nodes* series; the paper's choice is
  /// a GBDT (forecast::GBDTForecaster), compared against ARIMA/Prophet-like
  /// baselines in ablation_forecast.
  CesService(CesConfig config, std::unique_ptr<forecast::Forecaster> model);

  /// Train the forecaster on the historical running-nodes series (e.g. the
  /// FIFO-operated April-August trace).
  void fit(const forecast::TimeSeries& running_nodes_history);

  /// Model Update Engine hook (re-fits from the operated trace's series).
  void update(const trace::Trace& new_data);

  /// Replay `eval` (GPU jobs inside [begin, end), FIFO order) under
  /// Algorithm 2. `history` is the observed running-nodes series preceding
  /// `begin`; it seeds the forecaster's lags and keeps extending as the
  /// replay observes new samples. Late jobs drain past `end`, but every
  /// figure covers [begin, end) only.
  [[nodiscard]] CesResult replay(const trace::Trace& eval,
                                 const forecast::TimeSeries& history,
                                 UnixTime begin, UnixTime end) const;

  [[nodiscard]] const CesConfig& config() const noexcept { return config_; }
  [[nodiscard]] const forecast::Forecaster& forecaster() const noexcept {
    return *model_;
  }

 private:
  CesConfig config_;
  std::unique_ptr<forecast::Forecaster> model_;
};

}  // namespace helios::core
