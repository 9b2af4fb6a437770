// Synthetic workload generator: the stand-in for the (unreleasable-at-build-
// time) Helios and Philly traces.
//
// The generator produces a Trace whose marginals match the paper's published
// statistics (see DESIGN.md §4 for the calibration targets) *and* whose
// correlation structure carries the signal the paper's methods exploit:
//
//  * users submit recurring, named job templates whose durations are
//    lognormal around a per-template median -> job duration is predictable
//    from (user, job name, GPU demand), which QSSF's rolling + GBDT
//    estimators rely on;
//  * arrivals follow a diurnal curve with night/lunch/dinner dips, weekend
//    attenuation, and per-month volatility for single-GPU jobs -> cluster
//    load is predictable from calendar features, which CES relies on;
//  * per-VC job-size mixes and offered loads differ -> the imbalanced-VC
//    phenomena of Figure 4 (busy large-job VCs queue, small-job VCs idle).
//
// Determinism: everything derives from GeneratorConfig::seed; equal configs
// produce byte-identical traces.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "trace/trace.h"

namespace helios::trace {

/// Hour-of-day submission weights plus weekend attenuation (Figure 2b shape).
struct DiurnalProfile {
  std::array<double, 24> hourly{};
  double weekend_factor = 0.8;

  /// The shape observed in the paper: minimum at 03-06h, dips at 12h and 18h,
  /// broad daytime plateau.
  static DiurnalProfile standard() noexcept;
};

/// Per-cluster workload knobs. `helios_knobs` / `philly_knobs` return the
/// calibrated values; tests and ablations may perturb them.
struct ClusterWorkloadKnobs {
  /// Fraction of jobs that request GPUs.
  double gpu_job_fraction = 0.5;
  /// Capacity-weighted mean of per-VC offered-load targets.
  double target_utilization = 0.8;
  /// Fraction of CPU jobs that are ~1s state queries (Earth: 0.9).
  double cpu_instant_fraction = 0.45;
  /// Scales all GPU-job duration medians (Earth runs shorter jobs).
  double duration_median_scale = 1.0;
  /// Log-std-dev of per-template duration medians. Controls how heavy the
  /// duration tail is; the paper's traces have mean/median ratios of 30-300x
  /// (short debug jobs dominate counts, multi-day jobs dominate GPU time).
  double duration_spread = 2.2;
  /// Extra probability mass moved onto 1-GPU jobs (Earth ~0.9 single).
  double single_gpu_bias = 0.0;
  /// Number of distinct users submitting to the cluster (paper: 200-400).
  int n_users = 300;
  /// Std-dev of the per-month lognormal swing applied to single-GPU job
  /// volume (multi-GPU volume stays stable; Figure 3).
  double month_volatility = 0.45;
  /// Whether failed jobs die quickly (user errors; Helios) or keep their
  /// full duration (retry-until-limit semantics; Philly).
  bool failed_fast = true;
  /// Base probability that a 1-GPU job completes (degrades with size).
  double base_completion = 0.68;
  /// Zipf exponent of user activity (GPU jobs).
  double user_zipf_s = 1.05;
  /// Probability that a non-debug submission is a burst of 2-5 near-
  /// simultaneous configurations of the same template (hyper-parameter
  /// exploration). PAI's recurring short jobs resubmit far more often.
  double burst_probability = 0.35;
};

[[nodiscard]] ClusterWorkloadKnobs helios_knobs(const std::string& cluster_name);
[[nodiscard]] ClusterWorkloadKnobs philly_knobs();

/// Workload family calibrated to the Alibaba-PAI characterization (Wang et
/// al., arXiv:1910.05930): short recurring jobs (minutes-scale medians, high
/// resubmission/burst rate), a much heavier CPU component (most jobs request
/// no GPU, and CPU jobs are real preprocessing/training work rather than
/// state queries), and a size mix concentrated on 1-2 GPUs.
[[nodiscard]] ClusterWorkloadKnobs pai_knobs();

struct GeneratorConfig {
  ClusterSpec cluster;
  ClusterWorkloadKnobs knobs;
  /// Generation window. `begin` precedes the published trace window by a
  /// warm-up period so the cluster is in steady state at `window_begin`
  /// (a real trace starts with long jobs already running; an empty cluster
  /// would otherwise show a multi-week utilization ramp).
  UnixTime begin = 0;
  UnixTime end = 0;
  /// Start of the published window; job counts are calibrated per day of
  /// [window_begin, end) and extended backwards over the warm-up.
  UnixTime window_begin = 0;
  /// Multiplies job counts (not duration/size distributions); benches use
  /// HELIOS_SCALE to trade fidelity of absolute counts for runtime.
  double scale = 1.0;
  std::uint64_t seed = 42;
  DiurnalProfile diurnal = DiurnalProfile::standard();

  /// Calibrated configs for the paper's five traces.
  static GeneratorConfig helios(const ClusterSpec& cluster, std::uint64_t seed,
                                double scale);
  static GeneratorConfig philly(std::uint64_t seed, double scale);
  /// The Alibaba-PAI workload family on trace::pai_cluster(), generated over
  /// the Helios window so PAI cells line up in time with Helios cells in a
  /// scenario sweep.
  static GeneratorConfig pai(std::uint64_t seed, double scale);
};

class SyntheticTraceGenerator {
 public:
  explicit SyntheticTraceGenerator(GeneratorConfig config);

  /// Generate the full trace (GPU + CPU jobs), sorted by submission time.
  /// start_time defaults to submit_time; operate the trace under src/sim to
  /// obtain a realistic schedule.
  [[nodiscard]] Trace generate();

  [[nodiscard]] const GeneratorConfig& config() const noexcept { return config_; }

 private:
  GeneratorConfig config_;
};

/// The Philly comparison trace.
[[nodiscard]] Trace generate_philly(std::uint64_t seed, double scale);

/// The Alibaba-PAI comparison trace (pai_knobs on pai_cluster).
[[nodiscard]] Trace generate_pai(std::uint64_t seed, double scale);

}  // namespace helios::trace
