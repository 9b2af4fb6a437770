#include "trace/synthetic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/thread_pool.h"

namespace helios::trace {

namespace {

constexpr std::int32_t kMaxDurationSeconds = 50 * 24 * 3600;  // 50 days (Table 2)

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// VC workload classes: bigger VCs host bigger jobs (Figure 4 correlation).
enum class VCClass { kSmall, kMixed, kLarge };

struct SizeMix {
  std::vector<double> weights;  // weight of 2^k GPUs at index k
};

SizeMix size_mix_for(VCClass c, double single_gpu_bias) {
  SizeMix m;
  switch (c) {
    case VCClass::kSmall:
      m.weights = {0.68, 0.17, 0.10, 0.04, 0.01};
      break;
    case VCClass::kMixed:
      m.weights = {0.55, 0.15, 0.15, 0.10, 0.03, 0.015, 0.005};
      break;
    case VCClass::kLarge:
      m.weights = {0.38, 0.12, 0.17, 0.18, 0.09, 0.04, 0.015, 0.004, 0.001};
      break;
  }
  if (single_gpu_bias > 0.0) {
    // Move mass onto single-GPU jobs (Earth: ~90% single overall).
    double total = std::accumulate(m.weights.begin(), m.weights.end(), 0.0);
    for (auto& w : m.weights) w *= (1.0 - single_gpu_bias);
    m.weights[0] += single_gpu_bias * total;
  }
  return m;
}

/// A recurring job archetype of one user (model training runs, eval loops,
/// preprocessing pipelines, ...). Instances share the name stem and draw
/// durations around the template median -> this is the predictability QSSF
/// exploits.
struct Template {
  std::uint32_t name_id = 0;                 // base name
  std::vector<std::uint32_t> variant_ids;    // name variants ("_v0".."_v3")
  double mu = 0.0;                           // log-median of duration
  double sigma = 0.5;                        // per-instance noise
  std::int32_t gpus = 1;
  double weight = 1.0;
  bool debug = false;
};

struct UserModel {
  std::uint32_t user_id = 0;  // interned id
  std::vector<Template> templates;
  CategoricalSampler template_sampler;
  double activity = 1.0;
};

struct VCPlan {
  int vc_index = 0;
  std::uint32_t vc_id = 0;
  double target_util = 0.8;
  VCClass cls = VCClass::kMixed;
  double job_share = 0.0;
  std::int64_t n_jobs = 0;
  std::vector<UserModel> users;
  CategoricalSampler user_sampler;
};

const char* const kKinds[] = {"train", "finetune", "eval",
                              "preprocess", "export", "search"};
const char* const kModels[] = {"resnet50", "bert", "gpt2", "mnasnet", "yolov3",
                               "pointnet", "deeplab", "lstm", "xlnet", "vgg16",
                               "mobilenet", "transformer"};
const char* const kDebugNames[] = {"debug", "test", "bash", "python",
                                   "jupyter", "interactive"};

/// Completion probability by GPU count (Figure 7b shape: decreasing with
/// size, small bump at 2 GPUs, <25% at >=64 GPUs).
double completion_prob(std::int32_t gpus, double base) {
  const double lg = std::log2(static_cast<double>(std::max(1, gpus)));
  double p = base * std::pow(0.83, lg);
  if (gpus == 2) p += 0.06;
  return std::clamp(p, 0.10, 0.95);
}

/// Among unsuccessful jobs, the canceled share grows with job size (big jobs
/// are early-stopped rather than crashing; Figure 7b: ~70% canceled at >=64).
double canceled_share(std::int32_t gpus) {
  const double lg = std::log2(static_cast<double>(std::max(1, gpus)));
  return std::clamp(0.60 + 0.06 * lg, 0.0, 0.93);
}

}  // namespace

DiurnalProfile DiurnalProfile::standard() noexcept {
  DiurnalProfile p;
  // Hand-shaped to Figure 2(b): overnight trough, ramp from 08h, dip at 12h
  // (lunch) and 18h (dinner), evening shoulder.
  constexpr double shape[24] = {
      0.55, 0.42, 0.34, 0.30, 0.28, 0.30,   // 00-05
      0.38, 0.52, 0.72, 0.95, 1.05, 1.10,   // 06-11
      0.88, 1.00, 1.10, 1.12, 1.10, 1.05,   // 12-17
      0.85, 0.98, 1.05, 1.00, 0.88, 0.70};  // 18-23
  std::copy(std::begin(shape), std::end(shape), p.hourly.begin());
  p.weekend_factor = 0.78;
  return p;
}

ClusterWorkloadKnobs helios_knobs(const std::string& cluster_name) {
  ClusterWorkloadKnobs k;
  if (cluster_name == "Venus") {
    k.gpu_job_fraction = 0.55;
    k.target_utilization = 0.80;
    k.n_users = 250;
    k.cpu_instant_fraction = 0.45;
  } else if (cluster_name == "Earth") {
    k.gpu_job_fraction = 0.35;
    // Offered-load target; realized utilization lands a few points lower
    // (gang packing + queue spill), near the paper's 73%.
    k.target_utilization = 0.80;
    k.n_users = 300;
    k.cpu_instant_fraction = 0.90;
    k.duration_median_scale = 0.55;  // Earth's GPU jobs are overall shorter
    // Mostly single-GPU short jobs, yet 73% utilization: the tail must be
    // extremely heavy (mean/median ~300x).
    k.duration_spread = 3.1;
    k.single_gpu_bias = 0.80;        // ~90% single-GPU jobs
  } else if (cluster_name == "Saturn") {
    k.gpu_job_fraction = 0.52;
    k.target_utilization = 0.85;  // highest utilization, smallest variance
    k.n_users = 400;
    k.cpu_instant_fraction = 0.45;
  } else if (cluster_name == "Uranus") {
    k.gpu_job_fraction = 0.50;
    k.target_utilization = 0.78;
    k.n_users = 250;
    k.cpu_instant_fraction = 0.45;
  }
  return k;
}

ClusterWorkloadKnobs philly_knobs() {
  ClusterWorkloadKnobs k;
  k.gpu_job_fraction = 1.0;  // the Philly trace contains only GPU jobs
  k.target_utilization = 0.58;
  k.n_users = 300;
  k.duration_median_scale = 6.0;  // Philly jobs run much longer (Table 2)
  k.single_gpu_bias = 0.60;       // Philly averages 1.75 GPUs per job
  k.month_volatility = 0.25;
  k.failed_fast = false;  // YARN retries: failures consume full duration
  k.base_completion = 0.60;
  return k;
}

ClusterWorkloadKnobs pai_knobs() {
  // Wang et al. (arXiv:1910.05930) characterize PAI as a stream of short,
  // frequently resubmitted training jobs with a dominant CPU component:
  // most tasks request no GPU at all, GPU requests concentrate on 1-2
  // cards, and job medians sit at minutes rather than hours.
  ClusterWorkloadKnobs k;
  k.gpu_job_fraction = 0.40;       // heavier CPU component than any Helios cluster
  k.target_utilization = 0.65;
  k.cpu_instant_fraction = 0.10;   // CPU jobs are real work, not state queries
  k.duration_median_scale = 0.20;  // minutes-scale medians
  k.duration_spread = 1.6;         // narrower tail than Helios
  k.single_gpu_bias = 0.70;        // GPU demand concentrates on 1-2 cards
  k.n_users = 350;
  k.month_volatility = 0.30;
  k.failed_fast = true;
  k.base_completion = 0.78;        // recurring production jobs mostly complete
  k.user_zipf_s = 1.20;
  k.burst_probability = 0.55;      // high resubmission rate of recurring jobs
  return k;
}

namespace {
constexpr std::int64_t kWarmupDays = 35;
}

GeneratorConfig GeneratorConfig::helios(const ClusterSpec& cluster,
                                        std::uint64_t seed, double scale) {
  GeneratorConfig c;
  // Scale nodes together with job counts so offered load per GPU — and with
  // it utilization, queuing, and scheduler behaviour — is scale-invariant.
  c.cluster = scale_cluster(cluster, scale);
  c.knobs = helios_knobs(cluster.name);
  c.window_begin = helios_trace_begin();
  c.begin = c.window_begin - kWarmupDays * kSecondsPerDay;
  c.end = helios_trace_end();
  c.scale = scale;
  c.seed = seed ^ fnv1a(cluster.name);
  return c;
}

GeneratorConfig GeneratorConfig::philly(std::uint64_t seed, double scale) {
  GeneratorConfig c;
  c.cluster = scale_cluster(philly_cluster(), scale);
  c.knobs = philly_knobs();
  c.window_begin = philly_trace_begin();
  c.begin = c.window_begin - kWarmupDays * kSecondsPerDay;
  c.end = philly_trace_end();
  c.scale = scale;
  c.seed = seed ^ fnv1a("Philly");
  return c;
}

GeneratorConfig GeneratorConfig::pai(std::uint64_t seed, double scale) {
  GeneratorConfig c;
  c.cluster = scale_cluster(pai_cluster(), scale);
  c.knobs = pai_knobs();
  // Helios window: PAI cells of a sweep line up in time with Helios cells.
  c.window_begin = helios_trace_begin();
  c.begin = c.window_begin - kWarmupDays * kSecondsPerDay;
  c.end = helios_trace_end();
  c.scale = scale;
  c.seed = seed ^ fnv1a("PAI");
  return c;
}

SyntheticTraceGenerator::SyntheticTraceGenerator(GeneratorConfig config)
    : config_(std::move(config)) {}

namespace {

/// Per-day submission weights for the generation window, split into the
/// volatile single-GPU stream and the stable multi-GPU stream (Figure 3).
struct DayWeights {
  UnixTime begin = 0;
  int n_days = 0;
  std::vector<double> single_gpu;
  std::vector<double> multi_gpu;
};

DayWeights build_day_weights(const GeneratorConfig& cfg, Rng& rng) {
  DayWeights w;
  w.begin = floor_day(cfg.begin);
  w.n_days = static_cast<int>((cfg.end - w.begin + kSecondsPerDay - 1) /
                              kSecondsPerDay);
  w.single_gpu.resize(static_cast<std::size_t>(w.n_days));
  w.multi_gpu.resize(static_cast<std::size_t>(w.n_days));

  // One volatility factor per calendar month for each stream.
  std::vector<double> single_month(16, 1.0);
  std::vector<double> multi_month(16, 1.0);
  for (auto& f : single_month) f = std::exp(rng.normal(0.0, cfg.knobs.month_volatility));
  for (auto& f : multi_month) f = std::exp(rng.normal(0.0, 0.08));

  for (int d = 0; d < w.n_days; ++d) {
    const UnixTime t = w.begin + static_cast<UnixTime>(d) * kSecondsPerDay;
    const CivilTime c = to_civil(t);
    const double weekend = is_holiday(t) ? cfg.diurnal.weekend_factor : 1.0;
    const auto m = static_cast<std::size_t>(c.month - 1);
    w.single_gpu[static_cast<std::size_t>(d)] = weekend * single_month[m];
    w.multi_gpu[static_cast<std::size_t>(d)] = weekend * multi_month[m];
  }
  return w;
}

/// Samples a submission timestamp: day by stream weight, hour by the diurnal
/// curve, second uniform within the hour.
UnixTime sample_submit(const DayWeights& days, const CategoricalSampler& day_single,
                       const CategoricalSampler& day_multi,
                       const CategoricalSampler& hour_sampler, bool single_gpu,
                       Rng& rng) {
  const std::size_t day =
      single_gpu ? day_single.sample(rng) : day_multi.sample(rng);
  const std::size_t hour = hour_sampler.sample(rng);
  const auto sec = static_cast<UnixTime>(rng.uniform_index(3600));
  return days.begin + static_cast<UnixTime>(day) * kSecondsPerDay +
         static_cast<UnixTime>(hour) * kSecondsPerHour + sec;
}

struct ClusterPlan {
  std::vector<VCPlan> vcs;
  std::vector<std::string> user_names;  // per cluster-local user index
};

/// Duration median grows sub-linearly with GPU demand: multi-GPU production
/// runs train longer than 1-GPU eval/debug jobs. Keeps the global median
/// near the paper's 206s while putting ~60% of GPU time in >=8-GPU jobs.
double base_median_seconds(std::int32_t gpus) {
  return 200.0 * std::pow(static_cast<double>(gpus), 0.45);
}

}  // namespace

Trace SyntheticTraceGenerator::generate() {
  const auto& cfg = config_;
  const auto& knobs = cfg.knobs;
  Trace trace(cfg.cluster);
  Rng master(cfg.seed);

  // ---- global tables -------------------------------------------------------
  const DayWeights days = build_day_weights(cfg, master);
  const CategoricalSampler day_single(days.single_gpu);
  const CategoricalSampler day_multi(days.multi_gpu);
  const CategoricalSampler hour_sampler(
      std::span<const double>(cfg.diurnal.hourly.data(), 24));

  // User names: a shared pool (users submitting to several clusters) plus a
  // cluster-exclusive range.
  const int n_users = std::max(4, knobs.n_users);
  const auto cluster_base =
      static_cast<int>(1000 + (fnv1a(cfg.cluster.name) % 97) * 83);
  std::vector<std::string> user_names;
  user_names.reserve(static_cast<std::size_t>(n_users));
  char buf[32];
  for (int i = 0; i < n_users; ++i) {
    const int global = i < 60 ? i : cluster_base + i;
    std::snprintf(buf, sizeof buf, "u%04d", global);
    user_names.emplace_back(buf);
  }

  // ---- VC plans ------------------------------------------------------------
  const auto& vcs = cfg.cluster.vcs;
  const std::size_t n_vcs = vcs.size();
  std::vector<std::size_t> by_size(n_vcs);
  std::iota(by_size.begin(), by_size.end(), 0);
  std::sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
    return vcs[a].nodes > vcs[b].nodes;
  });

  std::vector<VCPlan> plans(n_vcs);
  for (std::size_t rank = 0; rank < n_vcs; ++rank) {
    const std::size_t vi = by_size[rank];
    VCPlan& p = plans[vi];
    p.vc_index = static_cast<int>(vi);
    p.vc_id = trace.vcs().intern(vcs[vi].name);
    const double frac = n_vcs > 1
                            ? static_cast<double>(rank) / static_cast<double>(n_vcs - 1)
                            : 0.0;
    p.cls = frac < 0.2    ? VCClass::kLarge
            : frac < 0.62 ? VCClass::kMixed
                          : VCClass::kSmall;
    const double class_util = p.cls == VCClass::kLarge   ? 0.10
                              : p.cls == VCClass::kMixed ? 0.00
                                                         : -0.12;
    p.target_util = std::clamp(
        knobs.target_utilization + class_util + master.normal(0.0, 0.05), 0.45,
        0.97);
    const double count_factor = p.cls == VCClass::kLarge   ? 0.45
                                : p.cls == VCClass::kMixed ? 1.0
                                                           : 1.6;
    p.job_share = std::pow(static_cast<double>(vcs[vi].nodes), 0.7) * count_factor;
  }

  // Rescale per-VC utilization so the capacity-weighted mean hits the knob.
  {
    double cap_util = 0.0;
    double cap = 0.0;
    for (std::size_t vi = 0; vi < n_vcs; ++vi) {
      cap_util += plans[vi].target_util * vcs[vi].total_gpus();
      cap += vcs[vi].total_gpus();
    }
    const double adjust = knobs.target_utilization / std::max(1e-9, cap_util / cap);
    for (auto& p : plans) p.target_util = std::clamp(p.target_util * adjust, 0.40, 0.97);
    double share_sum = 0.0;
    for (const auto& p : plans) share_sum += p.job_share;
    for (auto& p : plans) p.job_share /= share_sum;
  }

  // ---- users & templates ---------------------------------------------------
  // Users are partitioned across VCs (each group has its own VC, §2.1),
  // proportionally to VC job share.
  std::vector<std::uint32_t> user_ids;
  user_ids.reserve(user_names.size());
  for (const auto& name : user_names) user_ids.push_back(trace.users().intern(name));

  std::vector<std::uint32_t> debug_name_ids;
  for (const char* n : kDebugNames) debug_name_ids.push_back(trace.names().intern(n));

  // reference_jobs covers the published window; extend the volume pro rata
  // over the warm-up prefix.
  const UnixTime window_begin =
      cfg.window_begin > 0 ? cfg.window_begin : cfg.begin;
  const double span_ratio =
      static_cast<double>(cfg.end - cfg.begin) /
      static_cast<double>(std::max<UnixTime>(1, cfg.end - window_begin));
  const std::int64_t total_jobs = std::llround(
      static_cast<double>(cfg.cluster.reference_jobs) * cfg.scale * span_ratio);
  const auto gpu_jobs_target =
      static_cast<std::int64_t>(total_jobs * knobs.gpu_job_fraction);

  int next_user = 0;
  for (std::size_t vi = 0; vi < n_vcs; ++vi) {
    VCPlan& p = plans[vi];
    p.n_jobs = std::llround(static_cast<double>(gpu_jobs_target) * p.job_share);
    int vc_users = std::max(
        1, static_cast<int>(std::lround(p.job_share * static_cast<double>(n_users))));
    if (vi + 1 == n_vcs) vc_users = std::max(1, n_users - next_user);
    const SizeMix mix = size_mix_for(p.cls, knobs.single_gpu_bias);
    const CategoricalSampler size_sampler(mix.weights);

    std::vector<double> activities;
    for (int u = 0; u < vc_users; ++u) {
      UserModel um;
      const int uidx = (next_user + u) % n_users;
      um.user_id = user_ids[static_cast<std::size_t>(uidx)];
      um.activity = master.pareto(1.0, knobs.user_zipf_s);
      const int n_templates = 2 + static_cast<int>(master.uniform_index(6));
      std::vector<double> tweights;
      for (int t = 0; t < n_templates; ++t) {
        Template tpl;
        const std::size_t k = size_sampler.sample(master);
        tpl.gpus = 1 << k;
        while (tpl.gpus > vcs[vi].total_gpus() && tpl.gpus > 1) tpl.gpus /= 2;
        double median =
            base_median_seconds(tpl.gpus) * knobs.duration_median_scale *
            std::exp(master.normal(0.0, knobs.duration_spread));
        if (t == 0) {
          // Every user keeps at least one production training template that
          // runs for hours: guarantees each VC a stretchable long-job tail
          // for the utilization calibration (a VC whose sampled templates
          // were all short could otherwise never reach its offered load).
          median = std::max(median, 3.0 * 3600.0 *
                                        std::exp(master.normal(0.0, 0.8)));
        }
        tpl.mu = std::log(std::max(2.0, median));
        tpl.sigma = master.uniform(0.30, 0.70);
        tpl.weight = master.pareto(1.0, 1.2);
        const char* kind = kKinds[master.uniform_index(std::size(kKinds))];
        const char* model = kModels[master.uniform_index(std::size(kModels))];
        std::string base = user_names[static_cast<std::size_t>(uidx)] + "_" +
                           kind + "_" + model;
        tpl.name_id = trace.names().intern(base);
        for (int v = 0; v < 4; ++v) {
          tpl.variant_ids.push_back(trace.names().intern(base + "_v" + std::to_string(v)));
        }
        tweights.push_back(tpl.weight);
        um.templates.push_back(std::move(tpl));
      }
      // One generic debug/eval template per user: short, failure-heavy,
      // small; the paper's Implication #6 workload.
      Template dbg;
      dbg.debug = true;
      dbg.gpus = master.bernoulli(0.7) ? 1 : 2;
      dbg.mu = std::log(50.0 * knobs.duration_median_scale + 2.0);
      dbg.sigma = 0.9;
      dbg.weight = 0.55 * static_cast<double>(n_templates);
      dbg.name_id = debug_name_ids[master.uniform_index(debug_name_ids.size())];
      dbg.variant_ids = debug_name_ids;
      tweights.push_back(dbg.weight);
      um.templates.push_back(std::move(dbg));

      um.template_sampler = CategoricalSampler(tweights);
      activities.push_back(um.activity);
      p.users.push_back(std::move(um));
    }
    next_user += vc_users;
    p.user_sampler = CategoricalSampler(activities);
  }

  // ---- GPU job emission (parallel across VCs, deterministic per-VC seeds) --
  const int cpus_per_gpu =
      std::max(1, cfg.cluster.cpus_per_node / cfg.cluster.gpus_per_node);
  std::vector<std::vector<JobRecord>> vc_jobs(n_vcs);
  const UnixTime span = cfg.end - cfg.begin;
  const std::uint64_t seed_base = cfg.seed;
  const ClusterWorkloadKnobs knobs_copy = knobs;

  parallel_for(
      0, n_vcs,
      [&](std::size_t vi) {
        const VCPlan& p = plans[vi];
        Rng rng(seed_base ^ (0x9e3779b97f4a7c15ULL * (vi + 1)));
        auto& out = vc_jobs[vi];
        out.reserve(static_cast<std::size_t>(p.n_jobs));
        while (static_cast<std::int64_t>(out.size()) < p.n_jobs) {
          const UserModel& um = p.users[p.user_sampler.sample(rng)];
          const Template& tpl = um.templates[um.template_sampler.sample(rng)];
          // Feedback-driven exploration: a submission event is a burst of
          // 1..5 near-simultaneous configurations of the same template.
          int burst = 1;
          if (!tpl.debug && rng.bernoulli(knobs_copy.burst_probability)) {
            burst = 2 + static_cast<int>(rng.uniform_index(4));
          }
          UnixTime submit = sample_submit(days, day_single, day_multi,
                                          hour_sampler, tpl.gpus == 1, rng);
          for (int b = 0; b < burst &&
                          static_cast<std::int64_t>(out.size()) < p.n_jobs;
               ++b) {
            JobRecord j;
            j.submit_time = submit;
            submit += 30 + static_cast<UnixTime>(rng.uniform_index(270));
            j.start_time = j.submit_time;
            j.num_gpus = tpl.gpus;
            j.num_cpus = tpl.gpus * cpus_per_gpu;
            j.user = um.user_id;
            j.vc = p.vc_id;
            j.name = rng.bernoulli(0.6)
                         ? tpl.name_id
                         : tpl.variant_ids[rng.uniform_index(tpl.variant_ids.size())];
            double dur = rng.lognormal(tpl.mu, tpl.sigma);

            // Final status (Figure 7 shapes).
            const double pc = tpl.debug
                                  ? 0.42
                                  : completion_prob(tpl.gpus, knobs_copy.base_completion);
            const double r = rng.uniform();
            if (r < pc) {
              j.state = JobState::kCompleted;
            } else {
              double cshare = tpl.debug ? 0.25 : canceled_share(tpl.gpus);
              // Retry semantics (Philly): more of the unsuccessful jobs end
              // as failures, and they burn their whole runtime (Figure 1b).
              if (!knobs_copy.failed_fast) cshare *= 0.70;
              if (rng.uniform() < cshare) {
                j.state = JobState::kCanceled;
                dur *= rng.uniform(0.50, 1.0);  // early-stopped
              } else {
                j.state = JobState::kFailed;
                if (knobs_copy.failed_fast && rng.bernoulli(0.65)) {
                  dur = std::min(dur, 1.0 + rng.lognormal(std::log(90.0), 1.2));
                }
              }
            }
            j.duration = static_cast<std::int32_t>(
                std::clamp(dur, 1.0, static_cast<double>(kMaxDurationSeconds)));
            out.push_back(j);
          }
        }

        // Per-VC offered-load calibration: stretch the long-job tail so that
        // total GPU time hits target_util * capacity * span. Stretch weight
        // ramps from 0 below 4 h to 1 above 12 h (log-graduated): the
        // duration median, the short-job CDF, *and* the 1-4 h daytime band
        // (whose same-day completions produce Figure 2's day/night
        // utilization swing) are untouched; only multi-half-day production
        // jobs absorb the calibration. The factor is solved by bisection on
        // the monotone offered-load function.
        const double capacity_time = static_cast<double>(vcs[vi].total_gpus()) *
                                     static_cast<double>(span);
        const double target_time = p.target_util * capacity_time;
        const double w_lo = std::log(1.0 * 3600.0);
        const double w_hi = std::log(6.0 * 3600.0);
        auto stretch_weight = [&](double dur) {
          if (dur <= 1.0 * 3600.0) return 0.0;
          if (dur >= 6.0 * 3600.0) return 1.0;
          return (std::log(dur) - w_lo) / (w_hi - w_lo);
        };
        // GPU time is accounted clipped to the generation window: a job
        // stretched past cfg.end only occupies the cluster until cfg.end, so
        // the unclipped tail would otherwise overshoot the target without
        // raising in-window utilization.
        double short_total = 0.0;
        struct TailJob {
          double duration;
          double gpus;
          double weight;
          double horizon;  ///< seconds from submit to cfg.end
        };
        std::vector<TailJob> tail;
        for (const auto& j : out) {
          const auto dur = static_cast<double>(j.duration);
          const double horizon =
              std::max(1.0, static_cast<double>(cfg.end - j.submit_time));
          const double w = stretch_weight(dur);
          if (w > 0.0) {
            tail.push_back({dur, static_cast<double>(j.num_gpus), w, horizon});
          } else {
            short_total += std::min(dur, horizon) * j.num_gpus;
          }
        }
        auto offered = [&](double f) {
          double total = short_total;
          const double lf = std::log(f);
          for (const auto& tj : tail) {
            total += std::min({tj.duration * std::exp(tj.weight * lf),
                               static_cast<double>(kMaxDurationSeconds),
                               tj.horizon}) *
                     tj.gpus;
          }
          return total;
        };
        double f_lo = 0.02;
        double f_hi = 150.0;
        if (offered(f_lo) < target_time && offered(f_hi) > target_time) {
          for (int iter = 0; iter < 40; ++iter) {
            const double mid = std::sqrt(f_lo * f_hi);  // bisect in log space
            (offered(mid) < target_time ? f_lo : f_hi) = mid;
          }
        } else {
          // Target unreachable within bounds: pin to the nearer bound.
          f_lo = f_hi = offered(f_hi) <= target_time ? f_hi : f_lo;
        }
        const double f = std::sqrt(f_lo * f_hi);
        for (auto& j : out) {
          const auto dur = static_cast<double>(j.duration);
          const double w = stretch_weight(dur);
          if (w > 0.0) {
            j.duration = static_cast<std::int32_t>(std::clamp(
                dur * std::pow(f, w), 1.0,
                static_cast<double>(kMaxDurationSeconds)));
          }
        }
      },
      /*grain=*/1);

  // ---- CPU jobs (cluster level) --------------------------------------------
  const std::int64_t cpu_jobs_target = total_jobs - gpu_jobs_target;
  std::vector<JobRecord> cpu_jobs;
  if (cpu_jobs_target > 0) {
    cpu_jobs.reserve(static_cast<std::size_t>(cpu_jobs_target));
    Rng rng(cfg.seed ^ 0xc0ffee123456789ULL);
    // Only ~25% of users run CPU jobs, with steep concentration (Figure 8b).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> cpu_users;  // user, vc
    std::vector<double> weights;
    for (const auto& p : plans) {
      for (const auto& um : p.users) {
        if (rng.bernoulli(0.25)) {
          cpu_users.emplace_back(um.user_id, p.vc_id);
          weights.push_back(rng.pareto(1.0, 0.75));
        }
      }
    }
    if (cpu_users.empty()) {
      cpu_users.emplace_back(user_ids[0], plans[0].vc_id);
      weights.push_back(1.0);
    }
    const CategoricalSampler cpu_user_sampler(weights);
    const std::uint32_t query_name = trace.names().intern("query_state");
    std::vector<std::uint32_t> prep_names;
    for (const char* m : {"extract_frames", "decompress", "rescale_images",
                          "pack_dataset", "quantize_model"}) {
      prep_names.push_back(trace.names().intern(m));
    }
    const std::vector<double> cpu_count_weights = {0.30, 0.25, 0.20, 0.15, 0.08, 0.02};
    const int cpu_counts[] = {1, 4, 8, 16, 32, cfg.cluster.cpus_per_node};
    const CategoricalSampler cpu_count_sampler(cpu_count_weights);

    for (std::int64_t i = 0; i < cpu_jobs_target; ++i) {
      const std::size_t ui = cpu_user_sampler.sample(rng);
      JobRecord j;
      j.submit_time = sample_submit(days, day_single, day_multi, hour_sampler,
                                    /*single_gpu=*/true, rng);
      j.start_time = j.submit_time;
      j.num_gpus = 0;
      j.user = cpu_users[ui].first;
      j.vc = cpu_users[ui].second;
      double dur;
      if (rng.bernoulli(knobs.cpu_instant_fraction)) {
        // Training-progress / node-state queries: ~1s, single core.
        dur = 1.0 + (rng.bernoulli(0.25) ? rng.uniform(0.0, 2.0) : 0.0);
        j.num_cpus = 1;
        j.name = query_name;
      } else {
        dur = rng.lognormal(std::log(100.0), 1.7);
        if (rng.bernoulli(0.03)) dur *= rng.uniform(20.0, 120.0);  // long pipelines
        j.num_cpus = cpu_counts[cpu_count_sampler.sample(rng)];
        j.name = prep_names[rng.uniform_index(prep_names.size())];
      }
      j.duration = static_cast<std::int32_t>(
          std::clamp(dur, 1.0, static_cast<double>(kMaxDurationSeconds)));
      const double r = rng.uniform();
      j.state = r < 0.91    ? JobState::kCompleted
                : r < 0.95  ? JobState::kCanceled
                            : JobState::kFailed;
      cpu_jobs.push_back(j);
    }
  }

  // ---- merge, order, number -------------------------------------------------
  std::size_t total = cpu_jobs.size();
  for (const auto& v : vc_jobs) total += v.size();
  auto& jobs = trace.jobs();
  jobs.reserve(total);
  for (const auto& v : vc_jobs) jobs.insert(jobs.end(), v.begin(), v.end());
  jobs.insert(jobs.end(), cpu_jobs.begin(), cpu_jobs.end());
  trace.sort_by_submit_time();
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].job_id = i;
  return trace;
}

Trace generate_philly(std::uint64_t seed, double scale) {
  return SyntheticTraceGenerator(GeneratorConfig::philly(seed, scale)).generate();
}

Trace generate_pai(std::uint64_t seed, double scale) {
  return SyntheticTraceGenerator(GeneratorConfig::pai(seed, scale)).generate();
}

}  // namespace helios::trace
