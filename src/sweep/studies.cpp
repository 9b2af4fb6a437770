#include "sweep/studies.h"

#include <functional>
#include <iterator>
#include <utility>

#include "common/thread_pool.h"
#include "core/qssf_service.h"
#include "forecast/models.h"

namespace helios::sweep {

SchedulerStudy run_scheduler_study(const trace::Trace& full, UnixTime train_end,
                                   UnixTime eval_end) {
  SchedulerStudy study;
  const trace::Trace train = full.between(0, train_end);
  study.eval = full.between(train_end, eval_end);

  core::QssfService service;
  service.fit(train);
  core::OnlinePriorityEvaluator evaluator(service, study.eval);
  study.qssf_predicted_gpu_time = evaluator.predicted_gpu_time();
  study.qssf_actual_gpu_time = evaluator.actual_gpu_time();

  // The four policy runs share the evaluation slice and keep their per-job
  // outcomes (Table 4 and the Fig. 11–13 CDFs read them), so they run as
  // plain simulator tasks, not as sweep-engine cells.
  const std::pair<sim::SchedulerPolicy, sim::SimResult*> runs[] = {
      {sim::SchedulerPolicy::kFifo, &study.fifo},
      {sim::SchedulerPolicy::kSjf, &study.sjf},
      {sim::SchedulerPolicy::kSrtf, &study.srtf},
      {sim::SchedulerPolicy::kQssf, &study.qssf}};
  std::vector<std::function<void()>> tasks;
  tasks.reserve(std::size(runs));
  for (const auto& [policy, slot] : runs) {
    sim::SimConfig cfg;
    cfg.policy = policy;
    if (policy == sim::SchedulerPolicy::kQssf) {
      cfg.priority_fn = evaluator.as_priority_fn();
    }
    tasks.push_back([&eval = study.eval, cfg = std::move(cfg), slot = slot] {
      *slot = sim::ClusterSimulator(eval.cluster(), cfg).run(eval);
    });
  }
  parallel_run_tasks(std::move(tasks));
  return study;
}

CesStudy run_ces_study(const trace::Trace& operated, UnixTime eval_begin,
                       UnixTime eval_end, bool include_vanilla) {
  // Running-nodes history from the FIFO-operated schedule.
  sim::SimConfig cfg;
  sim::ClusterSimulator sim(operated.cluster(), cfg);
  const auto whole = sim.run(operated);
  const auto history = whole.busy_nodes.between(whole.busy_nodes.begin, eval_begin);

  CesStudy study;
  core::CesConfig base_cfg;
  // The sigma buffer is an absolute node count in the paper (~4 on 143-269
  // node clusters); keep it proportional under scaled-down clusters.
  base_cfg.sigma = std::max(1, operated.cluster().nodes / 30);
  {
    core::CesService svc(base_cfg,
                         std::make_unique<forecast::GBDTForecaster>());
    svc.fit(history);
    study.ces = svc.replay(operated, history, eval_begin, eval_end);
  }
  if (include_vanilla) {
    core::CesConfig vcfg = base_cfg;
    vcfg.vanilla_drs = true;
    core::CesService svc(vcfg,
                         std::make_unique<forecast::SeasonalNaiveForecaster>(144));
    svc.fit(history);
    study.vanilla = svc.replay(operated, history, eval_begin, eval_end);
  }
  return study;
}

std::vector<double> jct_values(const sim::SimResult& r) {
  std::vector<double> out;
  out.reserve(r.outcomes.size());
  for (const auto& o : r.outcomes) {
    if (!o.rejected && o.start != trace::kNeverStarted) {
      out.push_back(static_cast<double>(o.jct()));
    }
  }
  return out;
}

std::vector<double> queue_delay_values(const sim::SimResult& r) {
  std::vector<double> out;
  out.reserve(r.outcomes.size());
  for (const auto& o : r.outcomes) {
    if (!o.rejected && o.start != trace::kNeverStarted) {
      out.push_back(static_cast<double>(o.queue_delay()));
    }
  }
  return out;
}

}  // namespace helios::sweep
