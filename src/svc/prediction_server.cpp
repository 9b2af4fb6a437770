#include "svc/prediction_server.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "serialize/binary.h"
#include "trace/parallel_loader.h"

namespace helios::svc {

namespace {

constexpr std::uint32_t kSvcTag = serialize::fourcc("SVCK");
constexpr std::uint32_t kSvcVersion = 1;

/// The loader behind every row append: shard-parses batches of at least
/// `parallel_parse_bytes` on the global pool.
trace::ParallelLoader row_loader(const ServerConfig& config) {
  trace::LoadOptions opts;
  opts.min_chunk_bytes = config.parallel_parse_bytes;
  return trace::ParallelLoader(opts);
}

}  // namespace

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

Snapshot::Snapshot(const core::QssfService& service, const trace::Trace& stream,
                   std::uint64_t rows_ingested, std::uint64_t gpu_jobs_ingested)
    : service_(service),
      users_(stream.users()),
      vcs_(stream.vcs()),
      rows_(rows_ingested),
      gpu_jobs_(gpu_jobs_ingested) {}

core::JobQuery Snapshot::resolve(const QueryRequest& request) const {
  core::JobQuery q;
  q.user = request.user;
  q.job_name = request.job_name;
  const std::uint32_t user_id = users_.find(request.user);
  q.user_id = user_id == StringInterner::kNotFound
                  ? static_cast<std::uint32_t>(users_.size())
                  : user_id;
  const std::uint32_t vc_id = vcs_.find(request.vc);
  q.vc_id = vc_id == StringInterner::kNotFound
                ? static_cast<std::uint32_t>(vcs_.size())
                : vc_id;
  q.num_gpus = request.num_gpus;
  q.num_cpus = request.num_cpus;
  q.submit_time = request.submit_time;
  return q;
}

QueryResult Snapshot::query(const QueryRequest& request) const {
  const core::JobQuery q = resolve(request);
  const double duration = service_.predict_duration(q);
  // GPU count times the λ-merged duration: QssfService::combine's
  // expression, so a job the service has priced gets its ingest priority.
  return {static_cast<double>(std::max(1, static_cast<int>(q.num_gpus))) *
              duration,
          duration};
}

// ---------------------------------------------------------------------------
// PredictionServer
// ---------------------------------------------------------------------------

PredictionServer::PredictionServer(core::QssfService service,
                                   trace::Trace context, ServerConfig config)
    : config_(std::move(config)),
      service_(std::move(service)),
      stream_(std::move(context)),
      context_rows_(stream_.size()),
      context_users_(stream_.users().size()),
      context_vcs_(stream_.vcs().size()),
      context_names_(stream_.names().size()),
      snapshot_mutex_(std::make_unique<std::mutex>()) {
  publish();
}

void PredictionServer::publish() {
  // Build outside the lock; readers wait at most for the pointer swap.
  // The displaced snapshot is released after unlocking, so its destructor
  // (a whole QssfService copy) never runs under the mutex either.
  std::shared_ptr<const Snapshot> next = std::make_shared<const Snapshot>(
      service_, stream_, rows_ingested_, gpu_jobs_ingested_);
  {
    const std::lock_guard<std::mutex> lock(*snapshot_mutex_);
    snapshot_.swap(next);
  }
}

std::shared_ptr<const Snapshot> PredictionServer::snapshot() const {
  const std::lock_guard<std::mutex> lock(*snapshot_mutex_);
  return snapshot_;
}

std::size_t PredictionServer::ingest_csv(std::string_view csv_rows) {
  if (csv_rows.empty()) return 0;
  const std::size_t first = stream_.size();
  row_loader(config_).append_rows(csv_rows, stream_);
  bytes_ingested_ += csv_rows.size();
  const std::size_t appended = stream_.size() - first;
  rows_ingested_ += appended;
  if (appended == 0) return 0;

  for (std::size_t i = first; i < stream_.size(); ++i) {
    const trace::JobRecord& job = stream_.jobs()[i];
    if (!job.is_gpu_job()) continue;
    // The exact serial-evaluator sequence: fold in every job that has
    // (approximately) finished by now, price, remember, queue our own
    // finish. Absolute stream indices shift the evaluator's eval-local ones
    // uniformly, so the queue's (finish, index) pop order is preserved.
    queue_.drain(job.submit_time, [this](std::uint32_t idx) {
      service_.observe(stream_, stream_.jobs()[idx]);
    });
    const double p = service_.priority(stream_, job);
    log_.push_back({job.job_id, p});
    queue_.push(job, static_cast<std::uint32_t>(i));
    ++gpu_jobs_ingested_;
    if (config_.publish_every != 0 &&
        gpu_jobs_ingested_ % config_.publish_every == 0) {
      publish();
    }
  }

  if (config_.checkpoint_every != 0 &&
      gpu_jobs_ingested_ - jobs_at_last_checkpoint_ >= config_.checkpoint_every) {
    checkpoint();
  } else {
    publish();
  }
  return appended;
}

std::string PredictionServer::checkpoint() {
  const std::string path =
      config_.checkpoint_prefix + "." + std::to_string(checkpoint_seq_);
  ++checkpoint_seq_;  // the file records the incremented value, so a restored
                      // server continues the sequence without overwriting
  jobs_at_last_checkpoint_ = gpu_jobs_ingested_;
  serialize::save_file(path, *this);
  publish();
  return path;
}

void PredictionServer::save(serialize::Writer& w) const {
  w.begin_section(kSvcTag);
  w.u32(kSvcVersion);
  w.u64(context_rows_);
  w.u64(context_users_);
  w.u64(context_vcs_);
  w.u64(context_names_);
  w.u64(rows_ingested_);
  w.u64(gpu_jobs_ingested_);
  w.u64(bytes_ingested_);
  w.u64(checkpoint_seq_);
  service_.save(w);
  // Streamed rows travel as CSV — every field is an integer or a verbatim
  // interned string, and re-appending them in order onto the (validated)
  // context reproduces bit-identical records and interner ids.
  std::ostringstream rows;
  stream_.save_csv_rows(rows, context_rows_,
                        static_cast<std::size_t>(rows_ingested_));
  w.str(std::move(rows).str());
  w.u64(queue_.entries().size());
  for (const core::ReplayQueue::Entry& e : queue_.entries()) {
    w.i64(e.finish);
    w.u32(e.index);
  }
  w.u64(log_.size());
  for (const PricedJob& p : log_) {
    w.u64(p.job_id);
    w.f64(p.priority);
  }
  w.end_section();
}

void PredictionServer::load(serialize::Reader& r) {
  serialize::Reader s = r.section(kSvcTag);
  const std::uint32_t version = s.u32();
  if (version != kSvcVersion) {
    throw serialize::Error(serialize::ErrorCode::kUnsupportedVersion,
                           "svc section version " + std::to_string(version));
  }
  if (rows_ingested_ != 0) {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           "svc load requires a freshly constructed server");
  }
  const std::uint64_t ctx_rows = s.u64();
  const std::uint64_t ctx_users = s.u64();
  const std::uint64_t ctx_vcs = s.u64();
  const std::uint64_t ctx_names = s.u64();
  if (ctx_rows != context_rows_ || ctx_users != context_users_ ||
      ctx_vcs != context_vcs_ || ctx_names != context_names_) {
    throw serialize::Error(
        serialize::ErrorCode::kCorrupt,
        "svc checkpoint was taken against a different trace context");
  }
  const std::uint64_t rows_ingested = s.u64();
  const std::uint64_t gpu_jobs = s.u64();
  const std::uint64_t bytes = s.u64();
  const std::uint64_t seq = s.u64();

  core::QssfService service;
  service.load(s);

  const std::string rows_csv = s.str();
  trace::Trace stream = stream_;  // context copy; mutate only on full success
  try {
    row_loader(config_).append_rows(rows_csv, stream);
  } catch (const std::runtime_error& e) {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           std::string("svc streamed rows: ") + e.what());
  }
  if (stream.size() - context_rows_ != rows_ingested) {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           "svc streamed row count mismatch");
  }

  const std::size_t n_queue = s.length(12);  // i64 + u32 per entry
  std::vector<core::ReplayQueue::Entry> entries(n_queue);
  for (core::ReplayQueue::Entry& e : entries) {
    e.finish = s.i64();
    e.index = s.u32();
    if (e.index < context_rows_ || e.index >= stream.size()) {
      throw serialize::Error(serialize::ErrorCode::kCorrupt,
                             "svc queue entry outside the streamed rows");
    }
    const trace::JobRecord& job = stream.jobs()[e.index];
    if (e.finish != job.submit_time + job.duration) {
      throw serialize::Error(serialize::ErrorCode::kCorrupt,
                             "svc queue entry finish differs from its row");
    }
  }
  // The queue restores verbatim, so its drain order is only right if the
  // entries are still a heap.
  if (!core::ReplayQueue::is_heap(entries)) {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           "svc queue entries out of heap order");
  }

  const std::size_t n_log = s.length(16);  // u64 + f64 per entry
  if (n_log != gpu_jobs) {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           "svc priority log length mismatch");
  }
  std::vector<PricedJob> log(n_log);
  for (PricedJob& p : log) {
    p.job_id = s.u64();
    p.priority = s.f64();
  }
  s.close("svc");

  service_ = std::move(service);
  stream_ = std::move(stream);
  queue_.restore(std::move(entries));
  log_ = std::move(log);
  rows_ingested_ = rows_ingested;
  gpu_jobs_ingested_ = gpu_jobs;
  bytes_ingested_ = bytes;
  checkpoint_seq_ = seq;
  jobs_at_last_checkpoint_ = gpu_jobs;
  publish();
}

}  // namespace helios::svc
