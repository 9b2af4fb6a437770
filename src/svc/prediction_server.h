// Resident streaming prediction service (the deployed shape of paper §4.2).
//
// The batch pipeline prices a finished trace after the fact; this subsystem
// is the same predictor run as a long-lived server. One ingest thread tails
// a growing trace CSV (svc::CsvTailer), folds each event into the online
// QSSF state exactly as core::OnlinePriorityEvaluator's causal replay does —
// drain the pending-finish core::ReplayQueue, price, log, queue the job's
// own finish — and on a cadence (a) checkpoints the whole server through
// serialize::save_file and (b) publishes an immutable Snapshot. Any number
// of query threads take the current snapshot by copying one shared_ptr
// under a mutex held only for that copy (publish swaps the pointer under
// the same mutex, after building the snapshot outside it), then query it
// with no lock at all.
//
// Determinism contract (gated by tests/test_svc_server.cpp and the
// examples/serve_replay driver): fed the same rows in the same order —
// regardless of how they are batched into polls — the server's priority log
// is bit-identical to the batch evaluator run over those rows, provided the
// server was seeded with the trace context the batch path evaluates against
// (Trace::between/filter copy interner tables wholesale, so appended rows
// intern to the same feature ids the batch eval trace carries). A server
// restored from a checkpoint resumes bit-identically: state, priority log,
// pending queue, and streamed rows all round-trip ("SVCK" frame,
// docs/FORMATS.md).
//
// Thread-safety: ingest_csv/checkpoint/publish/save/load are the ingest
// side — single-threaded, externally synchronized. snapshot() and
// Snapshot::query() are the query side — safe from any number of threads
// concurrently with ingest (snapshots are immutable; queries go through
// QssfService's frozen, never-mutating accessors).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "core/qssf_service.h"
#include "trace/trace.h"

namespace helios::svc {

struct ServerConfig {
  /// Checkpoint (and publish) once at least N GPU jobs have been ingested
  /// since the last checkpoint. Evaluated at ingest-batch ends, so a
  /// checkpoint is always consistent with bytes_ingested() — which advances
  /// a whole batch at a time — and a restore resumes exactly at a batch
  /// boundary. 0 disables automatic checkpoints (explicit checkpoint()
  /// still works).
  std::size_t checkpoint_every = 0;
  /// Checkpoint file prefix; file N is written as "<prefix>.<N>".
  std::string checkpoint_prefix = "svc_checkpoint";
  /// Additionally publish a fresh snapshot every N ingested GPU jobs.
  /// 0 = publish only at batch ends and checkpoints.
  std::size_t publish_every = 0;
  /// Ingest batches and restored rows at least this large parse sharded on
  /// the global pool (trace::ParallelLoader's min_chunk_bytes); smaller ones
  /// parse inline. Parsing is id-identical either way.
  std::size_t parallel_parse_bytes = 1 << 20;
};

/// One priced job, in ingest order — the server-side mirror of the batch
/// evaluator's predicted_gpu_time() sequence (same order, same values).
struct PricedJob {
  std::uint64_t job_id = 0;
  double priority = 0.0;

  [[nodiscard]] friend bool operator==(const PricedJob&,
                                       const PricedJob&) = default;
};

/// A query for a job that has no trace row yet, in raw strings.
struct QueryRequest {
  std::string user;
  std::string vc;
  std::string job_name;
  std::int32_t num_gpus = 1;
  std::int32_t num_cpus = 0;
  UnixTime submit_time = 0;
};

struct QueryResult {
  double priority = 0.0;           ///< QSSF rank: expected GPU time
  double expected_duration = 0.0;  ///< seconds
};

/// Immutable point-in-time view served to query threads: a copy of the
/// QssfService plus the interner tables needed to resolve request strings
/// to the feature ids the GBDT was trained on. All members are const after
/// construction; query() never mutates (frozen name bucketing), so one
/// Snapshot may serve any number of threads.
class Snapshot {
 public:
  Snapshot(const core::QssfService& service, const trace::Trace& stream,
           std::uint64_t rows_ingested, std::uint64_t gpu_jobs_ingested);

  /// Resolve request strings against the snapshot's interners (an unseen
  /// user/VC maps to interner size — the id a fresh intern would get).
  [[nodiscard]] core::JobQuery resolve(const QueryRequest& request) const;

  /// Price a prospective job. For a job whose attributes the service has
  /// seen, the priority is bit-identical to the ingest-path value.
  [[nodiscard]] QueryResult query(const QueryRequest& request) const;

  [[nodiscard]] const core::QssfService& service() const noexcept {
    return service_;
  }
  [[nodiscard]] std::uint64_t rows_ingested() const noexcept { return rows_; }
  [[nodiscard]] std::uint64_t gpu_jobs_ingested() const noexcept {
    return gpu_jobs_;
  }

 private:
  core::QssfService service_;
  StringInterner users_;
  StringInterner vcs_;
  std::uint64_t rows_ = 0;
  std::uint64_t gpu_jobs_ = 0;
};

class PredictionServer {
 public:
  /// A server over `service` (typically fit on history) seeded with the
  /// trace `context` the incoming stream continues. The context supplies
  /// the interner state — for bit-parity with a batch evaluation its tables
  /// must contain the ids the batch eval trace would use (any
  /// Trace::between/filter cut of the same parent qualifies, as those copy
  /// interners wholesale). Publishes an initial snapshot, so queries are
  /// valid before the first ingest.
  PredictionServer(core::QssfService service, trace::Trace context,
                   ServerConfig config = {});

  /// -- ingest side (single-threaded) ---------------------------------------
  /// Parse a block of complete CSV data rows (CsvTailer::poll output; no
  /// header) and apply each job in order: drain due finish events into the
  /// rolling estimator, price, log, queue. Returns the number of rows
  /// ingested. Publishes at the end of every non-empty batch; checkpoints /
  /// publishes mid-batch on the configured cadences.
  std::size_t ingest_csv(std::string_view csv_rows);

  /// Write checkpoint file "<prefix>.<seq>" (serialize::save_file) and
  /// publish. Returns the path written.
  std::string checkpoint();

  /// Publish the current state as a fresh immutable Snapshot.
  void publish();

  /// Persist / restore the full server ("SVCK" frame, docs/FORMATS.md):
  /// QssfService, streamed rows (as CSV, lossless), pending-finish queue,
  /// priority log, and counters. load() requires a freshly constructed
  /// server whose context matches the saved one (row count and interner
  /// sizes are validated; anything else throws serialize::Error kCorrupt)
  /// and leaves it bit-identical to the saved instance, snapshot included.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

  /// -- query side (any thread) ---------------------------------------------
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const;

  /// -- introspection (ingest side) -----------------------------------------
  /// Rows / GPU jobs ingested since construction (context excluded).
  [[nodiscard]] std::uint64_t rows_ingested() const noexcept {
    return rows_ingested_;
  }
  [[nodiscard]] std::uint64_t gpu_jobs_ingested() const noexcept {
    return gpu_jobs_ingested_;
  }
  /// Cumulative bytes of ingested row data — feed to
  /// CsvTailer::resume_at_data_bytes after a restore.
  [[nodiscard]] std::uint64_t bytes_ingested() const noexcept {
    return bytes_ingested_;
  }
  [[nodiscard]] std::uint64_t checkpoints_written() const noexcept {
    return checkpoint_seq_;
  }
  /// Every priced GPU job in ingest order — the parity artifact the replay
  /// driver compares against the batch evaluator.
  [[nodiscard]] const std::vector<PricedJob>& priority_log() const noexcept {
    return log_;
  }
  [[nodiscard]] const trace::Trace& stream() const noexcept { return stream_; }
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }

 private:
  ServerConfig config_;
  core::QssfService service_;
  trace::Trace stream_;  // context + every ingested row
  core::ReplayQueue queue_;
  std::vector<PricedJob> log_;
  // Context fingerprint captured at construction; a checkpoint stores it and
  // load() refuses a server whose context does not match.
  std::uint64_t context_rows_ = 0;
  std::uint64_t context_users_ = 0;
  std::uint64_t context_vcs_ = 0;
  std::uint64_t context_names_ = 0;
  std::uint64_t jobs_at_last_checkpoint_ = 0;
  std::uint64_t rows_ingested_ = 0;
  std::uint64_t gpu_jobs_ingested_ = 0;
  std::uint64_t bytes_ingested_ = 0;
  std::uint64_t checkpoint_seq_ = 0;
  // unique_ptr: std::mutex is neither movable nor copyable, and the server
  // itself should stay movable.
  std::unique_ptr<std::mutex> snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_;  // guarded by *snapshot_mutex_
};

}  // namespace helios::svc
