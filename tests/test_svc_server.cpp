// svc::PredictionServer determinism suite (smoke):
//
//  * incremental feed — the server's priority log over a streamed September,
//    however the rows are batched, must be bit-identical to the batch
//    OnlinePriorityEvaluator over the same jobs;
//  * kill / restore — loading the latest checkpoint into a fresh server and
//    re-feeding the remaining bytes must land on the identical final log and
//    state;
//  * frozen queries — Snapshot::query must reproduce the Trace-based
//    priority path bitwise for jobs the service could price;
//  * concurrent queries — snapshot reads race ingest without synchronization
//    (the ASan job of ci.sh runs this suite);
//  * malformed SVCK checkpoints — every strict prefix throws, hostile queue
//    and log counts are rejected as truncated, queue entries out of heap
//    order or off their row's finish are rejected as corrupt, and a failed
//    load leaves the server fresh for a following good load;
//  * CsvTailer — header skip, partial-line handling, checkpoint resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "common/exec_mode.h"
#include "core/qssf_service.h"
#include "forecast/models.h"
#include "serialize/binary.h"
#include "svc/csv_tailer.h"
#include "svc/prediction_server.h"
#include "trace/synthetic.h"

namespace helios::svc {
namespace {

// The ExecMode unification is complete: the per-layer compat aliases are
// gone, and the one enum has exactly the two contractual values.
static_assert(common::ExecMode::kSerial != common::ExecMode::kParallel);

/// Deterministic workload: seed-42 Venus, April-August train / September
/// stream — the same split the batch pipeline evaluates.
struct Fixture {
  trace::Trace train;
  trace::Trace eval;
  core::QssfService fitted;
  std::string rows_csv;  // September as data rows (no header)

  explicit Fixture(double scale = 0.02) {
    auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                              /*seed=*/42, scale);
    const trace::Trace t = trace::SyntheticTraceGenerator(gen).generate();
    train = t.between(trace::helios_trace_begin(), from_civil(2020, 9, 1));
    eval = t.between(from_civil(2020, 9, 1), trace::helios_trace_end());
    core::QssfConfig cfg;
    cfg.gbdt.n_trees = 10;
    fitted = core::QssfService(cfg);
    fitted.fit(train);
    std::ostringstream rows;
    eval.save_csv_rows(rows, 0, eval.size());
    rows_csv = std::move(rows).str();
  }

  /// The batch reference: serial evaluator priorities in stream order.
  [[nodiscard]] std::vector<PricedJob> batch_log() const {
    core::QssfService svc = fitted;
    core::EvalOptions opts;
    opts.execution = common::ExecMode::kSerial;
    core::OnlinePriorityEvaluator evaluator(svc, eval, opts);
    std::vector<PricedJob> log;
    for (const auto& j : eval.jobs()) {
      if (!j.is_gpu_job()) continue;
      log.push_back({j.job_id, evaluator.priority_of(j)});
    }
    return log;
  }

  /// Split the September rows into irregular line-aligned batches.
  [[nodiscard]] std::vector<std::string> batches(std::size_t base) const {
    std::vector<std::string> out;
    std::size_t lo = 0;
    std::size_t lines_in_batch = 0;
    std::size_t target = 1;
    for (std::size_t pos = 0; pos < rows_csv.size(); ++pos) {
      if (rows_csv[pos] != '\n') continue;
      if (++lines_in_batch < target) continue;
      out.push_back(rows_csv.substr(lo, pos + 1 - lo));
      lo = pos + 1;
      lines_in_batch = 0;
      target = target % (2 * base) + base / 2 + 1;  // vary the batch size
    }
    if (lo < rows_csv.size()) out.push_back(rows_csv.substr(lo));
    return out;
  }
};

TEST(SvcServer, IncrementalFeedMatchesBatchBitwise) {
  const Fixture fx;
  const std::vector<PricedJob> want = fx.batch_log();
  ASSERT_GT(want.size(), 100u);

  PredictionServer server(fx.fitted, fx.train);
  for (const std::string& batch : fx.batches(64)) server.ingest_csv(batch);

  ASSERT_EQ(server.priority_log().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(server.priority_log()[i], want[i]) << "job #" << i;
  }
  EXPECT_EQ(server.rows_ingested(), fx.eval.size());
  EXPECT_EQ(server.bytes_ingested(), fx.rows_csv.size());
  // The snapshot reflects the fully fed state.
  const auto snap = server.snapshot();
  EXPECT_EQ(snap->gpu_jobs_ingested(), want.size());
}

TEST(SvcServer, LargeSingleBlockShardedParseMatchesBatchBitwise) {
  // One ingest_csv call with the whole month and a tiny parallel_parse_bytes
  // forces the sharded-parse branch of ParallelLoader::append_rows whenever
  // the pool is wider than one thread (run with HELIOS_THREADS=8 on 1-core
  // machines); ids — and therefore priorities — must not depend on it.
  const Fixture fx;
  const std::vector<PricedJob> want = fx.batch_log();
  ServerConfig cfg;
  cfg.parallel_parse_bytes = 1024;
  PredictionServer server(fx.fitted, fx.train, cfg);
  server.ingest_csv(fx.rows_csv);
  ASSERT_EQ(server.priority_log().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(server.priority_log()[i], want[i]) << "job #" << i;
  }
  EXPECT_EQ(server.rows_ingested(), fx.eval.size());
}

TEST(SvcServer, KillAfterCheckpointRestoresAndResumesBitIdentical) {
  const Fixture fx;
  const std::string prefix =
      testing::TempDir() + "helios_svc_ck_" + std::to_string(::getpid());
  ServerConfig cfg;
  cfg.checkpoint_every = 150;
  cfg.checkpoint_prefix = prefix;

  // Uninterrupted run = the reference.
  PredictionServer full(fx.fitted, fx.train, cfg);
  for (const std::string& batch : fx.batches(64)) full.ingest_csv(batch);
  ASSERT_GE(full.checkpoints_written(), 2u);

  // Interrupted run: stop ingesting after the first checkpoint lands.
  ServerConfig cfg2 = cfg;
  cfg2.checkpoint_prefix = prefix + "_b";
  PredictionServer killed(fx.fitted, fx.train, cfg2);
  for (const std::string& batch : fx.batches(64)) {
    killed.ingest_csv(batch);
    if (killed.checkpoints_written() >= 1) break;
  }
  ASSERT_LT(killed.gpu_jobs_ingested(), full.gpu_jobs_ingested());
  const std::string latest =
      cfg2.checkpoint_prefix + "." +
      std::to_string(killed.checkpoints_written() - 1);

  // Restore into a fresh server over the same context and feed the bytes the
  // checkpoint had not seen.
  PredictionServer restored(fx.fitted, fx.train, cfg2);
  serialize::load_file(latest, restored);
  EXPECT_EQ(restored.checkpoints_written(), killed.checkpoints_written());
  const std::size_t resume = static_cast<std::size_t>(restored.bytes_ingested());
  ASSERT_LT(resume, fx.rows_csv.size());
  restored.ingest_csv(std::string_view(fx.rows_csv).substr(resume));

  ASSERT_EQ(restored.priority_log().size(), full.priority_log().size());
  for (std::size_t i = 0; i < full.priority_log().size(); ++i) {
    ASSERT_EQ(restored.priority_log()[i], full.priority_log()[i])
        << "job #" << i;
  }
  EXPECT_EQ(restored.rows_ingested(), full.rows_ingested());
  EXPECT_TRUE(restored.stream().contents_equal(full.stream()));

  // A checkpoint against a different context must be refused.
  PredictionServer other(fx.fitted, fx.eval, cfg2);
  EXPECT_THROW(serialize::load_file(latest, other), serialize::Error);
  // As must loading into a server that already ingested rows.
  EXPECT_THROW(serialize::load_file(latest, restored), serialize::Error);

  for (std::uint64_t i = 0; i < full.checkpoints_written(); ++i) {
    std::remove((prefix + "." + std::to_string(i)).c_str());
  }
  for (std::uint64_t i = 0; i < restored.checkpoints_written(); ++i) {
    std::remove((cfg2.checkpoint_prefix + "." + std::to_string(i)).c_str());
  }
}

// ---- SVCK checkpoint: malformed input ---------------------------------------

std::uint64_t read_u64(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  serialize::Reader r(std::span<const std::uint8_t>(bytes).subspan(at, 8));
  return r.u64();
}

/// Overwrite `width` little-endian bytes at `at` with `value`.
void write_le(std::vector<std::uint8_t>& bytes, std::size_t at,
              std::uint64_t value, int width) {
  for (int i = 0; i < width; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// A small hand-built stream (50 context jobs, 20 streamed rows, long
/// enough that some are still running at the last submit), so sweeping every
/// byte of its checkpoint stays cheap.
struct TinyStream {
  trace::Trace context;
  core::QssfService fitted;
  std::string rows_csv;

  TinyStream() {
    trace::ClusterSpec spec;
    spec.name = "s";
    spec.vcs = {{"vc0", 2, 8}};
    spec.nodes = 2;
    trace::Trace all(spec);
    for (int i = 0; i < 70; ++i) {
      all.add(600 * i, 300 + 97 * i, 1 + i % 4, 8,
              "u" + std::to_string(i % 5), "vc0",
              "train_job_v" + std::to_string(i % 7),
              trace::JobState::kCompleted);
    }
    context = all.between(0, 600 * 50);
    core::QssfConfig cfg;
    cfg.gbdt.n_trees = 3;
    fitted = core::QssfService(cfg);
    fitted.fit(context);
    std::ostringstream rows;
    all.save_csv_rows(rows, 50, 20);
    rows_csv = std::move(rows).str();
  }
};

/// A server's SVCK section payload and the offsets of its two hostile-count
/// targets.
struct Checkpoint {
  std::vector<std::uint8_t> payload;  // section body, without tag and length
  std::size_t queue_count_at = 0;     // u64 pending-finish queue length
  std::size_t log_count_at = 0;       // u64 priority log length
};

Checkpoint checkpoint_of(const PredictionServer& server) {
  serialize::Writer w;
  server.save(w);
  const std::vector<std::uint8_t>& section = w.buffer();
  Checkpoint ck;
  ck.payload.assign(section.begin() + 12, section.end());  // u32 tag + u64 len
  // Layout (docs/FORMATS.md): u32 version, 8 u64 counters, the QssfService
  // section, the streamed rows as one string, the queue, the log.
  serialize::Writer svc;
  server.snapshot()->service().save(svc);
  const std::size_t rows_at = 4 + 8 * 8 + svc.buffer().size();
  ck.queue_count_at = rows_at + 8 + read_u64(ck.payload, rows_at);
  ck.log_count_at =
      ck.queue_count_at + 8 + 12 * read_u64(ck.payload, ck.queue_count_at);
  return ck;
}

/// Wrap `payload` as an SVCK section whose declared length matches it.
std::vector<std::uint8_t> svck_section(std::span<const std::uint8_t> payload) {
  serialize::Writer w;
  w.begin_section(serialize::fourcc("SVCK"));
  w.bytes(payload);
  w.end_section();
  return w.buffer();
}

TEST(SvcCheckpointMalformed, EveryStrictPrefixThrows) {
  const TinyStream ts;
  PredictionServer server(ts.fitted, ts.context);
  server.ingest_csv(ts.rows_csv);
  // A truncated file fails in unframe, which test_serialize's
  // SerializeMalformed.TruncationAtEveryByte covers. A truncated payload
  // under a consistent section length gets past the frame and section
  // checks, so every field read in load() must reject it, and leave the
  // server fresh for the next attempt.
  const Checkpoint ck = checkpoint_of(server);
  PredictionServer fresh(ts.fitted, ts.context);
  for (std::size_t len = 0; len < ck.payload.size(); ++len) {
    const auto bytes = svck_section(
        std::span<const std::uint8_t>(ck.payload.data(), len));
    serialize::Reader r(bytes);
    EXPECT_THROW(fresh.load(r), serialize::Error) << "payload prefix " << len;
    ASSERT_EQ(fresh.rows_ingested(), 0u) << "payload prefix " << len;
  }
}

TEST(SvcCheckpointMalformed, HostileCountsAreTruncatedAndLeaveTheServerFresh) {
  const TinyStream ts;
  PredictionServer server(ts.fitted, ts.context);
  server.ingest_csv(ts.rows_csv);
  ASSERT_EQ(server.rows_ingested(), 20u);
  const Checkpoint ck = checkpoint_of(server);
  // The offsets land on the two counts: some jobs are still queued, the log
  // holds every GPU job, and nothing trails it.
  EXPECT_GT(read_u64(ck.payload, ck.queue_count_at), 0u);
  const std::uint64_t n_log = read_u64(ck.payload, ck.log_count_at);
  ASSERT_EQ(n_log, server.gpu_jobs_ingested());
  ASSERT_EQ(ck.payload.size(), ck.log_count_at + 8 + 16 * n_log);

  PredictionServer target(ts.fitted, ts.context);
  for (const std::size_t at : {ck.queue_count_at, ck.log_count_at}) {
    for (const std::uint64_t count :
         {std::uint64_t{1} << 60, ~std::uint64_t{0}}) {
      std::vector<std::uint8_t> bad = ck.payload;
      write_le(bad, at, count, 8);
      const auto bytes = svck_section(bad);
      serialize::Reader r(bytes);
      try {
        target.load(r);
        ADD_FAILURE() << "accepted count " << count << " at " << at;
      } catch (const serialize::Error& e) {
        EXPECT_EQ(e.code(), serialize::ErrorCode::kTruncated) << e.what();
      }
      ASSERT_EQ(target.rows_ingested(), 0u);
      EXPECT_TRUE(target.priority_log().empty());
    }
  }

  // The failed loads left `target` fresh: the real checkpoint still restores
  // it bit-identically, and both then resume identically.
  const auto good = svck_section(ck.payload);
  serialize::Reader r(good);
  target.load(r);
  EXPECT_EQ(target.rows_ingested(), server.rows_ingested());
  EXPECT_EQ(target.bytes_ingested(), server.bytes_ingested());
  EXPECT_EQ(target.priority_log(), server.priority_log());
  EXPECT_TRUE(target.stream().contents_equal(server.stream()));
  serialize::Writer a;
  server.save(a);
  serialize::Writer b;
  target.save(b);
  EXPECT_EQ(a.buffer(), b.buffer());
  // Resuming replays the same rows through the restored queue and model.
  server.ingest_csv(ts.rows_csv);
  target.ingest_csv(ts.rows_csv);
  EXPECT_EQ(target.priority_log(), server.priority_log());
}

/// Load a hand-edited checkpoint payload: it must be rejected as corrupt,
/// leave `target` fresh, and the unedited payload must still restore it.
void expect_corrupt_then_good_load(const std::vector<std::uint8_t>& bad,
                                   const Checkpoint& ck,
                                   const PredictionServer& server,
                                   PredictionServer& target) {
  const auto bytes = svck_section(bad);
  serialize::Reader r(bytes);
  try {
    target.load(r);
    ADD_FAILURE() << "accepted a corrupt queue";
  } catch (const serialize::Error& e) {
    EXPECT_EQ(e.code(), serialize::ErrorCode::kCorrupt) << e.what();
  }
  ASSERT_EQ(target.rows_ingested(), 0u);
  EXPECT_TRUE(target.priority_log().empty());
  const auto good = svck_section(ck.payload);
  serialize::Reader g(good);
  target.load(g);
  EXPECT_EQ(target.priority_log(), server.priority_log());
}

// Queue entries sit after the u64 queue count, 12 bytes each: i64 finish,
// u32 stream index.
constexpr std::size_t kQueueEntryBytes = 12;

TEST(SvcCheckpointMalformed, QueueFinishDifferentFromItsRowIsCorrupt) {
  const TinyStream ts;
  PredictionServer server(ts.fitted, ts.context);
  server.ingest_csv(ts.rows_csv);
  const Checkpoint ck = checkpoint_of(server);
  ASSERT_GT(read_u64(ck.payload, ck.queue_count_at), 0u);
  // Nudge the first entry's finish by one second: its row says otherwise,
  // and a drain would observe that job one second late.
  const std::size_t finish_at = ck.queue_count_at + 8;
  std::vector<std::uint8_t> bad = ck.payload;
  write_le(bad, finish_at, read_u64(bad, finish_at) + 1, 8);
  PredictionServer target(ts.fitted, ts.context);
  expect_corrupt_then_good_load(bad, ck, server, target);
}

TEST(SvcCheckpointMalformed, QueueOutOfHeapOrderIsCorrupt) {
  const TinyStream ts;
  PredictionServer server(ts.fitted, ts.context);
  server.ingest_csv(ts.rows_csv);
  const Checkpoint ck = checkpoint_of(server);
  ASSERT_GE(read_u64(ck.payload, ck.queue_count_at), 2u);
  // Swap the heap root with its first child: every entry still matches its
  // row, but the root is no longer the earliest (finish, index).
  const std::size_t root = ck.queue_count_at + 8;
  const std::size_t child = root + kQueueEntryBytes;
  std::vector<std::uint8_t> bad = ck.payload;
  const auto at = [&bad](std::size_t off) {
    return bad.begin() + static_cast<std::ptrdiff_t>(off);
  };
  ASSERT_FALSE(std::equal(at(root), at(child), at(child)));
  std::swap_ranges(at(root), at(child), at(child));
  PredictionServer target(ts.fitted, ts.context);
  expect_corrupt_then_good_load(bad, ck, server, target);
}

TEST(SvcServer, FrozenQueryMatchesTracePathBitwise) {
  const Fixture fx;
  PredictionServer server(fx.fitted, fx.train);
  const auto snap = server.snapshot();
  std::size_t checked = 0;
  for (const auto& j : fx.eval.jobs()) {
    if (!j.is_gpu_job()) continue;
    QueryRequest req;
    req.user = fx.eval.user_name(j);
    req.vc = fx.eval.vc_name(j);
    req.job_name = fx.eval.job_name(j);
    req.num_gpus = j.num_gpus;
    req.num_cpus = j.num_cpus;
    req.submit_time = j.submit_time;
    // Fresh copy per job: the mutating path memoizes name buckets, and the
    // frozen path must equal the first mutating call on identical state.
    core::QssfService mutating = fx.fitted;
    const QueryResult got = snap->query(req);
    ASSERT_EQ(got.priority, mutating.priority(fx.eval, j)) << "job " << j.job_id;
    ASSERT_EQ(got.expected_duration, mutating.predict_duration(fx.eval, j));
    if (++checked >= 200) break;
  }
  ASSERT_EQ(checked, 200u);
}

TEST(SvcServer, ConcurrentQueriesDuringIngest) {
  const Fixture fx;
  ServerConfig cfg;
  cfg.publish_every = 64;
  PredictionServer server(fx.fitted, fx.train, cfg);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&server, &stop, &queries, r] {
      QueryRequest req;
      req.user = "user" + std::to_string(r);
      req.vc = "vc0";
      req.job_name = "train_model_" + std::to_string(r);
      req.num_gpus = 1 + r;
      req.submit_time = from_civil(2020, 9, 10);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = server.snapshot();
        const QueryResult res = snap->query(req);
        ASSERT_GT(res.priority, 0.0);
        ASSERT_GE(res.priority,
                  static_cast<double>(req.num_gpus) * res.expected_duration *
                      0.999);
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (const std::string& batch : fx.batches(32)) server.ingest_csv(batch);
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(server.priority_log().size(), fx.batch_log().size());
}

TEST(CsvTailer, HeaderSkipPartialLinesAndResume) {
  const std::string path = testing::TempDir() + "helios_tailer_" +
                           std::to_string(::getpid()) + ".csv";
  std::remove(path.c_str());

  CsvTailer tailer(path);
  EXPECT_EQ(tailer.poll(), "");  // file does not exist yet

  std::ofstream out(path, std::ios::binary);
  out << "job_id,submit_time\n";
  out.flush();
  EXPECT_EQ(tailer.poll(), "");  // header only: nothing for the caller

  out << "1,100\n2,200\n3,3";  // third row still partial
  out.flush();
  EXPECT_EQ(tailer.poll(), "1,100\n2,200\n");
  EXPECT_EQ(tailer.poll(), "");  // partial line stays unconsumed

  out << "00\n";
  out.flush();
  EXPECT_EQ(tailer.poll(), "3,300\n");
  EXPECT_EQ(tailer.data_bytes(), 18u);

  // Resume as a checkpoint restore would: skip the first row's 6 bytes.
  CsvTailer resumed(path);
  resumed.resume_at_data_bytes(6);
  EXPECT_EQ(resumed.poll(), "2,200\n3,300\n");
  EXPECT_EQ(resumed.data_bytes(), tailer.data_bytes());
  EXPECT_EQ(resumed.offset(), tailer.offset());

  // A resume point past the file is refused.
  CsvTailer bad(path);
  EXPECT_THROW(bad.resume_at_data_bytes(1000), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace helios::svc
