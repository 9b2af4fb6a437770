// Serve-while-learning replay: the acceptance driver for the resident
// svc::PredictionServer.
//
// Replays a multi-month synthetic Venus trace in accelerated wall-time: a
// feeder thread appends the September job stream to a CSV file in small
// timed batches; the server tails the file (svc::CsvTailer), folds every
// event into the online QSSF state, checkpoints on a cadence, and publishes
// immutable snapshots that concurrent query threads price jobs against while
// ingest is running. The run gates on
//   (a) the server's full priority log being bit-identical to the batch
//       OnlinePriorityEvaluator over the same jobs,
//   (b) every checkpoint file restoring to a bit-identical prefix of that
//       log (checkpoint-boundary parity),
//   (c) an optional mid-replay kill: the server object is destroyed, a
//       fresh one restores from the latest checkpoint, the tailer resumes
//       from the checkpoint's byte offset, and the final log must still be
//       bit-identical,
// and reports p50/p99 snapshot-query latency plus ingest throughput —
// written as JSON to HELIOS_SERVE_OUT when set (ci.sh bench points it at
// build/BENCH_svc.json). Exit status is non-zero on any parity mismatch.
//
// Knobs: HELIOS_SERVE_SCALE (default 0.05), HELIOS_SERVE_QUERY_THREADS (2),
// HELIOS_SERVE_KILL (1 = kill/restore mid-replay), HELIOS_SERVE_OUT
// (JSON path, "" = stdout summary only).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/env.h"
#include "core/qssf_service.h"
#include "serialize/binary.h"
#include "svc/csv_tailer.h"
#include "svc/prediction_server.h"
#include "trace/synthetic.h"

using namespace helios;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct LatencyStats {
  std::size_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

LatencyStats percentiles(std::vector<double> samples_us) {
  LatencyStats s;
  s.count = samples_us.size();
  if (samples_us.empty()) return s;
  std::sort(samples_us.begin(), samples_us.end());
  s.p50_us = samples_us[samples_us.size() / 2];
  s.p99_us = samples_us[samples_us.size() * 99 / 100];
  return s;
}

int fail(const char* what) {
  std::fprintf(stderr, "SERVE FAIL: %s\n", what);
  return 1;
}

}  // namespace

int main() {
  const double scale = env_double("HELIOS_SERVE_SCALE", 0.05);
  const int query_threads =
      static_cast<int>(env_int("HELIOS_SERVE_QUERY_THREADS", 2));
  const bool kill_restore = env_int("HELIOS_SERVE_KILL", 1) != 0;
  const char* out_env = std::getenv("HELIOS_SERVE_OUT");
  const std::string out_path = out_env != nullptr ? out_env : "";

  const auto dir = std::filesystem::temp_directory_path() /
                   ("helios_serve_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string stream_path = (dir / "stream.csv").string();
  const std::string model_path = (dir / "model.bin").string();

  // -- workload: seed-42 Venus, April-August train / September stream -------
  auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                            /*seed=*/42, scale);
  const trace::Trace full = trace::SyntheticTraceGenerator(gen).generate();
  const trace::Trace train =
      full.between(trace::helios_trace_begin(), from_civil(2020, 9, 1));
  const trace::Trace eval =
      full.between(from_civil(2020, 9, 1), trace::helios_trace_end());
  std::size_t total_gpu_jobs = 0;
  for (const auto& j : eval.jobs()) total_gpu_jobs += j.is_gpu_job() ? 1 : 0;
  std::printf("scale %.3f: %zu train jobs, %zu streamed rows (%zu GPU)\n",
              scale, train.size(), eval.size(), total_gpu_jobs);

  // Fit once, then run everything from a disk round trip — the warm-restart
  // path a deployment uses.
  {
    core::QssfService fitted;
    fitted.fit(train);
    serialize::save_file(model_path, fitted);
  }
  const auto model = serialize::load_file<core::QssfService>(model_path);

  // -- batch reference: the pipeline the server must reproduce bitwise ------
  std::vector<svc::PricedJob> reference;
  {
    core::QssfService svc = model;
    core::EvalOptions opts;
    opts.execution = common::ExecMode::kSerial;
    core::OnlinePriorityEvaluator evaluator(svc, eval, opts);
    reference.reserve(total_gpu_jobs);
    for (const auto& j : eval.jobs()) {
      if (j.is_gpu_job()) reference.push_back({j.job_id, evaluator.priority_of(j)});
    }
  }

  // -- feeder: append the September rows to the stream file in timed batches
  std::ostringstream rows_buf;
  eval.save_csv_rows(rows_buf, 0, eval.size());
  const std::string rows_csv = std::move(rows_buf).str();
  std::thread feeder([&rows_csv, &stream_path] {
    std::ofstream out(stream_path, std::ios::binary);
    out << "job_id,submit_time,start_time,duration,num_gpus,num_cpus,user,vc,"
           "name,state\n";
    out.flush();
    std::size_t lo = 0;
    std::size_t lines = 0;
    while (lo < rows_csv.size()) {
      const auto nl = rows_csv.find('\n', lo);
      const auto hi = nl == std::string::npos ? rows_csv.size() : nl + 1;
      out.write(rows_csv.data() + lo, static_cast<std::streamsize>(hi - lo));
      lo = hi;
      if (++lines % 200 == 0) {  // a month streams in a few hundred batches
        out.flush();
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    }
    out.flush();
  });

  // -- server + query threads ----------------------------------------------
  svc::ServerConfig cfg;
  cfg.checkpoint_every = std::max<std::size_t>(1, total_gpu_jobs / 5);
  cfg.checkpoint_prefix = (dir / "ck").string();
  cfg.publish_every = 256;
  std::optional<svc::PredictionServer> server;
  server.emplace(model, train, cfg);

  // Query threads read this slot, never the server object itself, so the
  // mid-replay kill (which destroys the server) cannot race them: published
  // snapshots are immutable and outlive their server. A mutex guards the
  // pointer copy, as in PredictionServer::snapshot().
  std::mutex snap_mutex;
  std::shared_ptr<const svc::Snapshot> snap = server->snapshot();
  const auto current_snapshot = [&] {
    const std::lock_guard<std::mutex> lock(snap_mutex);
    return snap;
  };
  const auto republish = [&] {
    std::shared_ptr<const svc::Snapshot> next = server->snapshot();
    const std::lock_guard<std::mutex> lock(snap_mutex);
    snap.swap(next);
  };
  std::atomic<bool> stop{false};

  // Query mix: real September job shapes, priced over and over.
  std::vector<svc::QueryRequest> requests;
  for (const auto& j : eval.jobs()) {
    if (!j.is_gpu_job()) continue;
    svc::QueryRequest req;
    req.user = eval.user_name(j);
    req.vc = eval.vc_name(j);
    req.job_name = eval.job_name(j);
    req.num_gpus = j.num_gpus;
    req.num_cpus = j.num_cpus;
    req.submit_time = j.submit_time;
    requests.push_back(std::move(req));
    if (requests.size() >= 512) break;
  }

  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(query_threads));
  std::vector<std::thread> readers;
  for (int r = 0; r < query_threads; ++r) {
    readers.emplace_back([&, r] {
      auto& lat = latencies[static_cast<std::size_t>(r)];
      lat.reserve(1 << 18);
      std::size_t i = static_cast<std::size_t>(r);
      double sink = 0.0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& req = requests[i++ % requests.size()];
        const auto t0 = Clock::now();
        const auto s = current_snapshot();
        sink += s->query(req).priority;
        lat.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
      }
      if (sink < 0) std::printf("unreachable %f\n", sink);  // keep sink live
    });
  }

  // -- ingest loop: tail, feed, kill/restore once mid-replay ----------------
  svc::CsvTailer tailer(stream_path);
  const auto t_ingest = Clock::now();
  bool killed = false;
  while (server->gpu_jobs_ingested() < total_gpu_jobs) {
    const std::string block = tailer.poll();
    if (block.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // Feed the block in bounded line-aligned slices (a fast feeder can hand
    // the tailer most of the month in one poll) so the simulated crash lands
    // mid-stream, not after everything is already in.
    std::size_t lo = 0;
    while (lo < block.size()) {
      std::size_t hi = lo;
      for (int lines = 0; lines < 100 && hi < block.size(); ++lines) {
        const auto nl = block.find('\n', hi);
        hi = nl == std::string::npos ? block.size() : nl + 1;
      }
      server->ingest_csv(std::string_view(block).substr(lo, hi - lo));
      lo = hi;
      republish();
      if (kill_restore && !killed && server->checkpoints_written() >= 1 &&
          server->gpu_jobs_ingested() < total_gpu_jobs) {
        // Simulated crash: drop the server mid-replay, restore the latest
        // checkpoint into a fresh one, rewind the tailer to its byte offset.
        // The rest of this block is discarded — the rewound tailer will
        // re-serve it.
        const std::string latest =
            cfg.checkpoint_prefix + "." +
            std::to_string(server->checkpoints_written() - 1);
        const auto before = server->gpu_jobs_ingested();
        server.emplace(core::QssfService{}, train, cfg);
        serialize::load_file(latest, *server);
        tailer.resume_at_data_bytes(server->bytes_ingested());
        republish();
        killed = true;
        std::printf(
            "killed at %llu GPU jobs, restored %s (back to %llu)\n",
            static_cast<unsigned long long>(before), latest.c_str(),
            static_cast<unsigned long long>(server->gpu_jobs_ingested()));
        break;
      }
    }
    if (seconds_since(t_ingest) > 300.0) {
      stop.store(true);
      for (auto& t : readers) t.join();
      feeder.join();
      return fail("replay did not complete within 300s");
    }
  }
  const double ingest_s = seconds_since(t_ingest);
  stop.store(true);
  for (auto& t : readers) t.join();
  feeder.join();

  // -- gate (a): full-stream bit parity with the batch pipeline -------------
  const auto& log = server->priority_log();
  if (log.size() != reference.size()) return fail("priority log length");
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (!(log[i] == reference[i])) return fail("priority log diverged");
  }
  std::printf("parity OK: %zu streamed priorities bit-identical to batch%s\n",
              log.size(), killed ? " (across kill/restore)" : "");

  // -- gate (b): every checkpoint restores to a bit-identical prefix --------
  const std::uint64_t n_checkpoints = server->checkpoints_written();
  for (std::uint64_t c = 0; c < n_checkpoints; ++c) {
    const std::string path = cfg.checkpoint_prefix + "." + std::to_string(c);
    svc::PredictionServer restored(core::QssfService{}, train, cfg);
    serialize::load_file(path, restored);
    const auto& prefix = restored.priority_log();
    if (prefix.size() > reference.size()) return fail("checkpoint log length");
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      if (!(prefix[i] == reference[i])) return fail("checkpoint boundary parity");
    }
  }
  std::printf("checkpoint parity OK: %llu checkpoints are exact prefixes\n",
              static_cast<unsigned long long>(n_checkpoints));

  // -- latency / throughput report ------------------------------------------
  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  const LatencyStats lat = percentiles(std::move(all));
  const double jobs_per_s =
      ingest_s > 0 ? static_cast<double>(total_gpu_jobs) / ingest_s : 0.0;
  std::printf(
      "%zu queries over %d threads: p50 %.1f us, p99 %.1f us; "
      "ingest %.0f GPU jobs/s (%.2fs wall)\n",
      lat.count, query_threads, lat.p50_us, lat.p99_us, jobs_per_s, ingest_s);

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\n"
        << "  \"bench\": \"svc_serve_replay\",\n"
        << "  \"scale\": " << scale << ",\n"
        << "  \"rows_streamed\": " << eval.size() << ",\n"
        << "  \"gpu_jobs\": " << total_gpu_jobs << ",\n"
        << "  \"checkpoints\": " << n_checkpoints << ",\n"
        << "  \"kill_restore\": " << (killed ? "true" : "false") << ",\n"
        << "  \"parity\": \"bit-identical\",\n"
        << "  \"checkpoint_parity\": \"bit-identical\",\n"
        << "  \"query_threads\": " << query_threads << ",\n"
        << "  \"queries\": " << lat.count << ",\n"
        << "  \"query_p50_us\": " << lat.p50_us << ",\n"
        << "  \"query_p99_us\": " << lat.p99_us << ",\n"
        << "  \"ingest_gpu_jobs_per_s\": " << jobs_per_s << ",\n"
        << "  \"ingest_wall_s\": " << ingest_s << "\n"
        << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return 0;
}
