#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.h"

#include "trace/cluster_config.h"
#include "trace/trace.h"

namespace helios::trace {
namespace {

Trace small_trace() {
  ClusterSpec spec;
  spec.name = "T";
  spec.vcs = {{"vcA", 2, 8}, {"vcB", 1, 8}};
  spec.nodes = 3;
  Trace t(spec);
  t.add(100, 50, 1, 6, "alice", "vcA", "train_a", JobState::kCompleted);
  t.add(50, 10, 0, 4, "bob", "vcB", "extract", JobState::kFailed);
  t.add(200, 900, 8, 48, "alice", "vcA", "train_b", JobState::kCanceled);
  return t;
}

TEST(Trace, AddInternsStrings) {
  const Trace t = small_trace();
  EXPECT_EQ(t.users().size(), 2u);
  EXPECT_EQ(t.vcs().size(), 2u);
  EXPECT_EQ(t.names().size(), 3u);
  EXPECT_EQ(t.user_name(t.jobs()[0]), "alice");
  EXPECT_EQ(t.user_name(t.jobs()[2]), "alice");
  EXPECT_EQ(t.jobs()[0].user, t.jobs()[2].user);  // same id
}

TEST(Trace, SortBySubmitTimeIsStable) {
  Trace t = small_trace();
  t.sort_by_submit_time();
  EXPECT_EQ(t.jobs()[0].submit_time, 50);
  EXPECT_EQ(t.jobs()[1].submit_time, 100);
  EXPECT_EQ(t.jobs()[2].submit_time, 200);
}

TEST(Trace, GpuTimeAndDerivedFields) {
  const Trace t = small_trace();
  const auto& j = t.jobs()[2];
  EXPECT_TRUE(j.is_gpu_job());
  EXPECT_DOUBLE_EQ(j.gpu_time(), 900.0 * 8);
  EXPECT_DOUBLE_EQ(j.cpu_time(), 900.0 * 48);
  EXPECT_EQ(j.end_time(), j.start_time + 900);
  EXPECT_EQ(j.queue_delay(), 0);  // start defaults to submit
  EXPECT_EQ(j.jct(), 900);
}

TEST(Trace, FiltersPreserveInterners) {
  const Trace t = small_trace();
  const Trace gpu = t.gpu_jobs();
  ASSERT_EQ(gpu.size(), 2u);
  EXPECT_EQ(gpu.user_name(gpu.jobs()[0]), "alice");
  const Trace cpu = t.cpu_jobs();
  ASSERT_EQ(cpu.size(), 1u);
  EXPECT_EQ(cpu.job_name(cpu.jobs()[0]), "extract");
  const Trace window = t.between(60, 150);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window.jobs()[0].submit_time, 100);
}

TEST(Trace, CsvRoundTrip) {
  Trace t = small_trace();
  t.jobs()[1].start_time = 75;  // exercise a non-default start
  std::stringstream ss;
  t.save_csv(ss);
  const Trace back = Trace::load_csv(ss, t.cluster());
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.jobs()[i].submit_time, t.jobs()[i].submit_time);
    EXPECT_EQ(back.jobs()[i].start_time, t.jobs()[i].start_time);
    EXPECT_EQ(back.jobs()[i].duration, t.jobs()[i].duration);
    EXPECT_EQ(back.jobs()[i].num_gpus, t.jobs()[i].num_gpus);
    EXPECT_EQ(back.jobs()[i].state, t.jobs()[i].state);
    EXPECT_EQ(back.user_name(back.jobs()[i]), t.user_name(t.jobs()[i]));
    EXPECT_EQ(back.job_name(back.jobs()[i]), t.job_name(t.jobs()[i]));
  }
}

TEST(Trace, CsvRejectsMalformedRows) {
  std::stringstream ss("header\n1,2,3\n");
  EXPECT_THROW(Trace::load_csv(ss, ClusterSpec{}), std::runtime_error);
}

/// Expects `row` to be rejected with a std::runtime_error naming `field`,
/// leaving the trace untouched (no job appended, no string interned).
void expect_field_error(const std::string& row, const std::string& field) {
  Trace t;
  try {
    t.append_csv_row(row);
    ADD_FAILURE() << "accepted: " << row;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << row << " -> " << e.what();
  }
  EXPECT_TRUE(t.empty()) << row;
  EXPECT_TRUE(t.users().empty()) << row;
}

TEST(Trace, CsvRejectsCorruptNumericFields) {
  struct Case {
    std::size_t index;
    const char* text;
    const char* field;
  };
  const Case cases[] = {
      {4, "12x", "num_gpus"},         // trailing garbage
      {4, "abc", "num_gpus"},         // not a number at all
      {4, "4294967297", "num_gpus"},  // would wrap to 1 as int32
      {4, "", "num_gpus"},
      {3, "2147483648", "duration"},
      {5, "1.5", "num_cpus"},
      {5, " 4", "num_cpus"},          // leading space
      {1, "99999999999999999999", "submit_time"},
      {2, "12-", "start_time"},
      {0, "-1", "job_id"},            // unsigned
      {0, "+7", "job_id"},
  };
  const std::string fields[] = {"7",     "100", "120",  "50",    "4",
                                "8",     "alice", "vcA", "train", "completed"};
  for (const auto& c : cases) {
    for (const bool quoted : {false, true}) {  // fast split and fallback
      std::string row;
      for (std::size_t i = 0; i < 10; ++i) {
        if (i > 0) row += ',';
        row += i == c.index ? std::string(c.text)
               : quoted && i == 8 ? std::string("\"tr,ain\"")
                                  : fields[i];
      }
      expect_field_error(row, c.field);
    }
  }
  Trace ok;
  ASSERT_TRUE(ok.append_csv_row("7,100,-1,50,2147483647,8,alice,vcA,\"a,b\",completed\r"));
  EXPECT_EQ(ok.jobs()[0].num_gpus, 2147483647);
  EXPECT_FALSE(ok.jobs()[0].started());
  EXPECT_EQ(ok.job_name(ok.jobs()[0]), "a,b");
}

TEST(Trace, CsvRowsRoundTripRandomStrings) {
  // Writer-encoded rows with random names (commas, quotes, CR inside
  // quotes, empty) and random CRLF endings parse back to the same record
  // through either the fast split or the quoted fallback.
  static const char kChars[] = "ab,\"\r x_";
  Rng rng(17);
  Trace written;
  Trace parsed;
  for (int i = 0; i < 2000; ++i) {
    std::string strs[3];
    for (auto& str : strs) {
      for (auto n = rng.uniform_index(6); n > 0; --n) {
        str += kChars[rng.uniform_index(sizeof kChars - 1)];
      }
    }
    auto& j = written.add(rng.uniform_int(-5, 1'700'000'000),
                          static_cast<std::int32_t>(rng.uniform_int(0, 1 << 30)),
                          static_cast<std::int32_t>(rng.uniform_int(0, 64)),
                          static_cast<std::int32_t>(rng.uniform_int(0, 96)),
                          strs[0], strs[1], strs[2],
                          static_cast<JobState>(rng.uniform_index(3)));
    j.job_id = rng.next();
    j.start_time = rng.bernoulli(0.2) ? kNeverStarted : j.submit_time + 7;
    std::ostringstream os;
    written.save_csv_rows(os, written.size() - 1, 1);
    std::string line = os.str();
    line.pop_back();  // '\n'
    if (rng.bernoulli(0.5)) line += '\r';
    ASSERT_TRUE(parsed.append_csv_row(line)) << line;
  }
  EXPECT_TRUE(parsed.contents_equal(written));
}

TEST(JobState, StringRoundTrip) {
  for (auto s : {JobState::kCompleted, JobState::kCanceled, JobState::kFailed}) {
    EXPECT_EQ(job_state_from_string(to_string(s)), s);
  }
  EXPECT_EQ(job_state_from_string("node_fail"), JobState::kFailed);  // folded
}

// ---------------------------------------------------------------------------
// Cluster configurations
// ---------------------------------------------------------------------------

TEST(ClusterConfig, HeliosShapesMatchTable1) {
  const auto clusters = helios_clusters();
  ASSERT_EQ(clusters.size(), 4u);
  int nodes = 0;
  int gpus = 0;
  int vcs = 0;
  for (const auto& c : clusters) {
    nodes += c.nodes;
    gpus += c.total_gpus();
    vcs += c.vc_count();
    int vc_nodes = 0;
    for (const auto& vc : c.vcs) vc_nodes += vc.nodes;
    EXPECT_EQ(vc_nodes, c.nodes) << c.name;  // exact partition into VCs
  }
  EXPECT_EQ(nodes, 802);
  EXPECT_EQ(gpus, 6416);
  EXPECT_EQ(vcs, 105);
  EXPECT_EQ(helios_cluster("Earth").nodes, 143);
  EXPECT_THROW(helios_cluster("Pluto"), std::invalid_argument);
}

TEST(ClusterConfig, VcSizesAreSkewed) {
  // Figure 4: Earth has one ~26-node VC, the rest much smaller.
  const auto earth = helios_cluster("Earth");
  int largest = 0;
  for (const auto& vc : earth.vcs) largest = std::max(largest, vc.nodes);
  EXPECT_GE(largest * earth.gpus_per_node, 180);
  EXPECT_LE(largest * earth.gpus_per_node, 260);
}

TEST(ClusterConfig, DeterministicLayout) {
  const auto a = helios_cluster("Saturn");
  const auto b = helios_cluster("Saturn");
  ASSERT_EQ(a.vcs.size(), b.vcs.size());
  for (std::size_t i = 0; i < a.vcs.size(); ++i) {
    EXPECT_EQ(a.vcs[i].name, b.vcs[i].name);
    EXPECT_EQ(a.vcs[i].nodes, b.vcs[i].nodes);
  }
}

TEST(ClusterConfig, PhillyShape) {
  const auto p = philly_cluster();
  EXPECT_EQ(p.vc_count(), 14);
  EXPECT_EQ(p.gpus_per_node, 4);
  EXPECT_GT(p.total_gpus(), 1000);
}

TEST(ClusterConfig, ScaleClusterPreservesStructure) {
  const auto full = helios_cluster("Saturn");
  for (double f : {0.5, 0.25, 0.1}) {
    const auto scaled = scale_cluster(full, f);
    EXPECT_NEAR(scaled.nodes, full.nodes * f, full.nodes * f * 0.25 + 2)
        << "factor " << f;
    int vc_nodes = 0;
    for (const auto& vc : scaled.vcs) {
      EXPECT_GE(vc.nodes, 1);
      vc_nodes += vc.nodes;
    }
    EXPECT_EQ(vc_nodes, scaled.nodes);
    EXPECT_LE(scaled.vc_count(), full.vc_count());
  }
}

TEST(ClusterConfig, ScaleClusterIdentity) {
  const auto full = helios_cluster("Venus");
  const auto same = scale_cluster(full, 1.0);
  EXPECT_EQ(same.nodes, full.nodes);
  EXPECT_EQ(same.vc_count(), full.vc_count());
}

TEST(ClusterConfig, ScaleClusterTiny) {
  const auto scaled = scale_cluster(helios_cluster("Venus"), 0.01);
  EXPECT_GE(scaled.nodes, 1);
  EXPECT_GE(scaled.vc_count(), 1);
}

TEST(ClusterConfig, FindVc) {
  const auto c = helios_cluster("Venus");
  EXPECT_EQ(c.find_vc(c.vcs[3].name), 3);
  EXPECT_EQ(c.find_vc("nope"), -1);
}

TEST(ClusterConfig, TraceWindows) {
  EXPECT_LT(helios_trace_begin(), helios_trace_end());
  EXPECT_EQ(to_civil(helios_trace_begin()).month, 4);
  EXPECT_EQ(to_civil(philly_trace_begin()).year, 2017);
}

}  // namespace
}  // namespace helios::trace
