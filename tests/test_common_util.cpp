#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory_resource>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/arena.h"
#include "common/csv.h"
#include "common/env.h"
#include "common/interner.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/text_table.h"
#include "common/thread_pool.h"

namespace helios {
namespace {

TEST(Interner, DenseIdsAndRoundTrip) {
  StringInterner in;
  EXPECT_EQ(in.intern("alpha"), 0u);
  EXPECT_EQ(in.intern("beta"), 1u);
  EXPECT_EQ(in.intern("alpha"), 0u);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.str(0), "alpha");
  EXPECT_EQ(in.find("beta"), 1u);
  EXPECT_EQ(in.find("gamma"), StringInterner::kNotFound);
}

TEST(Csv, QuotedRoundTrip) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"plain", "with,comma", "with\"quote", "with\nnewline"});
  const std::string line = os.str();
  // Parse the single physical line produced for the first three fields.
  const auto fields =
      CsvReader::parse_line("plain,\"with,comma\",\"with\"\"quote\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "plain");
  EXPECT_EQ(fields[1], "with,comma");
  EXPECT_EQ(fields[2], "with\"quote");
}

/// A random CSV field as it appears on the line: plain text (possibly
/// empty), a quoted field with commas and doubled quotes, or a stray quote
/// inside plain text.
std::string random_csv_field(Rng& rng) {
  static const char kPlain[] = "ab7 -_.x";
  static const char kQuoted[] = "a,\"b \r";
  std::string f;
  switch (rng.uniform_index(4)) {
    case 0:
      break;  // empty
    case 1:
    case 2:
      for (auto n = rng.uniform_index(8); n > 0; --n) {
        f += kPlain[rng.uniform_index(sizeof kPlain - 1)];
      }
      break;
    default:
      if (rng.bernoulli(0.7)) {  // quoted, escapes doubled
        f += '"';
        for (auto n = rng.uniform_index(8); n > 0; --n) {
          const char c = kQuoted[rng.uniform_index(sizeof kQuoted - 1)];
          f += c;
          if (c == '"') f += '"';
        }
        f += '"';
      } else {  // stray quote mid-field: literal text
        f = "ab\"c";
      }
  }
  return f;
}

TEST(Csv, SplitUnquotedAgreesWithParseLine) {
  Rng rng(31);
  int fast = 0;
  int fallback = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::string line;
    const auto fields = 1 + rng.uniform_index(12);
    for (std::uint64_t i = 0; i < fields; ++i) {
      if (i > 0) line += ',';
      line += random_csv_field(rng);
    }
    if (rng.bernoulli(0.3)) line += '\r';  // CRLF ending
    const auto want = CsvReader::parse_line(line);
    std::array<std::string_view, 10> out;
    const auto got = CsvReader::split_unquoted(line, out);
    const bool needs_parse =
        line.find('"') != std::string::npos ||
        line.substr(0, line.size() - (line.ends_with('\r') ? 1 : 0))
                .find('\r') != std::string::npos;
    ASSERT_EQ(got.has_value(), !needs_parse) << line;
    if (!got) {
      ++fallback;
      continue;
    }
    ++fast;
    ASSERT_EQ(*got, want.size()) << line;
    for (std::size_t i = 0; i < std::min(*got, out.size()); ++i) {
      ASSERT_EQ(out[i], want[i]) << line << " field " << i;
    }
  }
  EXPECT_GT(fast, 500);  // both paths were exercised
  EXPECT_GT(fallback, 500);
  std::array<std::string_view, 2> two;
  EXPECT_FALSE(CsvReader::split_unquoted("a\rb,c", two));  // interior CR
  EXPECT_EQ(CsvReader::split_unquoted("", two), 1u);
  EXPECT_EQ(CsvReader::split_unquoted("x,y,z\r", two), 3u);  // counts past out
  EXPECT_EQ(two[1], "y");
}

TEST(Csv, NumericFieldsRoundTrip) {
  EXPECT_EQ(CsvWriter::field(static_cast<std::int64_t>(-42)), "-42");
  const std::string d = CsvWriter::field(3.25);
  EXPECT_EQ(std::stod(d), 3.25);
}

TEST(Csv, ReadAllSkipsEmptyLines) {
  std::istringstream in("a,b\n\nc,d\n");
  const auto rows = CsvReader::read_all(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, NumericCells) {
  EXPECT_EQ(TextTable::cell(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::cell(static_cast<std::int64_t>(42)), "42");
  EXPECT_EQ(TextTable::cell_grouped(1753000), "1,753,000");
  EXPECT_EQ(TextTable::cell_grouped(-1234), "-1,234");
  EXPECT_EQ(TextTable::cell_pct(0.821), "82.1%");
}

TEST(ThreadPool, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, 10);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksPartition) {
  std::atomic<std::size_t> total{0};
  parallel_for_chunks(
      5, 1005,
      [&](std::size_t lo, std::size_t hi) { total += hi - lo; }, 8);
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPool, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 100, [](std::size_t i) {
        if (i == 57) throw std::runtime_error("boom");
      }, 1),
      std::runtime_error);
  // With several failures the lowest chunk's error wins, at any width.
  try {
    parallel_for(0, 100, [](std::size_t i) {
      if (i == 57 || i == 90) throw std::runtime_error(std::to_string(i));
    }, 1);
    FAIL() << "exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "57");
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  parallel_for(10, 10, [](std::size_t) { FAIL(); });
}

// More outer tasks than workers, each blocking on an inner parallel_for:
// every worker ends up waiting inside a nested fork-join, so only callers
// that drain their own work can finish. Before the single caller-draining
// core this hung at widths 2 and 4.
TEST(ThreadPool, NestedParallelForInsideSaturatedTasks) {
  const std::size_t tasks_n = 2 * global_pool().thread_count() + 1;
  constexpr std::size_t kInner = 4096;
  std::atomic<std::uint64_t> total{0};
  std::vector<std::function<void()>> tasks;
  for (std::size_t t = 0; t < tasks_n; ++t) {
    tasks.emplace_back([&total] {
      parallel_for(0, kInner, [&total](std::size_t i) { total += i; }, 16);
    });
  }
  parallel_run_tasks(std::move(tasks));
  EXPECT_EQ(total.load(), tasks_n * (kInner * (kInner - 1) / 2));
}

TEST(ThreadPool, NestedExceptionReachesOuterCaller) {
  const std::size_t tasks_n = 2 * global_pool().thread_count() + 1;
  std::atomic<std::size_t> inner_done{0};
  std::vector<std::function<void()>> tasks;
  for (std::size_t t = 0; t < tasks_n; ++t) {
    tasks.emplace_back([&inner_done, t] {
      parallel_for(0, 1024, [&inner_done, t](std::size_t i) {
        if (t == 1 && i == 700) throw std::runtime_error("nested chunk");
        ++inner_done;
      }, 16);
    });
  }
  try {
    parallel_run_tasks(std::move(tasks));
    FAIL() << "nested exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "nested chunk");
  }
  // The tasks that did not throw ran to completion before the rethrow.
  EXPECT_GE(inner_done.load(), (tasks_n - 1) * 1024);
}

TEST(MonotonicArena, BumpAllocatesAndAligns) {
  common::MonotonicArena arena;
  EXPECT_EQ(arena.bytes_reserved(), 0u);  // construction allocates nothing
  EXPECT_EQ(arena.chunk_count(), 0u);
  void* a = arena.allocate(10, 1);
  void* b = arena.allocate(16, 16);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 16, 0u);
  EXPECT_NE(a, b);
  EXPECT_GE(arena.bytes_used(), 26u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
  // deallocate is a no-op: the memory stays valid until the arena dies.
  arena.deallocate(a, 10, 1);
  std::memset(a, 0xab, 10);
}

TEST(MonotonicArena, ChunksGrowAndOversizedAllocationsWork) {
  common::MonotonicArena arena(256);
  for (int i = 0; i < 64; ++i) {
    void* p = arena.allocate(64, 8);
    std::memset(p, i, 64);  // every pointer must be distinct, writable memory
  }
  EXPECT_GT(arena.chunk_count(), 1u);  // 4 KiB of 64B blocks outgrew 256B
  // An allocation far beyond the doubling schedule gets its own chunk.
  void* big = arena.allocate(std::size_t{3} << 20, 64);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xcd, std::size_t{3} << 20);
  EXPECT_GE(arena.bytes_reserved(), std::size_t{3} << 20);
}

TEST(MonotonicArena, BacksPmrContainers) {
  common::MonotonicArena arena;
  {
    std::pmr::unordered_map<int, int> m(&arena);
    for (int i = 0; i < 1000; ++i) m[i] = i * 3;
    EXPECT_EQ(m.at(999), 2997);
    EXPECT_GT(arena.bytes_used(), 1000u * sizeof(int) * 2);
  }
  // The map's destructor "freed" into the arena (a no-op); only the arena's
  // destruction releases the chunks.
  EXPECT_GT(arena.bytes_reserved(), 0u);
}

TEST(Simd, DispatchGatesAreConsistent) {
  // compiled ⊇ supported-and-usable: simd_enabled() may never report true
  // unless the kernels were compiled and the CPU can run them.
  if (common::simd_enabled()) {
    EXPECT_TRUE(common::simd_compiled());
    EXPECT_TRUE(common::simd_supported());
  }
  const bool prev = common::simd_enabled();
  // Forcing off always works; forcing on succeeds iff compiled && supported.
  EXPECT_FALSE(common::set_simd_enabled(false));
  EXPECT_EQ(common::set_simd_enabled(true),
            common::simd_compiled() && common::simd_supported());
  common::set_simd_enabled(prev);
  EXPECT_EQ(common::simd_enabled(), prev);
  // simd_mode() names the active configuration for bench/CI logs.
  EXPECT_FALSE(common::simd_mode().empty());
}

TEST(Env, FallbacksAndParsing) {
  EXPECT_DOUBLE_EQ(env_double("HELIOS_TEST_UNSET_VAR", 1.5), 1.5);
  EXPECT_EQ(env_int("HELIOS_TEST_UNSET_VAR", 7), 7);
  ::setenv("HELIOS_TEST_SET_VAR", "2.25", 1);
  EXPECT_DOUBLE_EQ(env_double("HELIOS_TEST_SET_VAR", 0.0), 2.25);
  ::setenv("HELIOS_TEST_SET_VAR", "19", 1);
  EXPECT_EQ(env_int("HELIOS_TEST_SET_VAR", 0), 19);
  EXPECT_EQ(env_string("HELIOS_TEST_SET_VAR", ""), "19");
  ::unsetenv("HELIOS_TEST_SET_VAR");
}

}  // namespace
}  // namespace helios
