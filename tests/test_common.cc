// Unit tests: common utilities (units, logging, rng, stats, thread pool).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace hetis {
namespace {

// --- units ---

TEST(Units, ByteConstants) {
  EXPECT_EQ(KiB, 1024);
  EXPECT_EQ(MiB, 1024 * 1024);
  EXPECT_EQ(GiB, 1024ll * 1024 * 1024);
}

TEST(Units, TimeConversions) {
  EXPECT_DOUBLE_EQ(micros(1.0), 1e-6);
  EXPECT_DOUBLE_EQ(millis(1.0), 1e-3);
  EXPECT_DOUBLE_EQ(to_millis(0.5), 500.0);
  EXPECT_DOUBLE_EQ(to_micros(1e-3), 1000.0);
}

TEST(Units, SizeConversions) {
  EXPECT_DOUBLE_EQ(to_gb(2'000'000'000), 2.0);
  EXPECT_DOUBLE_EQ(to_gib(2 * GiB), 2.0);
}

// --- log ---

TEST(Log, ParseLevels) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("Info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kInfo);
}

TEST(Log, SetAndGet) {
  LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(before);
}

// The level is an atomic: concurrent set/get from sweep workers must be
// race-free (this test runs under the sanitizer lane, which would flag a
// data race on the old plain LogLevel) and every read must return a value
// some thread actually wrote.
TEST(Log, ThreadSafeSetAndGet) {
  const LogLevel before = log_level();
  std::atomic<bool> bad{false};
  ThreadPool pool(4);
  pool.run_tasks(64, [&bad](std::size_t i) {
    const LogLevel mine = (i % 2) ? LogLevel::kDebug : LogLevel::kOff;
    set_log_level(mine);
    const LogLevel seen = log_level();
    if (seen != LogLevel::kDebug && seen != LogLevel::kOff) bad = true;
  });
  EXPECT_FALSE(bad);
  set_log_level(before);
  EXPECT_EQ(log_level(), before);
}

// --- rng ---

TEST(Rng, DeterministicBySeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, ForkIndependence) {
  Rng parent(42);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Rng, ForkDeterministic) {
  Rng p1(42), p2(42);
  Rng a = p1.fork(7), b = p2.fork(7);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(1, 3));
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_TRUE(seen.count(1) && seen.count(3));
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, LognormalTruncBounds) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    double v = rng.lognormal_trunc(std::log(100.0), 1.0, 10.0, 500.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LE(v, 500.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(0.0));
  }
}

// --- stats ---

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_EQ(s.count(), 4u);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(95), 0.0);
  EXPECT_TRUE(s.empty());
}

TEST(Summary, PercentileInterpolation) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.p50(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.p95(), 95.05, 1e-9);
}

TEST(Summary, SingleValuePercentiles) {
  Summary s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.p50(), 7.0);
  EXPECT_DOUBLE_EQ(s.p95(), 7.0);
}

// The percentile's definition: a sorted copy, interpolated between the two
// ranks around p, with the minimum and maximum at the ends.
double sorted_percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (p <= 0.0) return v.front();
  if (p >= 100.0) return v.back();
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] * (1.0 - frac) + v[lo + 1] * frac;
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(Summary, PercentileMatchesTheSortedDefinition) {
  std::mt19937_64 rng(20251116);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::vector<double> ps = {0.0, 1e-9, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0 - 1e-9, 100.0};
  for (const std::size_t n : {1u, 2u, 3u, 5u, 17u, 101u, 1000u, 4096u}) {
    // Heavy ties: most samples come from eight values, the rest are
    // continuous, in random order.
    Summary s;
    for (std::size_t i = 0; i < n; ++i) {
      s.add(rng() % 4 != 0 ? 0.125 * static_cast<double>(rng() % 8) : unit(rng));
    }
    for (const double p : ps) {
      SCOPED_TRACE("n " + std::to_string(n) + ", p " + std::to_string(p));
      EXPECT_EQ(bits(s.percentile(p)), bits(sorted_percentile(s.values(), p)));
    }
  }

  // Ranks that land exactly on an index: 4 * 25% and 100 * 95%.
  Summary five;
  for (double v : {3.0, 1.0, 2.0, 1.0, 5.0}) five.add(v);
  EXPECT_EQ(bits(five.percentile(25.0)), bits(1.0));
  EXPECT_EQ(bits(five.percentile(50.0)), bits(2.0));
  EXPECT_EQ(bits(five.percentile(75.0)), bits(3.0));
  Summary hundred_one;
  for (int i = 100; i >= 0; --i) hundred_one.add(i);
  EXPECT_EQ(bits(hundred_one.p95()), bits(95.0));

  // Two samples: the ends and a true interpolation between them.
  Summary two;
  two.add(4.0);
  two.add(2.0);
  EXPECT_EQ(bits(two.percentile(0.0)), bits(2.0));
  EXPECT_EQ(bits(two.percentile(50.0)), bits(3.0));
  EXPECT_EQ(bits(two.percentile(100.0)), bits(4.0));
}

TEST(Summary, MergeCombines) {
  Summary a, b;
  a.add(1.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Summary, CopyAssignmentReleasesTheOldSamples) {
  Summary kept, other;
  for (int i = 0; i < 10000; ++i) kept.add(i);
  other.add(1.0);
  other.add(2.0);
  kept = other;
  EXPECT_EQ(kept.values(), other.values());
  EXPECT_EQ(kept.values().capacity(), 2u);
  // The reset idiom `a = b = Summary()`: the copy into `a` frees its buffer.
  Summary a, b;
  for (int i = 0; i < 10000; ++i) a.add(i);
  a = b = Summary();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.values().capacity(), 0u);
}

TEST(Summary, StddevMatchesFormula) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
}

// --- thread pool ---

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_chunked(0, 1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for_chunked(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ChunkedSeesWholeRange) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_for_chunked(10, 110, [&](std::size_t lo, std::size_t hi) {
    EXPECT_LE(lo, hi);
    total += hi - lo;
  });
  EXPECT_EQ(total.load(), 100u);
}

TEST(ThreadPool, SubmitReturnsFuture) {
  ThreadPool pool(2);
  std::atomic<int> x{0};
  auto f = pool.submit([&] { x = 42; });
  f.get();
  EXPECT_EQ(x.load(), 42);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_chunked(0, 10,
                                [](std::size_t lo, std::size_t hi) {
                                  if (lo <= 3 && 3 < hi) throw std::runtime_error("boom");
                                }),
      std::runtime_error);
}

TEST(ThreadPool, SingleThreadStillWorks) {
  ThreadPool pool(1);
  std::vector<int> hits(64, 0);
  pool.parallel_for_chunked(0, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, RunTasksCoversAllIndicesOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(137);
  pool.run_tasks(137, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  int calls = 0;
  pool.run_tasks(0, [&](std::size_t) { ++calls; });  // empty is a no-op
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, RunTasksRethrowsTheLowestIndexException) {
  // Deterministic regardless of completion order: index 2's exception wins
  // over index 9's even though 9 may finish first.
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    try {
      pool.run_tasks(10, [](std::size_t i) {
        if (i == 2) throw std::runtime_error("low");
        if (i == 9) throw std::runtime_error("high");
      });
      FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "low");
    }
  }
}

TEST(ThreadPool, RunTasksWorksOnSingleThreadPool) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.run_tasks(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace hetis
