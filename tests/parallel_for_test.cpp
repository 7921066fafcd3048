// Tests for the shared thread pool (util/parallel_for.h): completeness,
// nesting (only pooled work serializes the loops inside it), and exception
// propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "util/parallel_for.h"

namespace gfa {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, ComputesDisjointResults) {
  const std::size_t n = 4096;
  std::vector<long> out(n, 0);
  parallel_for(n, [&](std::size_t i) { out[i] = static_cast<long>(i) * 3; });
  long sum = std::accumulate(out.begin(), out.end(), 0L);
  EXPECT_EQ(sum, 3L * static_cast<long>(n) * (static_cast<long>(n) - 1) / 2);
}

TEST(ParallelFor, NestedCallsComplete) {
  const std::size_t outer = 16, inner = 64;
  std::atomic<int> count{0};
  parallel_for(outer, [&](std::size_t) {
    parallel_for(inner, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), static_cast<int>(outer * inner));
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> count{0};
  parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, ThreadCountIsPositive) {
  EXPECT_GE(parallel_thread_count(), 1u);
}

TEST(ParallelFor, SetThreadCountResizesLivePool) {
  const unsigned before = parallel_thread_count();
  for (unsigned target : {1u, 3u, 8u, before}) {
    set_parallel_thread_count(target);
    EXPECT_EQ(parallel_thread_count(), target);
    // The resized pool still runs every index exactly once.
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  }
  EXPECT_EQ(parallel_thread_count(), before);
}

TEST(ParallelFor, SetThreadCountClampsToValidRange) {
  const unsigned before = parallel_thread_count();
  set_parallel_thread_count(0);
  EXPECT_EQ(parallel_thread_count(), 1u);
  set_parallel_thread_count(before);
  EXPECT_EQ(parallel_thread_count(), before);
}

/// Pins the pool width and enables metrics for one test, restoring both.
class ParallelForCounters : public ::testing::Test {
 protected:
  void SetUp() override {
    width_was_ = parallel_thread_count();
    metrics_was_ = obs::metrics_enabled();
    obs::set_metrics_enabled(true);
  }
  void TearDown() override {
    obs::set_metrics_enabled(metrics_was_);
    set_parallel_thread_count(width_was_);
  }

  static std::uint64_t counter(const char* name) {
    return obs::Metrics::instance().counter(name).value();
  }

 private:
  unsigned width_was_ = 1;
  bool metrics_was_ = false;
};

// A one-item loop runs serially but is not pooled work, so a loop nested
// inside it still gets the pool.
TEST_F(ParallelForCounters, LoopInsideOneItemLoopUsesThePool) {
  set_parallel_thread_count(2);
  std::uint64_t pooled = 0, serial = 0;
  std::atomic<int> count{0};
  parallel_for(1, [&](std::size_t) {
    const std::uint64_t loops0 = counter("parallel.loops");
    const std::uint64_t serial0 = counter("parallel.serial_loops");
    parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
    pooled = counter("parallel.loops") - loops0;
    serial = counter("parallel.serial_loops") - serial0;
  });
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pooled, 1u);
  EXPECT_EQ(serial, 0u);
}

// Pooled work does serialize the loops nested inside it.
TEST_F(ParallelForCounters, LoopInsidePooledLoopRunsSerially) {
  set_parallel_thread_count(4);
  const std::uint64_t loops0 = counter("parallel.loops");
  const std::uint64_t serial0 = counter("parallel.serial_loops");
  std::atomic<int> count{0};
  parallel_for(8, [&](std::size_t) {
    parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 80);
  EXPECT_EQ(counter("parallel.loops") - loops0, 1u);
  EXPECT_EQ(counter("parallel.serial_loops") - serial0, 8u);
}

// With several indices throwing, the exception that propagates must be the
// one from the lowest index, independent of thread schedule: the later
// errors (700+) are thrown from many chunks at once and will often be
// *recorded* first in wall-clock time, but index 400's chunk was claimed
// earlier off the monotonic cursor and must win the tie-break.
TEST(ParallelFor, LowestIndexErrorWinsDeterministically) {
  for (int round = 0; round < 25; ++round) {
    try {
      parallel_for(2000, [&](std::size_t i) {
        if (i == 400) throw std::runtime_error("low");
        if (i >= 700) throw std::runtime_error("high");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "low") << "round " << round;
    }
  }
}

}  // namespace
}  // namespace gfa
