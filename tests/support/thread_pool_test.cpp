// Tests for the thread pool used to evaluate EA offspring in parallel: its
// one dispatch, parallel_for_blocked.

#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ptgsched {
namespace {

TEST(ThreadPool, InlineModeRunsAllIterations) {
  // Without workers every block runs on the caller, in index order.
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for_blocked(100, 1, [&](std::size_t lo, std::size_t,
                                        std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(lo);
  });
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, SingleIterationRunsInline) {
  // One block is never handed to a worker: it runs on the caller as slot 0,
  // whether it holds one index or a whole range below the grain.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t n : {1u, 50u}) {
    int calls = 0;
    pool.parallel_for_blocked(
        n, 64, [&](std::size_t, std::size_t, std::size_t slot) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          EXPECT_EQ(slot, 0u);
          ++calls;
        });
    EXPECT_EQ(calls, 1) << "n=" << n;
  }
}

TEST(ThreadPool, MoreIterationsThanThreads) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for_blocked(1000, 1, [&](std::size_t lo, std::size_t hi,
                                         std::size_t slot) {
    EXPECT_LT(slot, 3u);
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, FewerIterationsThanThreads) {
  // Three blocks on eight workers: at most two helpers join the caller.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> by_slot(pool.num_slots());
  pool.parallel_for_blocked(3, 1, [&](std::size_t lo, std::size_t hi,
                                      std::size_t slot) {
    by_slot[slot].fetch_add(static_cast<int>(hi - lo));
  });
  int total = 0;
  for (std::size_t slot = 0; slot < by_slot.size(); ++slot) {
    total += by_slot[slot].load();
    if (slot > 2) EXPECT_EQ(by_slot[slot].load(), 0) << "slot " << slot;
  }
  EXPECT_EQ(total, 3);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for_blocked(50, 4, [&](std::size_t lo, std::size_t hi,
                                         std::size_t) {
      count.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, InlineExceptionPropagates) {
  ThreadPool pool(0);
  int calls = 0;
  EXPECT_THROW(pool.parallel_for_blocked(
                   5, 1,
                   [&](std::size_t, std::size_t, std::size_t) {
                     ++calls;
                     throw std::logic_error("x");
                   }),
               std::logic_error);
  EXPECT_EQ(calls, 1);  // The first throw ends the inline loop.
}

TEST(ThreadPoolBlocked, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {1u, 7u, 100u, 4097u}) {
    for (const std::size_t grain : {0u, 1u, 3u, 64u, 10000u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for_blocked(n, grain, [&](std::size_t lo, std::size_t hi,
                                              std::size_t) {
        ASSERT_LE(lo, hi);
        ASSERT_LE(hi, n);
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPoolBlocked, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_blocked(
      0, 8, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolBlocked, InlineModeUsesSlotZero) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_slots(), 1u);
  std::size_t covered = 0;
  pool.parallel_for_blocked(50, 7, [&](std::size_t lo, std::size_t hi,
                                       std::size_t slot) {
    EXPECT_EQ(slot, 0u);
    covered += hi - lo;
  });
  EXPECT_EQ(covered, 50u);
}

TEST(ThreadPoolBlocked, SlotsAreExclusiveWhileRunning) {
  // No two concurrent body invocations may share a slot (the evaluation
  // engine keeps one ListScheduler per slot and relies on this).
  ThreadPool pool(4);
  ASSERT_EQ(pool.num_slots(), 5u);
  std::vector<std::atomic<int>> in_flight(pool.num_slots());
  std::atomic<bool> clash{false};
  std::atomic<long long> sink{0};
  pool.parallel_for_blocked(2000, 4, [&](std::size_t lo, std::size_t hi,
                                         std::size_t slot) {
    ASSERT_LT(slot, in_flight.size());
    if (in_flight[slot].fetch_add(1) != 0) clash.store(true);
    for (std::size_t i = lo; i < hi; ++i) {
      sink.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
    }
    in_flight[slot].fetch_sub(1);
  });
  EXPECT_FALSE(clash.load());
}

TEST(ThreadPoolBlocked, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_blocked(
                   100, 8,
                   [](std::size_t lo, std::size_t, std::size_t) {
                     if (lo == 40) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for_blocked(
      30, 4,
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        count.fetch_add(static_cast<int>(hi - lo));
      });
  EXPECT_EQ(count.load(), 30);
}

TEST(ThreadPool, ThreadIdsAreStable) {
  ThreadPool pool(3);
  const auto before = pool.thread_ids();
  ASSERT_EQ(before.size(), 3u);
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for_blocked(100, 1,
                              [](std::size_t, std::size_t, std::size_t) {});
  }
  EXPECT_EQ(pool.thread_ids(), before);
}

TEST(ThreadPool, ParallelSumIsCorrect) {
  ThreadPool pool(4);
  constexpr std::size_t n = 10000;
  std::atomic<long long> sum{0};
  pool.parallel_for_blocked(n, 16, [&](std::size_t lo, std::size_t hi,
                                       std::size_t) {
    for (std::size_t i = lo; i < hi; ++i) {
      sum.fetch_add(static_cast<long long>(i));
    }
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2);
}

}  // namespace
}  // namespace ptgsched
