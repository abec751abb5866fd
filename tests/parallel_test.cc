#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace seagull {
namespace {

TEST(ThreadPoolTest, ZeroThreadsDefaultsToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  // Helpers the caller outran may still sit in the queue when the loop
  // returns; destroying the pool right after must run them out and join.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    ParallelFor(
        &pool, 20, [&counter](int64_t) { counter.fetch_add(1); },
        /*grain=*/1);
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const int64_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(&pool, n, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, MatchesSequentialSum) {
  ThreadPool pool(8);
  const int64_t n = 5000;
  std::vector<int64_t> values(n);
  ParallelFor(&pool, n, [&](int64_t i) {
    values[static_cast<size_t>(i)] = i * i;
  });
  int64_t parallel_sum = std::accumulate(values.begin(), values.end(),
                                         int64_t{0});
  int64_t expected = 0;
  ParallelFor(nullptr, n, [&](int64_t i) { expected += i * i; });
  EXPECT_EQ(parallel_sum, expected);
}

TEST(ParallelForTest, HandlesEmptyAndSingle) {
  ThreadPool pool(4);
  int calls = 0;
  ParallelFor(&pool, 0, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(&pool, 1, [&](int64_t i) {
    EXPECT_EQ(i, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, SmallNLargePool) {
  ThreadPool pool(16);
  std::atomic<int> counter{0};
  ParallelFor(&pool, 3, [&](int64_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ParallelForTest, NullAndOneThreadPoolsRunInOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool one(1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one}) {
    for (int64_t grain : {0, 1, 2}) {
      std::vector<int64_t> order;
      ParallelFor(
          pool, 5,
          [&](int64_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
          },
          grain);
      EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
    }
  }
}

}  // namespace
}  // namespace seagull
