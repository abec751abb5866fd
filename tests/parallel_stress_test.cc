/// \file parallel_stress_test.cc
/// \brief Stress and failure-mode coverage for the work-stealing pool:
/// contention from many callers, exception propagation, nested loops,
/// the grain cap, and the hardware-concurrency fallback. The whole
/// binary also runs under -fsanitize=thread via tools/check.sh, which is
/// what makes the "TSan-clean ParallelFor" claim enforceable.

#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"

namespace seagull {
namespace {

TEST(ThreadPoolStressTest, ManyCallersShareOnePool) {
  // Eight outside threads run loops on one four-worker pool at once:
  // their helpers interleave in the same shards and steal from each
  // other, and every loop still visits each of its indices once.
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr int kLoopsEach = 10;
  constexpr int64_t kN = 500;
  std::atomic<int64_t> counter{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int loop = 0; loop < kLoopsEach; ++loop) {
        ParallelFor(
            &pool, kN, [&counter](int64_t) { counter.fetch_add(1); },
            /*grain=*/1);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(counter.load(), kCallers * kLoopsEach * kN);
}

TEST(ThreadPoolStressTest, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int64_t> visited{0};
  EXPECT_THROW(
      ParallelFor(&pool, 10000,
                  [&](int64_t i) {
                    if (i == 137) throw std::runtime_error("index 137");
                    visited.fetch_add(1);
                  }),
      std::runtime_error);
  // The loop stopped early rather than visiting everything.
  EXPECT_LT(visited.load(), 10000);
  // The pool survives and later loops complete normally.
  std::atomic<int64_t> clean{0};
  ParallelFor(&pool, 1000, [&](int64_t) { clean.fetch_add(1); });
  EXPECT_EQ(clean.load(), 1000);
}

TEST(ThreadPoolStressTest, NestedParallelForDoesNotDeadlock) {
  // Region-level and server-level loops share one pool in FleetRunner;
  // caller participation must make the nesting safe even with a single
  // worker and the caller's own thread saturated.
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  ParallelFor(
      &pool, 8,
      [&](int64_t) {
        ParallelFor(&pool, 50, [&](int64_t) { total.fetch_add(1); });
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), 8 * 50);
}

TEST(ThreadPoolStressTest, ZeroAndNegativeThreadsFallBackToHardware) {
  ThreadPool zero(0);
  EXPECT_GE(zero.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_GE(negative.num_threads(), 1);
  std::atomic<int> counter{0};
  ParallelFor(&zero, 100, [&](int64_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolStressTest, GrainCapsChunksAndCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 25000;
  constexpr int64_t kGrain = 64;
  std::vector<std::atomic<int>> hits(kN);
  std::vector<std::thread::id> owner(kN);
  // Index 0 waits until index kGrain has started. Only a chunk that
  // ends at kGrain lets another participant reach it meanwhile; a chunk
  // past the cap would run index kGrain after index 0 on the same
  // thread, and the wait would time out.
  std::atomic<bool> second_chunk_started{false};
  ParallelFor(
      &pool, kN,
      [&](int64_t i) {
        if (i == kGrain) second_chunk_started.store(true);
        if (i == 0) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (!second_chunk_started.load() &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
          EXPECT_TRUE(second_chunk_started.load());
        }
        owner[static_cast<size_t>(i)] = std::this_thread::get_id();
        hits[static_cast<size_t>(i)].fetch_add(1);
      },
      kGrain);
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
    // Chunks start on grain boundaries, so each grain block has one
    // owner.
    if (i % kGrain != 0) {
      ASSERT_EQ(owner[static_cast<size_t>(i)],
                owner[static_cast<size_t>(i - 1)])
          << "index " << i;
    }
  }
}

TEST(ThreadPoolStressTest, ParallelForMatchesSequentialReduction) {
  ThreadPool pool(8);
  constexpr int64_t kN = 20000;
  std::vector<int64_t> values(kN);
  ParallelFor(&pool, kN,
              [&](int64_t i) { values[static_cast<size_t>(i)] = i * 3; });
  int64_t parallel_sum =
      std::accumulate(values.begin(), values.end(), int64_t{0});
  int64_t expected = 0;
  ParallelFor(nullptr, kN, [&](int64_t i) { expected += i * 3; });
  EXPECT_EQ(parallel_sum, expected);
}

TEST(ThreadPoolStressTest, InjectedFaultMidLoopPropagates) {
  // Drive the loop-body failure through the fault registry instead of a
  // hard-coded index: the registry decides which chunk dies (the body
  // asks once per chunk, at its first index), the loop converts the
  // injected Status into the exception the pool must carry back to the
  // caller.
  ThreadPool pool(4);
  ScopedFaultInjection fault({/*seed=*/1, /*rate=*/0.0});
  fault.registry().AddOutage("stress.task", "chunk", /*count=*/1);
  std::atomic<int64_t> visited{0};
  constexpr int64_t kN = 100000;
  constexpr int64_t kGrain = 16;
  EXPECT_THROW(
      ParallelFor(
          &pool, kN,
          [&](int64_t i) {
            if (i % kGrain == 0) {
              Status st =
                  FaultRegistry::Global().Inject("stress.task", "chunk");
              if (!st.ok()) throw std::runtime_error(st.ToString());
            }
            visited.fetch_add(1);
          },
          kGrain),
      std::runtime_error);
  EXPECT_EQ(fault.registry().InjectedCount("stress.task"), 1);
  // The faulted chunk's indices were skipped.
  EXPECT_LT(visited.load(), kN);

  // The pool is reusable after the failed loop: workers survived, the
  // queue drained, and a clean loop covers every index exactly once.
  std::atomic<int64_t> clean{0};
  ParallelFor(
      &pool, 5000, [&](int64_t) { clean.fetch_add(1); }, kGrain);
  EXPECT_EQ(clean.load(), 5000);
}

TEST(ThreadPoolStressTest, RepeatedInjectedFaultsNeverWedgeThePool) {
  // Several consecutive loops each lose a different chunk to an injected
  // fault; every failure must propagate and the pool must stay usable.
  ThreadPool pool(4);
  ScopedFaultInjection fault({/*seed=*/3, /*rate=*/0.0});
  constexpr int64_t kGrain = 8;
  for (int round = 0; round < 5; ++round) {
    const std::string key = "round-" + std::to_string(round);
    fault.registry().AddOutage("stress.round", key, /*count=*/1);
    EXPECT_THROW(
        ParallelFor(
            &pool, 20000,
            [&](int64_t i) {
              if (i % kGrain != 0) return;
              Status st = FaultRegistry::Global().Inject("stress.round", key);
              if (!st.ok()) throw std::runtime_error(st.ToString());
            },
            kGrain),
        std::runtime_error);
  }
  EXPECT_EQ(fault.registry().InjectedCount("stress.round"), 5);
  std::atomic<int64_t> total{0};
  ParallelFor(&pool, 1000, [&](int64_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 1000);
}

}  // namespace
}  // namespace seagull
