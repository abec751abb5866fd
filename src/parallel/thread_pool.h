/// \file thread_pool.h
/// \brief Work-stealing worker pool — the library's Dask stand-in.
///
/// The paper partitions pipeline work per server and runs it on Dask
/// workers (§2.1, §6.1). Here one loop, `ParallelFor`, provides the same
/// partition-per-server parallelism for accuracy evaluation, model
/// training, inference, serving refits, and the fleet runner that
/// executes many per-region pipelines concurrently.
///
/// Design (see DESIGN.md "Fleet execution engine"):
///  - Each worker owns a deque shard. Loop helpers are queued
///    round-robin across shards; a worker pops from the front of its own
///    shard and steals from the back of the others, so unrelated loops
///    rarely contend on one lock.
///  - A null or one-thread pool runs the loop in index order on the
///    caller; that is the determinism reference every parallel run
///    must match.
///  - Loop callers participate: the thread calling `ParallelFor` claims
///    chunks like any worker, so nested parallelism (a loop body running
///    its own `ParallelFor` on the same pool) cannot deadlock — with
///    zero free workers the caller simply drains the range itself.
///  - Exceptions thrown by a loop body propagate out of `ParallelFor`
///    (the first exception wins; remaining chunks are abandoned) and
///    the pool stays usable.

#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace seagull {

class ThreadPool;

/// \brief Runs `fn(i)` for every i in [0, n).
///
/// With a null or one-thread pool the loop runs in index order on the
/// calling thread. Otherwise the range is cut into chunks of at most
/// `grain` indices (<= 0 picks a size that balances dispatch overhead
/// against load imbalance, as the paper's regions range from hundreds
/// of kilobytes to gigabytes) and the caller claims chunks beside the
/// pool's workers. If any call throws, the loop stops claiming, the
/// first exception is rethrown here, and the pool remains usable.
///
/// Determinism contract: every index in [0, n) is visited exactly once
/// (absent an exception); which thread visits it is unspecified, so
/// bodies must only write state owned by their indices.
void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& fn,
                 int64_t grain = 0);

/// \brief A fixed pool of worker threads over sharded work-stealing
/// deques. Its only client is `ParallelFor`.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1; <= 0 means hardware
  /// concurrency, with a fallback of 4 when the hardware cannot tell).
  explicit ThreadPool(int num_threads);
  /// Runs every queued helper, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  friend void ParallelFor(ThreadPool*, int64_t,
                          const std::function<void(int64_t)>&, int64_t);

  struct Shard {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  /// Queues one loop helper. Helpers never throw: the loop records a
  /// body's exception and rethrows it on the calling thread.
  void Enqueue(std::function<void()> task);
  void WorkerLoop(int home_shard);
  /// Pops from `home`'s front, else steals from the back of the others.
  bool TryAcquire(int home, std::function<void()>* task);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> submit_cursor_{0};
  std::atomic<int64_t> queued_{0};
  std::mutex mu_;  // sleep/wake only
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace seagull
