#include "parallel/thread_pool.h"

#include <algorithm>

#include "common/obs/metrics.h"

namespace seagull {

namespace {

/// Process-wide pool instruments, resolved once. Submission/steal/queue
/// counts are schedule-dependent by design; the determinism suites
/// exclude the `seagull.pool.` prefix when diffing snapshots.
struct PoolMetrics {
  Counter* submitted;
  Counter* executed;
  Counter* stolen;
  Gauge* queue_peak;
  Gauge* workers;
};

PoolMetrics& GetPoolMetrics() {
  static PoolMetrics* m = [] {
    auto& reg = MetricsRegistry::Global();
    return new PoolMetrics{
        reg.GetCounter("seagull.pool.submitted"),
        reg.GetCounter("seagull.pool.executed"),
        reg.GetCounter("seagull.pool.stolen"),
        reg.GetGauge("seagull.pool.queue_peak"),
        reg.GetGauge("seagull.pool.workers"),
    };
  }();
  return *m;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 4;
  }
  shards_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  GetPoolMetrics().workers->Max(static_cast<double>(num_threads));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  const size_t shard = submit_cursor_.fetch_add(1) % shards_.size();
  // Count before publishing so `queued_` never under-reports: a task
  // visible in a shard always has its count already registered.
  const int64_t depth = queued_.fetch_add(1) + 1;
  PoolMetrics& metrics = GetPoolMetrics();
  metrics.submitted->Increment();
  metrics.queue_peak->Max(static_cast<double>(depth));
  {
    std::lock_guard<std::mutex> lock(shards_[shard]->mu);
    shards_[shard]->tasks.push_back(std::move(task));
  }
  {
    // Empty critical section pairs with the sleep path: a worker that
    // saw no work re-checks `queued_` under `mu_` before sleeping.
    std::lock_guard<std::mutex> lock(mu_);
  }
  cv_.notify_one();
}

bool ThreadPool::TryAcquire(int home, std::function<void()>* task) {
  const int n = static_cast<int>(shards_.size());
  for (int i = 0; i < n; ++i) {
    Shard& shard = *shards_[static_cast<size_t>((home + i) % n)];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.tasks.empty()) continue;
    if (i == 0) {  // own shard: FIFO
      *task = std::move(shard.tasks.front());
      shard.tasks.pop_front();
    } else {  // steal from the back to reduce contention with the owner
      *task = std::move(shard.tasks.back());
      shard.tasks.pop_back();
      GetPoolMetrics().stolen->Increment();
    }
    queued_.fetch_sub(1);
    GetPoolMetrics().executed->Increment();
    return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(int home_shard) {
  while (true) {
    std::function<void()> task;
    if (TryAcquire(home_shard, &task)) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return stop_ || queued_.load() > 0;
    });
    if (stop_ && queued_.load() == 0) return;
  }
}

namespace {

/// Shared state of one loop. Kept alive by shared_ptr so helpers that
/// start after the caller has already returned (possible when the queue
/// is deep) find only an exhausted cursor, never freed memory.
struct LoopState {
  /// The caller's body; only dereferenced for a claimed chunk, and no
  /// chunk can be claimed once the caller returns.
  const std::function<void(int64_t)>* fn = nullptr;
  int64_t n = 0;
  int64_t grain = 1;
  std::atomic<int64_t> cursor{0};
  /// Participants currently inside the claim loop. The caller's final
  /// wait on busy == 0 is what guarantees no chunk body can still be
  /// running (or start) once ParallelFor returns.
  std::atomic<int64_t> busy{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::exception_ptr first_error;
  std::condition_variable done_cv;
};

void RunChunks(const std::shared_ptr<LoopState>& state) {
  state->busy.fetch_add(1);
  while (!state->failed.load()) {
    const int64_t begin = state->cursor.fetch_add(state->grain);
    if (begin >= state->n) break;
    const int64_t end = std::min(begin + state->grain, state->n);
    try {
      for (int64_t i = begin; i < end; ++i) (*state->fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->first_error == nullptr) {
        state->first_error = std::current_exception();
      }
      state->failed.store(true);
    }
  }
  state->busy.fetch_sub(1);
  {
    std::lock_guard<std::mutex> lock(state->mu);
  }
  state->done_cv.notify_all();
}

}  // namespace

void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& fn, int64_t grain) {
  if (n <= 0) return;
  const int threads = pool != nullptr ? pool->num_threads() : 1;
  if (grain <= 0) {
    grain = std::max<int64_t>(1, n / (static_cast<int64_t>(threads) * 8));
  }
  const int64_t num_chunks = (n + grain - 1) / grain;
  if (threads <= 1 || num_chunks == 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->fn = &fn;
  state->n = n;
  state->grain = grain;

  const int64_t helpers =
      std::min<int64_t>(threads, num_chunks - 1);  // caller takes a share
  for (int64_t h = 0; h < helpers; ++h) {
    pool->Enqueue([state] { RunChunks(state); });
  }
  RunChunks(state);

  // Foreclose any chunk claims by helpers that have not started yet
  // (relevant when the loop stopped early on failure); claims already
  // made are covered by the busy counter below.
  state->cursor.store(n);
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->busy.load() == 0; });
  if (state->first_error != nullptr) {
    std::rethrow_exception(state->first_error);
  }
}

}  // namespace seagull
