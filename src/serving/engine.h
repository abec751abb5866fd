/// \file engine.h
/// \brief Long-lived streaming forecast server over a double-buffered
/// (epoch-swapped) fleet state.
///
/// The production deployment serves forecasts "through a REST endpoint"
/// on rolling telemetry (§2.2). `ServingEngine` is that serving mode:
/// it holds the deployed champion `ModelEndpoint` plus one rolling
/// telemetry tail per server, ingests telemetry increments continuously,
/// and re-forecasts on a simulated 5-minute tick — but only servers
/// whose tail changed since the previous tick (dirty-set tracking).
///
/// Epoch model (double buffering): all query-visible state — the cached
/// forecast, its refit tick, and the last refit error of every server —
/// lives in an immutable `FleetEpoch` published through one
/// `shared_ptr`. Queries (`predict`, batch predict, `ll_window`) copy
/// the published pointer once and answer entirely from that snapshot:
/// they take no shard lock and never wait behind a running `Tick()`'s
/// refits, so predict tail latency is independent of refit cost. `Tick()`
/// builds the *next* epoch in a shadow buffer — it copies the published
/// entry table (cheap: forecasts are shared, not cloned), drains the
/// pending ingests into the tick-owned tails in sequence-number order,
/// re-forecasts exactly the dirty servers into the shadow entries, and
/// then publishes the shadow with a single pointer swap. A query
/// that interleaves with a tick therefore observes either the previous
/// epoch or the new one in full — never a torn mix — and every entry of
/// a batch response comes from one snapshot (the `epoch` field names
/// it). Ingests never mutate query-visible state at all: they enqueue
/// the increment on the server's shard-locked pending list, which only
/// `Tick()` reads.
///
/// Refit fan-out: one loop over the dirty servers, fanned out over the
/// pool. With `options.refit_model` empty each server is re-forecast
/// through the deployed endpoint; when it names a trainable family,
/// each dirty tail is instead re-FIT with a fresh model of that family,
/// which then forecasts its horizon. The loop visits the servers by
/// (tail end, tail start, id), so equal grids run adjacent and each
/// thread's additive fit reuses the design matrix and Gram it built for
/// the previous tail (see `AdditiveForecast::Fit`).
///
/// Subscriptions: `subscribe_ll` registers a per-server low-load-window
/// watermark. At the end of every tick — after the epoch swap — the
/// engine recomputes the window of each subscribed server that was
/// refit this tick and, when the window moved off the watermark, emits
/// a `Notification` record in `TickResult::notifications` (sorted by
/// subscription id, so the records are schedule-independent). A
/// subscription observes the same staleness contract as queries: its
/// watermark always describes a published epoch, never a mid-build one.
///
/// Determinism contract (tests/serving_determinism_test.cc): with a
/// frozen clock and a fixed request schedule, the set of responses, the
/// notification stream, and the final `SnapshotText()` are
/// byte-identical whatever the number of worker threads, because (a)
/// responses depend only on (request, published epoch), (b) pending
/// increments merge in explicit sequence order, (c) each refit depends
/// only on its server's tail and writes only its own shadow entry, so
/// the order the loop visits them in changes no result, and (d)
/// notifications are evaluated on the tick thread in sorted
/// subscription order. The refit path carries the
/// `serving.refit` fault point, keyed per server, so injected failures
/// are equally schedule-independent: a failed refit keeps the stale
/// forecast (the shadow entry retains the previous epoch's series) and
/// surfaces in `refit_failures` and the entry's `last_error`.

#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/obs/metrics.h"
#include "parallel/thread_pool.h"
#include "pipeline/serving.h"
#include "telemetry/records.h"
#include "timeseries/window.h"

namespace seagull {

/// \brief Serving-engine knobs.
struct ServingOptions {
  /// Forecast horizon recomputed for each dirty server at every tick.
  int64_t horizon_minutes = kMinutesPerDay;
  /// Refit fan-out pool; nullptr re-forecasts sequentially.
  ThreadPool* pool = nullptr;
  /// When non-empty, names a trainable model family: each tick fits a
  /// fresh model of that family on every dirty tail and forecasts from
  /// the fitted instance, instead of predicting through the deployed
  /// endpoint. Byte-deterministic at any pool width.
  std::string refit_model;
};

/// Upper bound on `servers` per batch-predict request.
inline constexpr int64_t kMaxBatchServers = 256;

/// \brief One subscription-fired low-load-window move.
struct Notification {
  std::string subscription_id;
  std::string server_id;
  int64_t tick = 0;          ///< epoch whose swap fired the record
  WindowResult window;       ///< the new lowest-load window
  MinuteStamp previous_start = 0;  ///< watermark the window moved off

  Json ToJson() const;
};

/// \brief Outcome of one simulated 5-minute tick.
struct TickResult {
  int64_t tick = 0;             ///< epoch number just published (1-based)
  int64_t ingests_applied = 0;  ///< pending increments merged into tails
  int64_t refits = 0;           ///< dirty servers re-forecast (incl. failed)
  int64_t refit_failures = 0;   ///< refits that kept the stale forecast
  int64_t clean_skips = 0;      ///< servers left on their cached forecast
  /// refit_model mode: distinct grids (start, end, interval) among the
  /// tails fitted, counted along the refit loop's order.
  int64_t batch_groups = 0;
  /// Window-move records fired by this tick's swap, in subscription-id
  /// order (empty without subscriptions).
  std::vector<Notification> notifications;

  Json ToJson() const;
};

/// \brief Streaming forecast server: epoch-swapped fleet state + tick
/// loop.
class ServingEngine {
 public:
  explicit ServingEngine(ModelEndpoint endpoint, ServingOptions options = {});

  /// Seeds the fleet state with one telemetry tail per server, marks
  /// every server dirty, and publishes an epoch-0 snapshot with no
  /// forecasts (queries answer FailedPrecondition until the first
  /// `Tick()`). Re-registering an id replaces its tail.
  Status Bootstrap(const std::vector<ServerTelemetry>& fleet);

  /// Handles one JSON request (text in, text out; never throws/crashes).
  /// Verbs, dispatched on the "verb" member:
  ///   predict   {"verb":"predict","server_id":S,
  ///              ["start":M,"horizon_minutes":H] | ["recent":{series}]}
  ///     With "recent", computes through the endpoint directly (the
  ///     stateless `ForecastRequest` wire form; "verb" may then be
  ///     omitted entirely). Without it, serves the published epoch's
  ///     forecast, sliced to [start, start+horizon) when given; the
  ///     response carries the snapshot's "epoch" and the server's
  ///     refit "tick".
  ///   predict (batch) {"verb":"predict","servers":[S,...],
  ///              ["start":M,"horizon_minutes":H]}
  ///     Answers every listed server — duplicates allowed, unknown ids
  ///     yield per-server {ok:false,error,code} entries — from ONE
  ///     epoch snapshot: {"ok":true,"epoch":E,"results":[...]}.
  ///   ll_window {"verb":"ll_window","server_id":S,
  ///              ["day":D]["duration_minutes":B]}
  ///     Lowest-load window (Definition 7) over the published forecast;
  ///     `day` defaults to the forecast's first day, duration to 60.
  ///   subscribe_ll {"verb":"subscribe_ll","server_id":S,["id":I],
  ///              ["duration_minutes":B]}
  ///     Registers a window watermark; ticks that move the server's
  ///     lowest-load window emit `Notification` records. Re-using an id
  ///     re-arms it. Ids default to an arrival counter (schedule-
  ///     dependent — loadgen always assigns explicit ids).
  ///   unsubscribe {"verb":"unsubscribe","id":I}
  ///     Removes a subscription; unknown ids are NotFound.
  ///   ingest    {"verb":"ingest","server_id":S,["seq":N],
  ///              "series":{series}}
  ///     Enqueues the increment for the next tick. Unknown servers are
  ///     auto-registered. An increment reaching more than
  ///     `kTailCapMinutes` from the server's anchor — its tail's end,
  ///     or before it has a tail the first pending increment's end —
  ///     is rejected as OutOfRange. `seq` orders same-server merges:
  ///     the increment merged last wins each stamp it shares with
  ///     another. Equal seqs merge in content order — ascending start,
  ///     then sample count, then the samples' bit patterns (a missing
  ///     sample is NaN and compares by its bits) — so their outcome does
  ///     not depend on arrival order. Omitted seqs draw from an arrival
  ///     counter (schedule-dependent — loadgen always assigns explicit
  ///     seqs).
  /// M, H, D, B, N and a series' "start"/"interval" are read through
  /// `Json::GetInt64`: a string, a fraction or a magnitude past 2^53 is
  /// Invalid. Request lines nested deeper than `kMaxJsonDepth` are
  /// Invalid too.
  /// Success responses carry {"ok":true,...}; failures the structured
  /// {"ok":false,"error":...,"code":...} form.
  std::string Handle(const std::string& request_text);

  /// Advances one epoch: drains pending ingests (per server, in seq
  /// order), trims tails to `kTailCapMinutes`, re-forecasts the dirty
  /// set into a shadow epoch, publishes it with
  /// one pointer swap, and evaluates subscriptions against the new
  /// epoch. Must not run concurrently with itself; queries, ingests,
  /// and (un)subscribes may run concurrently with it (see the epoch
  /// model above).
  TickResult Tick();

  int64_t tick() const { return tick_.load(std::memory_order_acquire); }
  int64_t server_count() const;
  int64_t subscription_count() const;
  const ModelEndpoint& endpoint() const { return endpoint_; }
  const ServingOptions& options() const { return options_; }

  /// Requests answered ok / with a structured error since construction.
  int64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  int64_t requests_failed() const {
    return failed_.load(std::memory_order_relaxed);
  }

  /// Pending increments not yet applied by a tick (the queue-depth
  /// gauge's value).
  int64_t pending_ingests() const {
    return pending_count_.load(std::memory_order_relaxed);
  }

  /// Deterministic full-fleet dump: epoch, endpoint identity, every
  /// server's tail, published forecast, dirty flag, and last refit
  /// outcome in sorted server order, plus the subscription table.
  /// Byte-identical across runs that served the same schedule (the
  /// determinism test's snapshot currency). Not concurrent-safe with
  /// `Tick()`.
  std::string SnapshotText() const;

 private:
  /// Query-visible per-server state; immutable once its epoch publishes.
  struct EpochEntry {
    /// Shared across epochs until a refit replaces it; null before the
    /// server's first successful refit.
    std::shared_ptr<const LoadSeries> forecast;
    int64_t last_refit_tick = -1;
    std::string last_error;  ///< failure text of the last refit, if any
  };
  /// One published epoch: the full fleet's query-visible entries.
  struct FleetEpoch {
    int64_t epoch = 0;
    std::map<std::string, EpochEntry> servers;
  };

  /// Tick-owned mutable state, sharded; queries never touch it.
  struct ServerState {
    LoadSeries tail;
    /// Increments queued since the last tick, in arrival order; merged
    /// in ascending seq order at tick time, equal seqs by content.
    std::vector<std::pair<int64_t, LoadSeries>> pending;
    bool dirty = true;
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, ServerState> servers;
  };

  struct Subscription {
    std::string server_id;
    int64_t duration_minutes = 60;
    bool armed = false;      ///< watermark holds a found window
    WindowResult watermark;  ///< last window reported (or seen at arm)
  };

  Shard& ShardOf(const std::string& server_id);
  const Shard& ShardOf(const std::string& server_id) const;

  /// The currently published epoch (never null after construction).
  std::shared_ptr<const FleetEpoch> Snapshot() const {
    std::lock_guard<std::mutex> lock(published_mu_);
    return published_;
  }

  /// Makes `next` the published epoch. The previous epoch is released
  /// after the lock drops, so queries never wait on its destruction.
  void Publish(std::shared_ptr<const FleetEpoch> next);

  /// True when the mutable state knows the server (registered via
  /// bootstrap or ingest), i.e. an epoch miss means "awaiting first
  /// tick" rather than "unknown server".
  bool IsRegistered(const std::string& server_id) const;

  /// One server's answer from `snap`: the forecast (sliced when the
  /// request asks) plus refit bookkeeping. Shared by the single and
  /// batch predict paths.
  Result<Json> PredictFromSnapshot(const FleetEpoch& snap,
                                   const std::string& server_id,
                                   const Json& request);

  /// Verb bodies; each returns the response document or a status that
  /// `Handle` renders as the structured error form.
  Result<Json> HandlePredict(const Json& request);
  Result<Json> HandleBatchPredict(const Json& request);
  Result<Json> HandleLLWindow(const Json& request);
  Result<Json> HandleSubscribe(const Json& request);
  Result<Json> HandleUnsubscribe(const Json& request);
  Result<Json> HandleIngest(const Json& request);

  ModelEndpoint endpoint_;
  ServingOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// The double buffer's front pointer. `published_mu_` is held only
  /// to copy or swap the pointer, never across refit work. (Not
  /// std::atomic<std::shared_ptr>: libstdc++ 12's atomic load drops its
  /// internal lock with relaxed ordering, a data race that tsan reports
  /// between a query's load and the tick's store.)
  mutable std::mutex published_mu_;
  std::shared_ptr<const FleetEpoch> published_;

  mutable std::mutex subs_mu_;
  std::map<std::string, Subscription> subs_;

  std::atomic<int64_t> tick_{0};
  std::atomic<int64_t> served_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> pending_count_{0};
  std::atomic<int64_t> arrival_seq_{0};  ///< fallback for seq-less ingests
  std::atomic<int64_t> sub_seq_{0};      ///< fallback for id-less subscribes

  // Obs instruments, resolved once (registry pointers are stable).
  Counter* dirty_marks_;
  Counter* refits_;
  Counter* refit_failures_;
  Counter* ticks_;
  Counter* notifications_;
  Gauge* queue_depth_;
  Gauge* servers_gauge_;
  Gauge* subscriptions_gauge_;
  Histogram* tick_micros_;
};

}  // namespace seagull
