#include "serving/engine.h"

#include <algorithm>

#include "common/fault.h"
#include "common/obs/clock.h"
#include "common/obs/op.h"
#include "common/random.h"
#include "forecast/batch.h"
#include "forecast/model.h"
#include "metrics/ll_window.h"

namespace seagull {

namespace {

std::string ErrorResponse(const Status& status) {
  Json doc = Json::MakeObject();
  doc["ok"] = false;
  doc["error"] = status.message();
  doc["code"] = StatusCodeToString(status.code());
  return doc.Dump();
}

Json WindowToJson(const WindowResult& window) {
  Json doc = Json::MakeObject();
  doc["start"] = window.start;
  doc["duration_minutes"] = window.duration_minutes;
  doc["average_load"] = window.average_load;
  return doc;
}

}  // namespace

Json Notification::ToJson() const {
  Json doc = Json::MakeObject();
  doc["type"] = "notification";
  doc["id"] = subscription_id;
  doc["server_id"] = server_id;
  doc["tick"] = tick;
  doc["window"] = WindowToJson(window);
  doc["previous_start"] = previous_start;
  return doc;
}

Json TickResult::ToJson() const {
  Json doc = Json::MakeObject();
  doc["ok"] = true;
  doc["tick"] = tick;
  doc["ingests_applied"] = ingests_applied;
  doc["refits"] = refits;
  doc["refit_failures"] = refit_failures;
  doc["clean_skips"] = clean_skips;
  if (batch_groups > 0) {
    doc["batch_groups"] = batch_groups;
    doc["batch_shared"] = batch_shared;
  }
  if (!notifications.empty()) {
    Json records = Json::MakeArray();
    for (const auto& n : notifications) records.Append(n.ToJson());
    doc["notifications"] = std::move(records);
  }
  return doc;
}

ServingEngine::ServingEngine(ModelEndpoint endpoint, ServingOptions options)
    : endpoint_(std::move(endpoint)), options_(options) {
  if (options_.shards < 1) options_.shards = 1;
  if (options_.horizon_minutes <= 0) options_.horizon_minutes = kMinutesPerDay;
  if (options_.max_batch_servers < 1) options_.max_batch_servers = 1;
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  published_ = std::make_shared<const FleetEpoch>();
  auto& reg = MetricsRegistry::Global();
  dirty_marks_ = reg.GetCounter("seagull.serving.dirty_marks");
  refits_ = reg.GetCounter("seagull.serving.refits");
  refit_failures_ = reg.GetCounter("seagull.serving.refit_failures");
  ticks_ = reg.GetCounter("seagull.serving.ticks");
  notifications_ = reg.GetCounter("seagull.serving.notifications");
  queue_depth_ = reg.GetGauge("seagull.serving.queue_depth");
  servers_gauge_ = reg.GetGauge("seagull.serving.servers");
  subscriptions_gauge_ = reg.GetGauge("seagull.serving.subscriptions");
  tick_micros_ = reg.GetHistogram("seagull.serving.tick_micros");
}

ServingEngine::Shard& ServingEngine::ShardOf(const std::string& server_id) {
  return *shards_[Rng::HashString(server_id) %
                  static_cast<uint64_t>(shards_.size())];
}

const ServingEngine::Shard& ServingEngine::ShardOf(
    const std::string& server_id) const {
  return *shards_[Rng::HashString(server_id) %
                  static_cast<uint64_t>(shards_.size())];
}

Status ServingEngine::Bootstrap(const std::vector<ServerTelemetry>& fleet) {
  for (const auto& st : fleet) {
    if (st.server_id.empty()) {
      return Status::Invalid("bootstrap telemetry has an empty server id");
    }
    Shard& shard = ShardOf(st.server_id);
    std::lock_guard<std::mutex> lock(shard.mu);
    ServerState& state = shard.servers[st.server_id];
    state.tail = st.load;
    if (state.tail.end() - state.tail.start() > options_.tail_cap_minutes) {
      state.tail = state.tail.Slice(
          state.tail.end() - options_.tail_cap_minutes, state.tail.end());
    }
    state.dirty = true;
  }
  // Publish entries (without forecasts) for the new servers so queries
  // distinguish "awaiting first tick" from "unknown server" without
  // touching the shards.
  auto prev = Snapshot();
  auto next = std::make_shared<FleetEpoch>();
  next->epoch = prev->epoch;
  next->servers = prev->servers;
  for (const auto& st : fleet) next->servers.try_emplace(st.server_id);
  Publish(std::move(next));
  dirty_marks_->Increment(static_cast<int64_t>(fleet.size()));
  servers_gauge_->Set(static_cast<double>(server_count()));
  return Status::OK();
}

int64_t ServingEngine::server_count() const {
  int64_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += static_cast<int64_t>(shard->servers.size());
  }
  return n;
}

int64_t ServingEngine::subscription_count() const {
  std::lock_guard<std::mutex> lock(subs_mu_);
  return static_cast<int64_t>(subs_.size());
}

void ServingEngine::Publish(std::shared_ptr<const FleetEpoch> next) {
  {
    std::lock_guard<std::mutex> lock(published_mu_);
    published_.swap(next);
  }
  // `next` now holds the previous epoch and drops it here.
}

bool ServingEngine::IsRegistered(const std::string& server_id) const {
  const Shard& shard = ShardOf(server_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.servers.find(server_id) != shard.servers.end();
}

Result<Json> ServingEngine::PredictFromSnapshot(const FleetEpoch& snap,
                                                const std::string& server_id,
                                                const Json& request) {
  if (server_id.empty()) {
    return Status::Invalid("server id must not be empty");
  }
  auto it = snap.servers.find(server_id);
  if (it == snap.servers.end()) {
    // Cold path: an ingest may have registered the server after this
    // epoch published.
    if (IsRegistered(server_id)) {
      return Status::FailedPrecondition("no forecast for server " +
                                        server_id +
                                        " yet (awaiting first tick)");
    }
    return Status::NotFound("engine serves no server " + server_id);
  }
  const EpochEntry& entry = it->second;
  if (entry.forecast == nullptr) {
    return Status::FailedPrecondition(
        "no forecast for server " + server_id +
        (entry.last_error.empty() ? " yet (awaiting first tick)"
                                  : ": last refit failed: " +
                                        entry.last_error));
  }
  Json doc = Json::MakeObject();
  doc["ok"] = true;
  doc["tick"] = entry.last_refit_tick;
  if (request.Contains("start") || request.Contains("horizon_minutes")) {
    SEAGULL_ASSIGN_OR_RETURN(double start, request.GetNumber("start"));
    SEAGULL_ASSIGN_OR_RETURN(double horizon,
                             request.GetNumber("horizon_minutes"));
    if (static_cast<int64_t>(horizon) <= 0) {
      return Status::Invalid("horizon must be positive");
    }
    LoadSeries sliced = entry.forecast->Slice(
        static_cast<MinuteStamp>(start),
        static_cast<MinuteStamp>(start) + static_cast<int64_t>(horizon));
    if (sliced.empty()) {
      return Status::FailedPrecondition(
          "requested range is outside the cached forecast for " + server_id);
    }
    doc["forecast"] = SeriesToJson(sliced);
  } else {
    doc["forecast"] = SeriesToJson(*entry.forecast);
  }
  return doc;
}

Result<Json> ServingEngine::HandlePredict(const Json& request) {
  if (request.Contains("recent")) {
    // Stateless path: the ForecastRequest wire form — the request
    // carries its own telemetry and the endpoint predicts from it.
    SEAGULL_ASSIGN_OR_RETURN(ForecastRequest req,
                             ForecastRequest::FromJson(request));
    SEAGULL_ASSIGN_OR_RETURN(
        LoadSeries forecast,
        endpoint_.Predict(req.server_id, req.recent, req.start,
                          req.horizon_minutes));
    Json doc = Json::MakeObject();
    doc["ok"] = true;
    doc["model_version"] = endpoint_.version();
    doc["forecast"] = SeriesToJson(forecast);
    return doc;
  }

  // Stateful path: one snapshot load, no locks, no waiting on refits.
  SEAGULL_ASSIGN_OR_RETURN(std::string server_id,
                           request.GetString("server_id"));
  std::shared_ptr<const FleetEpoch> snap = Snapshot();
  SEAGULL_ASSIGN_OR_RETURN(Json doc,
                           PredictFromSnapshot(*snap, server_id, request));
  doc["model_version"] = endpoint_.version();
  doc["epoch"] = snap->epoch;
  return doc;
}

Result<Json> ServingEngine::HandleBatchPredict(const Json& request) {
  const Json& servers = request["servers"];
  if (!servers.is_array()) {
    return Status::Invalid("servers must be an array of server ids");
  }
  const auto& list = servers.AsArray();
  if (list.empty()) {
    return Status::Invalid("servers array is empty");
  }
  if (static_cast<int64_t>(list.size()) > options_.max_batch_servers) {
    return Status::Invalid(
        "batch predict exceeds max_batch_servers (" +
        std::to_string(options_.max_batch_servers) + ")");
  }
  for (const auto& id : list) {
    if (!id.is_string()) {
      return Status::Invalid("servers array holds a non-string id");
    }
  }

  // Every entry answers from this one snapshot: a tick swapping halfway
  // through the loop cannot split the batch across epochs.
  std::shared_ptr<const FleetEpoch> snap = Snapshot();
  Json results = Json::MakeArray();
  int64_t ok_count = 0;
  for (const auto& id : list) {
    const std::string server_id = id.AsString();
    Result<Json> entry = PredictFromSnapshot(*snap, server_id, request);
    if (entry.ok()) {
      (*entry)["server_id"] = server_id;
      ++ok_count;
      results.Append(std::move(*entry));
    } else {
      Json failure = Json::MakeObject();
      failure["server_id"] = server_id;
      failure["ok"] = false;
      failure["error"] = entry.status().message();
      failure["code"] = StatusCodeToString(entry.status().code());
      results.Append(std::move(failure));
    }
  }
  Json doc = Json::MakeObject();
  doc["ok"] = true;
  doc["model_version"] = endpoint_.version();
  doc["epoch"] = snap->epoch;
  doc["served"] = ok_count;
  doc["failed"] = static_cast<int64_t>(list.size()) - ok_count;
  doc["results"] = std::move(results);
  return doc;
}

Result<Json> ServingEngine::HandleLLWindow(const Json& request) {
  SEAGULL_ASSIGN_OR_RETURN(std::string server_id,
                           request.GetString("server_id"));
  if (server_id.empty()) {
    return Status::Invalid("server id must not be empty");
  }
  const int64_t duration = static_cast<int64_t>(
      request.Contains("duration_minutes")
          ? request["duration_minutes"].AsDouble()
          : 60);
  if (duration <= 0) return Status::Invalid("duration must be positive");

  std::shared_ptr<const FleetEpoch> snap = Snapshot();
  auto it = snap->servers.find(server_id);
  if (it == snap->servers.end()) {
    if (IsRegistered(server_id)) {
      return Status::FailedPrecondition("no forecast for server " +
                                        server_id + " yet");
    }
    return Status::NotFound("engine serves no server " + server_id);
  }
  if (it->second.forecast == nullptr) {
    return Status::FailedPrecondition("no forecast for server " + server_id +
                                      " yet");
  }
  const LoadSeries& forecast = *it->second.forecast;
  const int64_t day = static_cast<int64_t>(
      request.Contains("day") ? request["day"].AsDouble()
                              : DayIndex(forecast.start()));
  WindowResult window = LowestLoadWindow(forecast, day, duration);
  if (!window.found) {
    return Status::FailedPrecondition(
        "cached forecast covers no complete window on day " +
        std::to_string(day));
  }
  Json doc = Json::MakeObject();
  doc["ok"] = true;
  doc["model_version"] = endpoint_.version();
  doc["tick"] = it->second.last_refit_tick;
  doc["epoch"] = snap->epoch;
  doc["window"] = WindowToJson(window);
  return doc;
}

Result<Json> ServingEngine::HandleSubscribe(const Json& request) {
  SEAGULL_ASSIGN_OR_RETURN(std::string server_id,
                           request.GetString("server_id"));
  if (server_id.empty()) {
    return Status::Invalid("server id must not be empty");
  }
  const int64_t duration = static_cast<int64_t>(
      request.Contains("duration_minutes")
          ? request["duration_minutes"].AsDouble()
          : 60);
  if (duration <= 0) return Status::Invalid("duration must be positive");
  std::string id;
  if (request.Contains("id")) {
    SEAGULL_ASSIGN_OR_RETURN(id, request.GetString("id"));
    if (id.empty()) return Status::Invalid("subscription id must not be empty");
  } else {
    id = "sub-" +
         std::to_string(sub_seq_.fetch_add(1, std::memory_order_relaxed));
  }

  std::shared_ptr<const FleetEpoch> snap = Snapshot();
  auto it = snap->servers.find(server_id);
  if (it == snap->servers.end() && !IsRegistered(server_id)) {
    return Status::NotFound("engine serves no server " + server_id);
  }

  Subscription sub;
  sub.server_id = server_id;
  sub.duration_minutes = duration;
  if (it != snap->servers.end() && it->second.forecast != nullptr) {
    const LoadSeries& forecast = *it->second.forecast;
    sub.watermark = LowestLoadWindow(
        forecast, DayIndex(forecast.start()), duration);
    sub.armed = sub.watermark.found;
  }
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    subs_[id] = sub;
    subscriptions_gauge_->Set(static_cast<double>(subs_.size()));
  }
  Json doc = Json::MakeObject();
  doc["ok"] = true;
  doc["id"] = id;
  doc["server_id"] = server_id;
  doc["duration_minutes"] = duration;
  doc["epoch"] = snap->epoch;
  doc["armed"] = sub.armed;
  if (sub.armed) doc["window"] = WindowToJson(sub.watermark);
  return doc;
}

Result<Json> ServingEngine::HandleUnsubscribe(const Json& request) {
  SEAGULL_ASSIGN_OR_RETURN(std::string id, request.GetString("id"));
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subs_.find(id);
    if (it == subs_.end()) {
      return Status::NotFound("no subscription " + id);
    }
    subs_.erase(it);
    subscriptions_gauge_->Set(static_cast<double>(subs_.size()));
  }
  Json doc = Json::MakeObject();
  doc["ok"] = true;
  doc["id"] = id;
  return doc;
}

Result<Json> ServingEngine::HandleIngest(const Json& request) {
  SEAGULL_ASSIGN_OR_RETURN(std::string server_id,
                           request.GetString("server_id"));
  if (server_id.empty()) {
    return Status::Invalid("server id must not be empty");
  }
  if (!request["series"].is_object()) {
    return Status::Invalid("ingest request has no series object");
  }
  SEAGULL_ASSIGN_OR_RETURN(LoadSeries increment,
                           SeriesFromJson(request["series"]));
  if (increment.empty()) {
    return Status::Invalid("ingest increment is empty");
  }
  const int64_t seq =
      request.Contains("seq")
          ? static_cast<int64_t>(request["seq"].AsDouble())
          : arrival_seq_.fetch_add(1, std::memory_order_relaxed);
  {
    Shard& shard = ShardOf(server_id);
    std::lock_guard<std::mutex> lock(shard.mu);
    ServerState& state = shard.servers[server_id];  // auto-registers
    // Enforce one grid per server here so tick-time merges cannot fail:
    // the increment must match the tail's interval, or — for a freshly
    // registered server — the interval of any already-pending increment.
    const int64_t grid = !state.tail.empty()
                             ? state.tail.interval_minutes()
                             : (!state.pending.empty()
                                    ? state.pending.front()
                                          .second.interval_minutes()
                                    : increment.interval_minutes());
    if (increment.interval_minutes() != grid) {
      return Status::Invalid(
          "increment interval does not match the server's telemetry grid");
    }
    // Bound the increment to within one tail cap of the server's anchor
    // — the tail's end, or before the first tick the end of the first
    // pending increment — so a tick-time merge spans at most about two
    // tail caps whatever stamps a client sends.
    const LoadSeries* anchor =
        !state.tail.empty()
            ? &state.tail
            : (!state.pending.empty() ? &state.pending.front().second
                                      : nullptr);
    if (anchor != nullptr) {
      const MinuteStamp lo = anchor->end() - options_.tail_cap_minutes;
      const MinuteStamp hi = anchor->end() + options_.tail_cap_minutes;
      if (increment.start() < lo || increment.end() > hi) {
        return Status::OutOfRange(
            "increment [" + std::to_string(increment.start()) + ", " +
            std::to_string(increment.end()) +
            ") lies outside tail_cap_minutes of the server's telemetry "
            "ending at " +
            std::to_string(anchor->end()));
      }
    }
    state.pending.emplace_back(seq, std::move(increment));
  }
  pending_count_.fetch_add(1, std::memory_order_relaxed);
  queue_depth_->Set(
      static_cast<double>(pending_count_.load(std::memory_order_relaxed)));
  Json doc = Json::MakeObject();
  doc["ok"] = true;
  doc["server_id"] = server_id;
  doc["seq"] = seq;
  return doc;
}

std::string ServingEngine::Handle(const std::string& request_text) {
  auto parsed = Json::Parse(request_text);
  if (!parsed.ok()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(parsed.status());
  }
  // Verb defaulting keeps the stateless ForecastRequest form valid
  // without a "verb" member.
  const std::string verb =
      parsed->Contains("verb") ? (*parsed)["verb"].AsString() : "predict";
  const bool batch = verb == "predict" && parsed->Contains("servers");
  Result<Json> response = Status::Invalid("unknown verb " + verb);
  {
    const char* op = "unknown";
    if (verb == "predict") op = batch ? "batch_predict" : "predict";
    if (verb == "ll_window") op = "ll_window";
    if (verb == "subscribe_ll") op = "subscribe";
    if (verb == "unsubscribe") op = "unsubscribe";
    if (verb == "ingest") op = "ingest";
    ObsOp obs_op("seagull.serving", op);
    if (verb == "predict") {
      response = batch ? HandleBatchPredict(*parsed) : HandlePredict(*parsed);
    }
    if (verb == "ll_window") response = HandleLLWindow(*parsed);
    if (verb == "subscribe_ll") response = HandleSubscribe(*parsed);
    if (verb == "unsubscribe") response = HandleUnsubscribe(*parsed);
    if (verb == "ingest") response = HandleIngest(*parsed);
    response = obs_op.Done(std::move(response));
  }
  if (!response.ok()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(response.status());
  }
  served_.fetch_add(1, std::memory_order_relaxed);
  return response->Dump();
}

TickResult ServingEngine::Tick() {
  const int64_t t0 = ObsClock::NowMicros();
  TickResult result;
  result.tick = tick_.load(std::memory_order_acquire) + 1;

  // Phase 1 — drain pending ingests into the tick-owned tails, in seq
  // order, and collect the dirty set. Per-shard locking; the sorted
  // merge makes the outcome independent of arrival interleaving. Dirty
  // flags clear at collection time: a server collected here is refit
  // (or fails its refit) this tick either way.
  struct RefitTask {
    std::string id;
    ServerState* state;  ///< stable: map nodes never move
    EpochEntry* entry = nullptr;  ///< this task's shadow slot
    Status injected;              ///< serving.refit fault decision
  };
  std::vector<RefitTask> tasks;
  int64_t total_servers = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total_servers += static_cast<int64_t>(shard->servers.size());
    for (auto& [id, state] : shard->servers) {
      if (!state.pending.empty()) {
        std::sort(state.pending.begin(), state.pending.end(),
                  [](const auto& a, const auto& b) {
                    return a.first < b.first;
                  });
        for (auto& [seq, increment] : state.pending) {
          (void)seq;
          state.tail.MergeFrom(increment).Abort();
        }
        result.ingests_applied +=
            static_cast<int64_t>(state.pending.size());
        pending_count_.fetch_sub(
            static_cast<int64_t>(state.pending.size()),
            std::memory_order_relaxed);
        state.pending.clear();
        if (state.tail.end() - state.tail.start() >
            options_.tail_cap_minutes) {
          state.tail = state.tail.Slice(
              state.tail.end() - options_.tail_cap_minutes,
              state.tail.end());
        }
        if (!state.dirty) {
          state.dirty = true;
          dirty_marks_->Increment();
        }
      }
      if (state.dirty) {
        state.dirty = false;
        tasks.push_back({id, &state, nullptr, Status::OK()});
      } else {
        ++result.clean_skips;
      }
    }
  }
  std::sort(tasks.begin(), tasks.end(),
            [](const RefitTask& a, const RefitTask& b) {
              return a.id < b.id;
            });

  // Phase 2 — build the shadow epoch: copy the published entry table
  // (forecast series are shared, so this is O(servers) pointer copies)
  // and pin one slot per dirty server. Queries keep reading the
  // published epoch untouched for the entire refit fan-out.
  auto prev = Snapshot();
  auto next = std::make_shared<FleetEpoch>();
  next->epoch = result.tick;
  next->servers = prev->servers;
  for (auto& task : tasks) {
    task.entry = &next->servers.try_emplace(task.id).first->second;
    // One fault decision per dirty server per tick, on the tick thread
    // in sorted order — schedule-independent because decisions key on
    // (point, server id, per-key attempt index).
    task.injected = FaultRegistry::Global().Inject("serving.refit", task.id);
  }

  // Phase 3 — re-forecast the dirty set into the shadow entries. The
  // tails are stable for the rest of the tick (ingests only enqueue)
  // and each body writes only its own pre-pinned entry, so the fan-out
  // runs without any lock. A failed refit keeps the stale forecast.
  auto install = [&](RefitTask& task, Result<LoadSeries> forecast) {
    if (forecast.ok()) {
      task.entry->forecast = std::make_shared<const LoadSeries>(
          std::move(forecast).ValueUnsafe());
      task.entry->last_refit_tick = result.tick;
      task.entry->last_error.clear();
    } else {
      task.entry->last_error = forecast.status().ToString();
    }
  };
  const int64_t n = static_cast<int64_t>(tasks.size());
  if (options_.refit_model.empty()) {
    auto refit = [&](int64_t i) {
      RefitTask& task = tasks[static_cast<size_t>(i)];
      install(task,
              task.injected.ok()
                  ? endpoint_.Predict(task.id, task.state->tail,
                                      task.state->tail.end(),
                                      options_.horizon_minutes)
                  : Result<LoadSeries>(task.injected));
    };
    if (options_.pool != nullptr && n > 1) {
      ParallelFor(options_.pool, n, refit);
    } else {
      SequentialFor(n, refit);
    }
  } else {
    // Batched refit: group the non-faulted dirty tails by shape so the
    // expensive per-fit structures are built once per group, then each
    // fitted model forecasts its own horizon.
    std::vector<BatchTrainItem> items;
    std::vector<size_t> item_task;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!tasks[i].injected.ok()) {
        install(tasks[i], tasks[i].injected);
        continue;
      }
      items.push_back({&tasks[i].state->tail});
      item_task.push_back(i);
    }
    BatchTrainStats batch_stats;
    auto fits = BatchTrainer::Fit(options_.refit_model, items,
                                  options_.pool, &batch_stats);
    result.batch_groups = batch_stats.groups;
    result.batch_shared = batch_stats.shared_fits;
    auto finish = [&](int64_t j) {
      RefitTask& task = tasks[item_task[static_cast<size_t>(j)]];
      auto forecast = [&]() -> Result<LoadSeries> {
        if (!fits.ok()) return fits.status();
        const BatchTrainResult& fit = (*fits)[static_cast<size_t>(j)];
        if (!fit.status.ok()) return fit.status;
        SEAGULL_ASSIGN_OR_RETURN(auto model,
                                 ModelFactory::Global().Restore(fit.doc));
        return model->Forecast(task.state->tail, task.state->tail.end(),
                               options_.horizon_minutes);
      }();
      install(task, std::move(forecast));
    };
    const int64_t fit_count = static_cast<int64_t>(items.size());
    if (options_.pool != nullptr && fit_count > 1) {
      ParallelFor(options_.pool, fit_count, finish);
    } else {
      SequentialFor(fit_count, finish);
    }
  }
  result.refits = n;
  for (const auto& task : tasks) {
    if (!task.entry->last_error.empty()) ++result.refit_failures;
  }

  // Phase 4 — publish: one pointer swap moves every query from the old
  // epoch to the new one. Readers holding the old snapshot finish on it
  // (stale-but-consistent); the shared_ptr keeps it alive until the
  // last of them drops it.
  Publish(next);
  tick_.store(result.tick, std::memory_order_release);

  // Phase 5 — subscriptions: evaluate against the epoch just published,
  // in sorted subscription-id order. Only servers refit this tick can
  // have moved their window, so clean servers cost nothing.
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (auto& [id, sub] : subs_) {
      auto it = next->servers.find(sub.server_id);
      if (it == next->servers.end() || it->second.forecast == nullptr) {
        continue;
      }
      if (it->second.last_refit_tick != result.tick) continue;
      const LoadSeries& forecast = *it->second.forecast;
      WindowResult window = LowestLoadWindow(
          forecast, DayIndex(forecast.start()), sub.duration_minutes);
      if (!window.found) continue;
      if (!sub.armed) {
        // First window this subscription observes: arm silently.
        sub.watermark = window;
        sub.armed = true;
        continue;
      }
      if (window.start == sub.watermark.start) {
        sub.watermark = window;  // refresh average, position unchanged
        continue;
      }
      Notification record;
      record.subscription_id = id;
      record.server_id = sub.server_id;
      record.tick = result.tick;
      record.window = window;
      record.previous_start = sub.watermark.start;
      result.notifications.push_back(std::move(record));
      sub.watermark = window;
    }
  }

  refits_->Increment(result.refits);
  refit_failures_->Increment(result.refit_failures);
  ticks_->Increment();
  notifications_->Increment(
      static_cast<int64_t>(result.notifications.size()));
  queue_depth_->Set(
      static_cast<double>(pending_count_.load(std::memory_order_relaxed)));
  servers_gauge_->Set(static_cast<double>(total_servers));
  tick_micros_->Observe(static_cast<double>(ObsClock::NowMicros() - t0));
  return result;
}

std::string ServingEngine::SnapshotText() const {
  std::shared_ptr<const FleetEpoch> snap = Snapshot();
  Json doc = Json::MakeObject();
  doc["tick"] = tick_.load(std::memory_order_acquire);
  doc["epoch"] = snap->epoch;
  doc["family"] = endpoint_.family();
  doc["model_version"] = endpoint_.version();
  Json servers = Json::MakeObject();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [id, state] : shard->servers) {
      Json s = Json::MakeObject();
      s["tail"] = SeriesToJson(state.tail);
      auto it = snap->servers.find(id);
      const EpochEntry* entry =
          it != snap->servers.end() ? &it->second : nullptr;
      s["forecast"] = entry != nullptr && entry->forecast != nullptr
                          ? SeriesToJson(*entry->forecast)
                          : Json();
      s["dirty"] = state.dirty;
      s["pending"] = static_cast<int64_t>(state.pending.size());
      s["last_refit_tick"] =
          entry != nullptr ? entry->last_refit_tick : int64_t{-1};
      s["last_error"] = entry != nullptr ? entry->last_error : "";
      servers[id] = std::move(s);
    }
  }
  doc["servers"] = std::move(servers);
  Json subs = Json::MakeObject();
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (const auto& [id, sub] : subs_) {
      Json s = Json::MakeObject();
      s["server_id"] = sub.server_id;
      s["duration_minutes"] = sub.duration_minutes;
      s["armed"] = sub.armed;
      if (sub.armed) s["window"] = WindowToJson(sub.watermark);
      subs[id] = std::move(s);
    }
  }
  doc["subscriptions"] = std::move(subs);
  return doc.Dump();
}

}  // namespace seagull
