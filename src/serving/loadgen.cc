#include "serving/loadgen.h"

#include <algorithm>
#include <atomic>
#include <string_view>

#include "common/hash.h"
#include "common/obs/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "timeseries/stats.h"

namespace seagull {

namespace {

/// The raw bytes of a trivially copyable value, for hashing.
template <typename T>
std::string_view BytesOf(const T& value) {
  return std::string_view(reinterpret_cast<const char*>(&value),
                          sizeof(value));
}

}  // namespace

const char* LoadProfileName(LoadProfile profile) {
  switch (profile) {
    case LoadProfile::kRamp:
      return "ramp";
    case LoadProfile::kSpike:
      return "spike";
    case LoadProfile::kSoak:
      return "soak";
  }
  return "unknown";
}

Result<LoadProfile> ParseLoadProfile(const std::string& name) {
  if (name == "ramp") return LoadProfile::kRamp;
  if (name == "spike") return LoadProfile::kSpike;
  if (name == "soak") return LoadProfile::kSoak;
  return Status::Invalid("unknown load profile: " + name);
}

const char* DriverModeName(DriverMode mode) {
  return mode == DriverMode::kOpenLoop ? "open" : "closed";
}

Result<DriverMode> ParseDriverMode(const std::string& name) {
  if (name == "open") return DriverMode::kOpenLoop;
  if (name == "closed") return DriverMode::kClosedLoop;
  return Status::Invalid("unknown driver mode: " + name);
}

int64_t ProfileRequestsAtTick(LoadProfile profile, int64_t base, int64_t t,
                              int64_t ticks) {
  if (base <= 0 || ticks <= 0 || t < 0 || t >= ticks) return 0;
  switch (profile) {
    case LoadProfile::kRamp:
      // Linear climb ending at the full base rate on the last tick.
      return base * (t + 1) / ticks;
    case LoadProfile::kSpike: {
      // Quiet baseline with a 3x burst over the middle tenth.
      const int64_t burst_start = ticks / 2;
      const int64_t burst_len = std::max<int64_t>(1, ticks / 10);
      if (t >= burst_start && t < burst_start + burst_len) return base * 3;
      return std::max<int64_t>(1, base / 4);
    }
    case LoadProfile::kSoak:
      return base;
  }
  return 0;
}

int64_t ProfileTotalRequests(LoadProfile profile, int64_t base,
                             int64_t ticks) {
  int64_t total = 0;
  for (int64_t t = 0; t < ticks; ++t) {
    total += ProfileRequestsAtTick(profile, base, t, ticks);
  }
  return total;
}

namespace {

/// Build-time subscription registry: ids live from their subscribe draw
/// until an unsubscribe draw picks them. Entries carry the tick they
/// were created in so unsubscribes only target earlier-tick ids (a
/// same-tick pair could race across workers and break determinism).
struct SubSchedule {
  std::vector<std::pair<std::string, int64_t>> live;  ///< (id, born tick)
  int64_t next_id = 0;
};

/// Appends one request drawn from `rng` for epoch `tick` to `out`.
void AppendRequest(const LoadgenOptions& options,
                   const std::vector<std::string>& server_ids, Rng* rng,
                   SubSchedule* subs, int64_t tick, int64_t seq,
                   int64_t client, int64_t offset_micros,
                   std::vector<ScheduledRequest>* out) {
  const std::string& server =
      server_ids[static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(server_ids.size()) - 1))];
  const double u = rng->Uniform();
  const double predict_hi = options.predict_fraction;
  const double ll_hi = predict_hi + options.ll_window_fraction;
  const double batch_hi = ll_hi + options.batch_fraction;
  const double subscribe_hi = batch_hi + options.subscribe_fraction;
  ScheduledRequest req;
  req.tick = tick;
  req.seq = seq;
  req.client = client;
  req.offset_micros = offset_micros;
  Json body = Json::MakeObject();
  if (u < predict_hi) {
    req.verb = "predict";
    body["verb"] = "predict";
    body["server_id"] = server;
  } else if (u < ll_hi) {
    req.verb = "ll_window";
    body["verb"] = "ll_window";
    body["server_id"] = server;
    body["duration_minutes"] = 60;
  } else if (u < batch_hi) {
    req.verb = "batch_predict";
    body["verb"] = "predict";
    Json servers = Json::MakeArray();
    servers.Append(Json(server));
    for (int64_t i = 1; i < options.batch_size; ++i) {
      servers.Append(Json(server_ids[static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(server_ids.size()) - 1))]));
    }
    body["servers"] = std::move(servers);
  } else if (u < subscribe_hi) {
    // Count the ids born before this tick (they form a prefix: births
    // arrive in tick order).
    size_t eligible = 0;
    while (eligible < subs->live.size() &&
           subs->live[eligible].second < tick) {
      ++eligible;
    }
    if (eligible > 0 && rng->Uniform() < 0.5) {
      const size_t pick = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(eligible) - 1));
      req.verb = "unsubscribe";
      body["verb"] = "unsubscribe";
      body["id"] = subs->live[pick].first;
      subs->live.erase(subs->live.begin() +
                       static_cast<std::ptrdiff_t>(pick));
    } else {
      std::string id = "lg-sub-" + std::to_string(subs->next_id++);
      req.verb = "subscribe_ll";
      body["verb"] = "subscribe_ll";
      body["id"] = id;
      body["server_id"] = server;
      body["duration_minutes"] = 60;
      subs->live.emplace_back(std::move(id), tick);
    }
  } else {
    req.verb = "ingest";
    body["verb"] = "ingest";
    body["server_id"] = server;
    body["seq"] = seq;
    Json series = Json::MakeObject();
    series["start"] =
        options.epoch_start + tick * kServerIntervalMinutes;
    series["interval"] = kServerIntervalMinutes;
    Json values = Json::MakeArray();
    // On the telemetry data plane's 4-decimal grid, like every stored
    // sample.
    values.Append(QuantizeFixed4(rng->Uniform(0.0, 100.0)));
    series["values"] = std::move(values);
    body["series"] = std::move(series);
  }
  req.body = body.Dump();
  out->push_back(std::move(req));
}

}  // namespace

std::vector<ScheduledRequest> BuildSchedule(
    const LoadgenOptions& options,
    const std::vector<std::string>& server_ids) {
  std::vector<ScheduledRequest> schedule;
  if (server_ids.empty() || options.ticks <= 0) return schedule;
  Rng rng(options.seed);
  SubSchedule subs;
  int64_t seq = 0;
  for (int64_t t = 0; t < options.ticks; ++t) {
    const int64_t per_source = ProfileRequestsAtTick(
        options.profile, options.base_requests_per_tick, t, options.ticks);
    if (options.mode == DriverMode::kOpenLoop) {
      // Fixed arrival schedule: exponential inter-arrival gaps spread
      // over the simulated 5-minute epoch.
      const double mean_gap_micros =
          per_source > 0
              ? static_cast<double>(kServerIntervalMinutes) * 60e6 /
                    static_cast<double>(per_source)
              : 0.0;
      double offset = 0.0;
      for (int64_t i = 0; i < per_source; ++i) {
        offset += rng.Exponential(mean_gap_micros);
        AppendRequest(options, server_ids, &rng, &subs, t, seq++,
                      /*client=*/0, static_cast<int64_t>(offset), &schedule);
      }
    } else {
      // Closed loop: every client issues `per_source` back-to-back
      // requests this epoch; arrival offsets are meaningless (issue
      // time depends on completion), so they stay 0.
      for (int64_t c = 0; c < options.closed_loop_clients; ++c) {
        for (int64_t i = 0; i < per_source; ++i) {
          AppendRequest(options, server_ids, &rng, &subs, t, seq++, c,
                        /*offset_micros=*/0, &schedule);
        }
      }
    }
  }
  return schedule;
}

Json LatencySummary::ToJson() const {
  Json doc = Json::MakeObject();
  doc["count"] = count;
  doc["errors"] = errors;
  doc["p50_micros"] = p50;
  doc["p95_micros"] = p95;
  doc["p99_micros"] = p99;
  return doc;
}

Json LoadgenReport::ToJson() const {
  Json doc = Json::MakeObject();
  doc["profile"] = LoadProfileName(profile);
  doc["mode"] = DriverModeName(mode);
  doc["requests"] = requests;
  doc["ok"] = ok;
  doc["errors"] = errors;
  doc["wall_millis"] = wall_millis;
  doc["throughput_rps"] = throughput_rps;
  doc["predictions"] = predictions;
  doc["prediction_throughput_ps"] = prediction_throughput_ps;
  Json lat = Json::MakeObject();
  for (const auto& [verb, summary] : latency) lat[verb] = summary.ToJson();
  doc["latency_micros"] = std::move(lat);
  Json ticks_doc = Json::MakeObject();
  ticks_doc["ticks"] = ticks;
  ticks_doc["refits"] = refits;
  ticks_doc["refit_failures"] = refit_failures;
  ticks_doc["clean_skips"] = clean_skips;
  ticks_doc["ingests_applied"] = ingests_applied;
  ticks_doc["refit_per_query"] = refit_per_query;
  doc["tick_loop"] = std::move(ticks_doc);
  doc["max_in_flight"] = max_in_flight;
  doc["notifications"] = notifications;
  doc["notify_lag_ticks"] = notify_lag_ticks;
  doc["response_digest"] = StringPrintf("%016llx",
                                        static_cast<unsigned long long>(
                                            response_digest));
  return doc;
}

LoadgenReport RunLoadTest(ServingEngine* engine,
                          const LoadgenOptions& options,
                          const std::vector<ScheduledRequest>& schedule) {
  LoadgenReport report;
  report.profile = options.profile;
  report.mode = options.mode;
  report.requests = static_cast<int64_t>(schedule.size());

  struct Outcome {
    double latency_micros = 0.0;
    bool ok = false;
  };
  std::vector<Outcome> outcomes(schedule.size());
  std::vector<std::string> responses(schedule.size());

  std::unique_ptr<ThreadPool> pool;
  if (options.jobs > 1) pool = std::make_unique<ThreadPool>(options.jobs);

  std::atomic<int64_t> in_flight{0};
  std::atomic<int64_t> max_in_flight{0};
  auto execute = [&](int64_t i) {
    const ScheduledRequest& req = schedule[static_cast<size_t>(i)];
    const int64_t depth = in_flight.fetch_add(1, std::memory_order_acq_rel) + 1;
    int64_t seen = max_in_flight.load(std::memory_order_relaxed);
    while (seen < depth &&
           !max_in_flight.compare_exchange_weak(seen, depth,
                                                std::memory_order_relaxed)) {
    }
    const int64_t t0 = ObsClock::NowMicros();
    std::string response = engine->Handle(req.body);
    Outcome& out = outcomes[static_cast<size_t>(i)];
    out.latency_micros = static_cast<double>(ObsClock::NowMicros() - t0);
    responses[static_cast<size_t>(i)] = std::move(response);
    in_flight.fetch_sub(1, std::memory_order_acq_rel);
  };

  // Every ingest's schedule tick, per server, in seq order — consumed
  // as subscription notifications fire to measure how many ticks an
  // ingested change waited before its window move was reported.
  std::map<std::string, std::vector<int64_t>> ingest_ticks;
  for (const auto& req : schedule) {
    if (req.verb != "ingest") continue;
    auto parsed = Json::Parse(req.body);
    ingest_ticks[(*parsed)["server_id"].AsString()].push_back(req.tick);
  }
  std::map<std::string, size_t> ingest_cursor;
  double lag_sum = 0.0;
  int64_t notify_count = 0;
  uint64_t notify_digest = kFnv1aBasis;

  const int64_t wall_t0 = ObsClock::NowMicros();
  size_t cursor = 0;
  for (int64_t t = 0; t < options.ticks; ++t) {
    const size_t begin = cursor;
    while (cursor < schedule.size() && schedule[cursor].tick == t) ++cursor;
    const int64_t count = static_cast<int64_t>(cursor - begin);
    if (count > 0 && options.mode == DriverMode::kOpenLoop) {
      ParallelFor(pool.get(), count, [&](int64_t i) {
        execute(static_cast<int64_t>(begin) + i);
      });
    } else if (count > 0) {
      // Closed loop: one sequential stream per virtual client. Clients'
      // requests are contiguous within the epoch by construction.
      std::vector<std::pair<size_t, size_t>> clients;
      size_t c0 = begin;
      for (size_t i = begin + 1; i <= static_cast<size_t>(cursor); ++i) {
        if (i == static_cast<size_t>(cursor) ||
            schedule[i].client != schedule[c0].client) {
          clients.emplace_back(c0, i);
          c0 = i;
        }
      }
      auto run_client = [&](int64_t c) {
        const auto [lo, hi] = clients[static_cast<size_t>(c)];
        for (size_t i = lo; i < hi; ++i) {
          execute(static_cast<int64_t>(i));
        }
      };
      ParallelFor(pool.get(), static_cast<int64_t>(clients.size()),
                  run_client, /*grain=*/1);
    }
    TickResult tr = engine->Tick();
    ++report.ticks;
    report.refits += tr.refits;
    report.refit_failures += tr.refit_failures;
    report.clean_skips += tr.clean_skips;
    report.ingests_applied += tr.ingests_applied;
    for (const Notification& n : tr.notifications) {
      ++notify_count;
      const std::string dump = n.ToJson().Dump();
      notify_digest = Fnv1aFold(notify_digest, dump);
      // Consume this server's ingests up to the fire tick; the oldest
      // one consumed bounds how long the move waited to surface. The
      // server's first notification only sets the baseline — it drains
      // the backlog that accumulated before any subscription watched
      // (window moves without a subscriber consume nothing).
      auto it = ingest_ticks.find(n.server_id);
      if (it == ingest_ticks.end()) continue;
      const bool baseline =
          ingest_cursor.find(n.server_id) == ingest_cursor.end();
      size_t& pos = ingest_cursor[n.server_id];
      int64_t oldest = -1;
      while (pos < it->second.size() && it->second[pos] <= t) {
        if (oldest < 0) oldest = it->second[pos];
        ++pos;
      }
      if (!baseline && oldest >= 0) {
        lag_sum += static_cast<double>(t - oldest);
      }
    }
  }
  report.wall_millis =
      static_cast<double>(ObsClock::NowMicros() - wall_t0) / 1000.0;

  // Aggregation in schedule order: deterministic however the requests
  // actually interleaved.
  std::map<std::string, std::vector<double>> samples;
  int64_t queries = 0;
  uint64_t digest = kFnv1aBasis;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const ScheduledRequest& req = schedule[i];
    Outcome& out = outcomes[i];
    auto parsed = Json::Parse(responses[i]);
    out.ok = parsed.ok() && (*parsed)["ok"].is_bool() &&
             (*parsed)["ok"].AsBool();
    LatencySummary& summary = report.latency[req.verb];
    ++summary.count;
    if (out.ok) {
      ++report.ok;
    } else {
      ++report.errors;
      ++summary.errors;
    }
    samples[req.verb].push_back(out.latency_micros);
    if (req.verb != "ingest") ++queries;
    if (req.verb == "predict") {
      ++report.predictions;
    } else if (req.verb == "batch_predict") {
      auto body = Json::Parse(req.body);
      report.predictions +=
          static_cast<int64_t>((*body)["servers"].AsArray().size());
    }
    digest = Fnv1aFold(digest, BytesOf(req.seq));
    digest = Fnv1aFold(digest, responses[i]);
  }
  for (const auto& [verb, verb_samples] : samples) {
    LatencySummary& summary = report.latency[verb];
    summary.p50 = Quantile(verb_samples, 0.5);
    summary.p95 = Quantile(verb_samples, 0.95);
    summary.p99 = Quantile(verb_samples, 0.99);
  }
  report.refit_per_query =
      static_cast<double>(report.refits) /
      static_cast<double>(std::max<int64_t>(1, queries));
  report.max_in_flight = max_in_flight.load(std::memory_order_relaxed);
  report.notifications = notify_count;
  report.notify_lag_ticks =
      notify_count > 0 ? lag_sum / static_cast<double>(notify_count) : 0.0;
  digest = Fnv1aFold(digest, BytesOf(notify_digest));
  report.response_digest = digest;
  report.throughput_rps =
      report.wall_millis > 0.0
          ? static_cast<double>(report.requests) * 1000.0 /
                report.wall_millis
          : 0.0;
  report.prediction_throughput_ps =
      report.wall_millis > 0.0
          ? static_cast<double>(report.predictions) * 1000.0 /
                report.wall_millis
          : 0.0;
  return report;
}

}  // namespace seagull
