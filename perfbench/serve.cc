/// \file serve.cc
/// \brief Serving: `ServingEngine::Handle` driven open-loop at fixed
/// rates with request bodies from `BuildSchedule`, and `Tick()` on its
/// own timer, one tick per schedule epoch; closed-loop capacity runs and
/// a staircase on a fixed rate ladder for `max_rps`.
///
/// Threads: `workers` threads take requests in due order, wait until
/// each is due, and call `Handle`; one thread calls `Tick()`. The engine
/// gets no refit pool, so refits run on the tick thread. Every request is
/// timed from its due time, so a stall shows in the latency of every
/// request queued behind it.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <thread>

#include "forecast/persistent.h"
#include "phases.h"
#include "serving/loadgen.h"

namespace perfbench {

using namespace seagull;

namespace {

/// The fixed open-loop rates, requests/s. Every commit is driven at the
/// same load; these sit near 1/4 and 2/3 of the rate at which predict
/// p99 from due time reached 1 ms when the benchmark was defined (about
/// 1100/s on a 4-vCPU host).
constexpr double kLowRps = 260.0;
constexpr double kHighRps = 700.0;
/// Sizes the closed-loop schedule: more requests than it can serve.
constexpr double kCapacityBoundRps = 10000.0;
/// Requests per schedule epoch: the soak profile's flat rate.
constexpr int64_t kRequestsPerTick = 400;
/// One response in this many is kept and fully parsed after its phase.
constexpr int64_t kSampleEvery = 16;
/// `max_rps` limit: predict p50 from due time.
constexpr double kPredictSloUs = 1000.0;
/// The `max_rps` ladder: fixed rates kLadderBaseRps * kLadderRatio^k.
constexpr double kLadderBaseRps = 1000.0;
constexpr double kLadderRatio = 1.05;
/// The staircase starts at this share of the first capacity run.
constexpr double kLadderStartShare = 0.8;
/// Probes per ladder walk, and probes left out of the estimate while the
/// staircase settles.
constexpr int kProbesPerWalk = 5;
constexpr size_t kStaircaseSettle = 2;
/// Shortest closed-loop run and ladder probe, seconds.
constexpr double kMinLadderSeconds = 0.5;
/// Width of the windows the closed loop's served rate is taken over.
constexpr int64_t kWindowNs = 1000000000;

/// Verbs whose service time the traced run splits out.
const char* const kTracedVerbs[] = {"predict", "batch_predict", "ll_window",
                                    "ingest", "subscribe_ll"};

/// Fleet-wide persistent-prev-day endpoint, the deployed champion.
ModelEndpoint MakeEndpoint() {
  PersistentForecast model(PersistentVariant::kPreviousDay);
  Json body = Json::MakeObject();
  body["family"] = "persistent_prev_day";
  body["version"] = 1;
  Json models = Json::MakeObject();
  models[""] = std::move(model.Serialize()).ValueOrDie();
  body["models"] = std::move(models);
  return std::move(ModelEndpoint::FromVersionDoc(body)).ValueOrDie();
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

void SleepUntilNs(int64_t due_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(due_ns)));
}

/// Outcome class of one response, read without parsing it. Sorted keys
/// put a batch's `"failed":N` right after its epoch.
enum class Outcome : int8_t { kOk, kFailed, kNoWindow };

Outcome Classify(const std::string& verb, const std::string& response) {
  if (verb == "batch_predict") {
    return std::string_view(response).substr(0, 64).find("\"failed\":0,") !=
                   std::string_view::npos
               ? Outcome::kOk
               : Outcome::kFailed;
  }
  if (response.find("\"ok\":true") != std::string::npos) return Outcome::kOk;
  if (verb == "ll_window" &&
      response.find("\"FailedPrecondition\"") != std::string::npos &&
      response.find("covers no complete window") != std::string::npos) {
    return Outcome::kNoWindow;
  }
  return Outcome::kFailed;
}

/// Checks one fully parsed forecast against the request it answers.
bool ForecastLooksRight(const Json& forecast, int64_t horizon_minutes) {
  if (!forecast.is_object() || !forecast["values"].is_array() ||
      !forecast["interval"].is_number() || !forecast["start"].is_number()) {
    return false;
  }
  const int64_t interval = forecast["interval"].AsInt();
  return interval > 0 && static_cast<int64_t>(
                             forecast["values"].AsArray().size()) ==
                             horizon_minutes / interval;
}

}  // namespace

struct ServePhase::PhaseStats {
  int64_t requests = 0;  ///< served
  double served_rps = 0.0;
  std::map<std::string, std::vector<double>> from_due_us;
  std::vector<double> served_per_window;  ///< closed loop: requests/s
  std::vector<double> queue_wait_us;
  std::vector<double> late_us;
  std::vector<double> tick_ms;
  std::map<std::string, double> tick_counts;  ///< summed over ticks
  int64_t pending_peak = 0;
  double predict_bytes = 0.0;  ///< summed over predict responses
  int64_t predicts = 0;
  int64_t failed = 0;
  int64_t no_window = 0;
  bool backlog_grew = false;
  bool ticks_fell_behind = false;
  std::vector<Span> spans;  ///< traced runs: handle and tick spans

  double P(const std::map<std::string, std::vector<double>>& by_verb,
           const std::string& verb, double q) const {
    auto it = by_verb.find(verb);
    return it == by_verb.end() ? 0.0 : Quantile(it->second, q);
  }
  /// Median latency of one verb from due time, microseconds.
  double P50Us(const std::string& verb) const {
    return P(from_due_us, verb, 0.5);
  }
  /// Folds another run at the same rate into this one.
  void Absorb(PhaseStats&& o) {
    auto append = [](auto* to, auto& from) {
      to->insert(to->end(), std::make_move_iterator(from.begin()),
                 std::make_move_iterator(from.end()));
    };
    requests += o.requests;
    for (auto& [verb, v] : o.from_due_us) append(&from_due_us[verb], v);
    append(&queue_wait_us, o.queue_wait_us);
    append(&late_us, o.late_us);
    append(&tick_ms, o.tick_ms);
    append(&spans, o.spans);
    for (const auto& [k, v] : o.tick_counts) tick_counts[k] += v;
    pending_peak = std::max(pending_peak, o.pending_peak);
    predict_bytes += o.predict_bytes;
    predicts += o.predicts;
    failed += o.failed;
    no_window += o.no_window;
    backlog_grew = backlog_grew || o.backlog_grew;
    ticks_fell_behind = ticks_fell_behind || o.ticks_fell_behind;
  }
  bool MeetsSlo() const {
    return P50Us("predict") <= kPredictSloUs && !backlog_grew &&
           !ticks_fell_behind;
  }
};

ServePhase::ServePhase(const ServeSpec& spec, uint64_t seed, int workers,
                       SpanLog* spans)
    : spec_(spec), seed_(seed), workers_(workers), spans_(spans),
      low_(std::make_unique<PhaseStats>()),
      high_(std::make_unique<PhaseStats>()) {}

ServePhase::~ServePhase() = default;

void ServePhase::Setup(SetupTimes* times) {
  int64_t t0 = NowNs();
  // A production-mix region twice the serving size; the engine serves
  // the servers alive through the tail week and the week after it, so
  // every one of them has a forecast to serve.
  RegionConfig config;
  config.name = "serve";
  config.num_servers = 2 * spec_.servers;
  config.weeks = 2;
  config.seed = seed_ * 1000 + 999;
  const Fleet fleet = Fleet::Generate(config);
  const MinuteStamp tail_end = kMinutesPerWeek;
  std::vector<ServerTelemetry> tails;
  for (const ServerProfile& p : fleet.servers()) {
    if (static_cast<int>(tails.size()) >= spec_.servers) break;
    if (p.created_at > 0 || p.deleted_at < 2 * kMinutesPerWeek) continue;
    ServerTelemetry st;
    st.server_id = p.server_id;
    st.load = fleet.ObservedLoad(p, 0, tail_end);
    tails.push_back(std::move(st));
  }
  ids_.clear();
  for (const auto& st : tails) ids_.push_back(st.server_id);
  times->generate_ms += static_cast<double>(NowNs() - t0) / 1e6;

  t0 = NowNs();
  ServingOptions options;
  options.refit_model = spec_.refit_model;
  engine_ = std::make_unique<ServingEngine>(MakeEndpoint(), options);
  engine_->Bootstrap(tails).Abort();
  times->bootstrap_ms += static_cast<double>(NowNs() - t0) / 1e6;

  t0 = NowNs();
  engine_->Tick();
  times->first_tick_ms += static_cast<double>(NowNs() - t0) / 1e6;
  next_epoch_start_ = tail_end;
}

ServePhase::PhaseStats ServePhase::RunAtRate(double rps, double seconds,
                                             uint64_t schedule_seed,
                                             Report* report, bool closed) {
  LoadgenOptions options;
  options.profile = LoadProfile::kSoak;
  options.mode = DriverMode::kOpenLoop;
  options.seed = schedule_seed;
  options.base_requests_per_tick = kRequestsPerTick;
  options.ticks = std::max<int64_t>(
      1, std::llround(seconds * rps / static_cast<double>(kRequestsPerTick)));
  // Today's bench/loadgen production mix; the remainder is ingest.
  options.predict_fraction = 0.5;
  options.ll_window_fraction = 0.2;
  options.batch_fraction = 0.08;
  options.batch_size = 16;
  options.subscribe_fraction = 0.05;
  options.epoch_start = next_epoch_start_;
  const std::vector<ScheduledRequest> schedule = BuildSchedule(options, ids_);
  const size_t n = schedule.size();

  std::vector<int64_t> claim_ns(n), start_ns(n), end_ns(n, 0);
  std::vector<Outcome> outcome(n, Outcome::kOk);
  std::vector<int64_t> resp_bytes(n, 0);
  std::vector<std::string> kept(n);

  const double gap_ns = 1e9 / rps;
  const double period_ns = gap_ns * static_cast<double>(kRequestsPerTick);
  const int64_t t0 = NowNs() + 2000000;
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  // Closed loop: every request is due at t0, so the workers run back to
  // back until the deadline.
  auto due = [&](size_t i) {
    return closed ? t0
                  : t0 + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
  };
  std::atomic<int64_t> completed{0};

  // Each worker claims the next request in due order and spins until it
  // is due. No load thread sleeps while requests are in flight:
  // on a virtual CPU a sleeping thread can wake tens of microseconds to
  // milliseconds late, which would read as queueing the engine did not
  // cause. No separate generator thread competes with the workers.
  std::atomic<int64_t> next{0};
  std::vector<std::vector<Span>> worker_spans(static_cast<size_t>(workers_));
  std::vector<std::thread> workers;
  for (int w = 0; w < workers_; ++w) {
    workers.emplace_back([&, w] {
      for (int64_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < static_cast<int64_t>(n);
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        const size_t k = static_cast<size_t>(i);
        const ScheduledRequest& req = schedule[k];
        claim_ns[k] = NowNs();
        while (NowNs() < due(k)) CpuRelax();
        start_ns[k] = NowNs();
        if (closed && start_ns[k] >= deadline) break;
        std::string response = engine_->Handle(req.body);
        end_ns[k] = NowNs();
        outcome[k] = Classify(req.verb, response);
        resp_bytes[k] = static_cast<int64_t>(response.size());
        if (spans_->enabled()) {
          worker_spans[static_cast<size_t>(w)].push_back(
              {"serving.handle." + req.verb, start_ns[k], end_ns[k]});
        }
        if (i % kSampleEvery == 0) kept[k] = std::move(response);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  PhaseStats stats;
  std::thread ticker([&] {
    for (int64_t k = 0; k < options.ticks; ++k) {
      int64_t fire =
          t0 + static_cast<int64_t>(static_cast<double>(k + 1) * period_ns);
      if (closed) {
        // One tick per epoch of completed requests.
        const int64_t target = (k + 1) * kRequestsPerTick;
        while (completed.load(std::memory_order_relaxed) < target &&
               NowNs() < deadline) {
          SleepUntilNs(NowNs() + 200000);
        }
        if (NowNs() >= deadline) break;
        fire = NowNs();
      } else {
        SleepUntilNs(fire);
      }
      stats.pending_peak =
          std::max(stats.pending_peak, engine_->pending_ingests());
      const int64_t s = NowNs();
      if (k + 1 == options.ticks &&
          s - fire > static_cast<int64_t>(period_ns)) {
        stats.ticks_fell_behind = true;
      }
      TickResult tr = engine_->Tick();
      const int64_t e = NowNs();
      stats.tick_ms.push_back(static_cast<double>(e - s) / 1e6);
      if (spans_->enabled()) stats.spans.push_back({"serving.tick", s, e});
      stats.tick_counts["refits"] += static_cast<double>(tr.refits);
      stats.tick_counts["clean_skips"] += static_cast<double>(tr.clean_skips);
      stats.tick_counts["ingests_applied"] +=
          static_cast<double>(tr.ingests_applied);
      stats.tick_counts["notifications"] +=
          static_cast<double>(tr.notifications.size());
      stats.tick_counts["batch_groups"] += static_cast<double>(tr.batch_groups);
      if (tr.refit_failures > 0) {
        report->Fail("tick kept stale forecasts after refit failures");
      }
    }
  });

  for (auto& t : workers) t.join();
  ticker.join();

  for (auto& spans : worker_spans) {
    stats.spans.insert(stats.spans.end(), spans.begin(), spans.end());
  }

  // Aggregation and output checks, outside the timed region.
  std::vector<double> early_wait, late_wait;
  auto us = [](int64_t ns) { return static_cast<double>(ns) / 1e3; };
  int64_t last_end = t0;
  for (size_t i = 0; i < n; ++i) {
    if (end_ns[i] == 0) continue;  // closed loop: past the deadline
    ++stats.requests;
    last_end = std::max(last_end, end_ns[i]);
    const ScheduledRequest& req = schedule[i];
    const int64_t d = due(i);
    stats.from_due_us[req.verb].push_back(us(end_ns[i] - d));
    if (closed) {
      const size_t w = static_cast<size_t>((end_ns[i] - t0) / kWindowNs);
      if (stats.served_per_window.size() <= w) {
        stats.served_per_window.resize(w + 1);
      }
      stats.served_per_window[w] += 1e9 / static_cast<double>(kWindowNs);
    }
    stats.queue_wait_us.push_back(us(start_ns[i] - d));
    // The load generator's own lateness: a request an idle worker was already
    // waiting for should start at its due time.
    if (claim_ns[i] < d) stats.late_us.push_back(us(start_ns[i] - d));
    if (i < n / 4) early_wait.push_back(us(start_ns[i] - d));
    if (i >= n - n / 4) late_wait.push_back(us(start_ns[i] - d));
    if (outcome[i] == Outcome::kFailed) ++stats.failed;
    if (outcome[i] == Outcome::kNoWindow) ++stats.no_window;
    if (req.verb == "predict") {
      stats.predict_bytes += static_cast<double>(resp_bytes[i]);
      ++stats.predicts;
    }
  }
  stats.served_rps = static_cast<double>(stats.requests) /
                     std::max(1e-9, static_cast<double>(last_end - t0) / 1e9);
  // Closed loop: drop the partial window the deadline cuts.
  stats.served_per_window.resize(std::min(
      stats.served_per_window.size(),
      static_cast<size_t>((deadline - t0) / kWindowNs)));
  // A backlog that grows shows as queue waits rising across the phase;
  // medians, so one scheduler stall does not read as a backlog.
  stats.backlog_grew =
      !closed && Median(late_wait) > 2.0 * Median(early_wait) + 200.0;

  const int64_t horizon = engine_->options().horizon_minutes;
  std::map<std::pair<std::string, int64_t>, std::string> seen;
  auto check_consistent = [&](const std::string& server, int64_t epoch,
                              const Json& forecast) {
    auto [it, fresh] = seen.emplace(std::make_pair(server, epoch),
                                    forecast.Dump());
    if (!fresh && it->second != forecast.Dump()) {
      report->Fail("two forecasts for " + server + " at one epoch differ");
    }
  };
  for (size_t i = 0; i < n; ++i) {
    if (kept[i].empty()) continue;
    const ScheduledRequest& req = schedule[i];
    auto parsed = Json::Parse(kept[i]);
    if (!parsed.ok() || !(*parsed)["ok"].is_bool()) {
      report->Fail("unparseable " + req.verb + " response");
      continue;
    }
    const Json& doc = *parsed;
    if (!doc["ok"].AsBool()) continue;  // tallied by Classify
    const Json request = std::move(Json::Parse(req.body)).ValueOrDie();
    const int64_t epoch = doc["epoch"].is_number() ? doc["epoch"].AsInt() : -1;
    if (req.verb == "predict") {
      if (epoch < 1 || !ForecastLooksRight(doc["forecast"], horizon)) {
        report->Fail("predict response lacks an epoch or a full forecast");
        continue;
      }
      check_consistent(request["server_id"].AsString(), epoch,
                       doc["forecast"]);
    } else if (req.verb == "batch_predict") {
      const auto& asked = request["servers"].AsArray();
      const Json& results = doc["results"];
      if (epoch < 1 || !results.is_array() ||
          results.AsArray().size() != asked.size()) {
        report->Fail("batch response does not answer every server");
        continue;
      }
      for (size_t j = 0; j < asked.size(); ++j) {
        const Json& entry = results.AsArray()[j];
        if (entry["server_id"].AsString() != asked[j].AsString() ||
            !ForecastLooksRight(entry["forecast"], horizon)) {
          report->Fail("batch entry answers the wrong server");
          break;
        }
        check_consistent(asked[j].AsString(), epoch, entry["forecast"]);
      }
    } else if (req.verb == "ll_window") {
      if (epoch < 1 || !doc["window"].is_object()) {
        report->Fail("ll_window response lacks its window");
      }
    }
  }

  next_epoch_start_ += options.ticks * kServerIntervalMinutes;
  report->attempted += stats.requests;
  report->failed += stats.failed;
  return stats;
}

void ServePhase::RunFixedRates(double seconds, Report* report) {
  // `high` gets the larger share: its metrics split its requests by verb.
  const uint64_t base = seed_ * 31 + 20 + 10 * static_cast<uint64_t>(slices_++);
  low_->Absorb(RunAtRate(kLowRps, seconds * 0.4, base + 1, report));
  high_->Absorb(RunAtRate(kHighRps, seconds * 0.6, base + 2, report));
}

void ServePhase::RunLadder(double capacity_seconds, double probe_seconds,
                           Report* report) {
  // A closed loop (workers back to back, ticks once per 400 completed
  // requests) measures capacity as its median per-window served rate.
  // The open loop then runs an up-down staircase on the fixed ladder:
  // one rung up after a probe that meets the limit, one down after a
  // miss. The first walk starts at the rung below 80% of capacity; the
  // second continues from where the first stopped.
  capacity_seconds = std::max(kMinLadderSeconds, capacity_seconds);
  probe_seconds = std::max(kMinLadderSeconds, probe_seconds);
  const uint64_t base =
      seed_ * 31 + 200 + 20 * static_cast<uint64_t>(capacity_rps_.size());
  const PhaseStats capacity =
      RunAtRate(kCapacityBoundRps, capacity_seconds, base, report, true);
  ladder_no_window_ += capacity.no_window;
  capacity_rps_.push_back(capacity.served_per_window.empty()
                              ? capacity.served_rps
                              : Median(capacity.served_per_window));
  if (ladder_rates_.empty()) {
    rung_ = std::max(0, static_cast<int>(std::floor(
                            std::log(capacity_rps_.back() * kLadderStartShare /
                                     kLadderBaseRps) /
                            std::log(kLadderRatio))));
  }
  std::printf("max_rps ladder (capacity %.0f/s):", capacity_rps_.back());
  for (int i = 0; i < kProbesPerWalk; ++i) {
    const double rate = kLadderBaseRps * std::pow(kLadderRatio, rung_);
    const PhaseStats p = RunAtRate(rate, probe_seconds,
                                   base + 1 + static_cast<uint64_t>(i), report);
    ladder_no_window_ += p.no_window;
    const bool met = p.MeetsSlo();
    std::printf(" %.0f/s p50 %.0f us%s%s%s", rate, p.P50Us("predict"),
                p.backlog_grew ? " backlog" : "",
                p.ticks_fell_behind ? " ticks-behind" : "", met ? "" : " miss");
    ladder_rates_.push_back(rate);
    ladder_met_ += met ? 1 : 0;
    rung_ = std::max(0, rung_ + (met ? 1 : -1));
  }
  std::printf("\n");
}

void ServePhase::Finish(Report* report) {
  const PhaseStats& low = *low_;
  const PhaseStats& high = *high_;
  report->E2e("predict_p50_us_low", low.P50Us("predict"), "us");
  report->E2e("predict_p50_us_high", high.P50Us("predict"), "us");
  report->E2e("batch_p50_us_high", high.P50Us("batch_predict"), "us");
  report->E2e("ll_window_p50_us_high", high.P50Us("ll_window"), "us");
  report->E2e("tick_p50_ms_high", Median(high.tick_ms), "ms");
  // The staircase settles around the rate at which the limit is met in
  // half the probes; its estimate is the mean rate after the first
  // kStaircaseSettle probes.
  if (ladder_met_ == 0) report->Fail("no ladder probe met the max_rps limit");
  report->E2e("max_rps",
              Mean(std::vector<double>(
                  ladder_rates_.begin() +
                      std::min<size_t>(kStaircaseSettle, ladder_rates_.size()),
                  ladder_rates_.end())),
              "1/s");

  // Tail latencies from due time. They are per-layer, not end-to-end:
  // on a shared virtual host a few scheduler stalls move a p99 by
  // several times between runs.
  report->Layer("latency.predict.p99_us.low",
                low.P(low.from_due_us, "predict", 0.99), "us");
  report->Layer("latency.predict.p99_us.high",
                high.P(high.from_due_us, "predict", 0.99), "us");
  report->Layer("latency.batch_predict.p99_us.high",
                high.P(high.from_due_us, "batch_predict", 0.99), "us");
  report->Layer(
      "serving.ll_window.no_window",
      static_cast<double>(ladder_no_window_ + low.no_window + high.no_window),
      "count");
  report->Layer("loadgen.capacity_rps", Median(capacity_rps_), "1/s");
  report->Layer("loadgen.late_us.p99.low", Quantile(low.late_us, 0.99), "us");
  report->Layer("loadgen.late_us.p99.high", Quantile(high.late_us, 0.99), "us");
  report->Layer("loadgen.queue_wait_us.p99", Quantile(high.queue_wait_us, 0.99),
                "us");
  report->Layer("serving.predict.resp_bytes",
                high.predict_bytes /
                    static_cast<double>(std::max<int64_t>(1, high.predicts)),
                "bytes");
  report->Layer("serving.pending_peak", static_cast<double>(high.pending_peak),
                "count");
  const double ticks =
      static_cast<double>(std::max<size_t>(1, high.tick_ms.size()));
  for (const auto& [name, sum] : high.tick_counts) {
    report->Layer("serving.tick." + name, sum / ticks, "count");
  }
  if (!spans_->enabled()) return;

  // Per-layer split of the high-rate phase from its spans.
  for (const char* verb : kTracedVerbs) {
    std::vector<double> us;
    const std::string name = std::string("serving.handle.") + verb;
    for (double ms : DurationsMs(high.spans, name)) {
      us.push_back(ms * 1e3);
    }
    report->Layer(name + ".us.p50", Quantile(us, 0.5), "us");
    report->Layer(name + ".us.p99", Quantile(us, 0.99), "us");
  }
  const std::vector<double> tick_ms = DurationsMs(high.spans, "serving.tick");
  report->Layer("serving.tick.ms.p50", Quantile(tick_ms, 0.5), "ms");
  report->Layer("serving.tick.ms.p99", Quantile(tick_ms, 0.99), "ms");
}

}  // namespace perfbench
