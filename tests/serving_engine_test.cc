#include "serving/engine.h"

#include <gtest/gtest.h>

#include <thread>

#include "serving_test_util.h"

namespace seagull {
namespace {

/// Parses a handler response, asserting it is valid JSON.
Json MustParse(const std::string& text) {
  auto parsed = Json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.ok() ? *parsed : Json();
}

std::string PredictRequest(const std::string& server_id) {
  Json doc = Json::MakeObject();
  doc["verb"] = "predict";
  doc["server_id"] = server_id;
  return doc.Dump();
}

std::string IngestRequest(const std::string& server_id, int64_t seq,
                          const LoadSeries& increment) {
  Json doc = Json::MakeObject();
  doc["verb"] = "ingest";
  doc["server_id"] = server_id;
  doc["seq"] = seq;
  doc["series"] = SeriesToJson(increment);
  return doc.Dump();
}

/// One 5-minute sample extending a tail that ends at `start`.
LoadSeries OneSample(MinuteStamp start, double value) {
  return std::move(LoadSeries::Make(start, 5, {value})).ValueOrDie();
}

class ServingEngineTest : public ::testing::Test {
 protected:
  ServingEngineTest() : engine_(MakePrevDayEndpoint()) {}

  void BootstrapThree() {
    std::vector<ServerTelemetry> fleet;
    fleet.push_back(MakeTail("srv-a", DayOfLoad()));
    fleet.push_back(MakeTail("srv-b", DayOfLoad()));
    fleet.push_back(MakeTail("srv-c", DayOfLoad()));
    ASSERT_TRUE(engine_.Bootstrap(fleet).ok());
  }

  ServingEngine engine_;
};

TEST_F(ServingEngineTest, BootstrapAndFirstTick) {
  BootstrapThree();
  EXPECT_EQ(engine_.server_count(), 3);

  // Before the first tick there is no forecast to serve.
  Json early = MustParse(engine_.Handle(PredictRequest("srv-a")));
  EXPECT_FALSE(early["ok"].AsBool());
  EXPECT_EQ(early["code"].AsString(), "FailedPrecondition");

  TickResult tick = engine_.Tick();
  EXPECT_EQ(tick.tick, 1);
  EXPECT_EQ(tick.refits, 3);
  EXPECT_EQ(tick.refit_failures, 0);
  EXPECT_EQ(tick.clean_skips, 0);

  // The cached forecast replicates the previous day from the tail's end.
  Json response = MustParse(engine_.Handle(PredictRequest("srv-a")));
  ASSERT_TRUE(response["ok"].AsBool());
  EXPECT_EQ(response["model_version"].AsInt(), 7);
  EXPECT_EQ(response["tick"].AsInt(), 1);
  auto forecast = SeriesFromJson(response["forecast"]);
  ASSERT_TRUE(forecast.ok());
  EXPECT_EQ(forecast->start(), kMinutesPerDay);
  EXPECT_EQ(forecast->size(), 288);
  EXPECT_DOUBLE_EQ(forecast->ValueAt(0), 5.0);
  EXPECT_DOUBLE_EQ(forecast->ValueAt(100), 40.0);
}

TEST_F(ServingEngineTest, DirtySetTracking) {
  BootstrapThree();
  engine_.Tick();

  // Nothing changed: the second tick refits nobody.
  TickResult idle = engine_.Tick();
  EXPECT_EQ(idle.refits, 0);
  EXPECT_EQ(idle.clean_skips, 3);

  // One ingest dirties exactly one server.
  Json ack = MustParse(engine_.Handle(
      IngestRequest("srv-a", 0, OneSample(kMinutesPerDay, 12.5))));
  ASSERT_TRUE(ack["ok"].AsBool());
  EXPECT_EQ(engine_.pending_ingests(), 1);

  const std::string untouched_before = engine_.Handle(PredictRequest("srv-b"));
  TickResult tick = engine_.Tick();
  EXPECT_EQ(tick.ingests_applied, 1);
  EXPECT_EQ(tick.refits, 1);
  EXPECT_EQ(tick.clean_skips, 2);
  EXPECT_EQ(engine_.pending_ingests(), 0);

  // The dirty server re-forecast on this tick; the clean one still
  // serves the forecast installed by tick 1, byte for byte — only the
  // response's epoch stamp advances with the snapshot that answered.
  Json refreshed = MustParse(engine_.Handle(PredictRequest("srv-a")));
  EXPECT_EQ(refreshed["tick"].AsInt(), 3);
  Json stale_before = MustParse(untouched_before);
  Json stale_after = MustParse(engine_.Handle(PredictRequest("srv-b")));
  EXPECT_EQ(stale_after["forecast"].Dump(), stale_before["forecast"].Dump());
  EXPECT_EQ(stale_after["tick"].AsInt(), stale_before["tick"].AsInt());
  EXPECT_EQ(stale_before["epoch"].AsInt(), 2);
  EXPECT_EQ(stale_after["epoch"].AsInt(), 3);
}

TEST_F(ServingEngineTest, StaleReadsBetweenTicks) {
  BootstrapThree();
  engine_.Tick();

  // An ingest only enqueues: queries keep observing the last tick's
  // forecast until the next tick applies the increment.
  const std::string before = engine_.Handle(PredictRequest("srv-a"));
  engine_.Handle(IngestRequest("srv-a", 0, OneSample(kMinutesPerDay, 99.0)));
  EXPECT_EQ(engine_.Handle(PredictRequest("srv-a")), before);
  EXPECT_EQ(engine_.pending_ingests(), 1);

  engine_.Tick();
  const std::string after = engine_.Handle(PredictRequest("srv-a"));
  EXPECT_NE(after, before);  // refit moved the forecast window forward
  EXPECT_EQ(MustParse(after)["tick"].AsInt(), 2);
}

TEST_F(ServingEngineTest, UnknownServerStructuredErrors) {
  BootstrapThree();
  engine_.Tick();
  for (const char* verb : {"predict", "ll_window"}) {
    Json doc = Json::MakeObject();
    doc["verb"] = verb;
    doc["server_id"] = "ghost";
    Json response = MustParse(engine_.Handle(doc.Dump()));
    EXPECT_FALSE(response["ok"].AsBool());
    EXPECT_EQ(response["code"].AsString(), "NotFound") << verb;
  }
  EXPECT_EQ(engine_.requests_failed(), 2);
}

TEST_F(ServingEngineTest, MalformedAndUnknownVerbs) {
  Json r1 = MustParse(engine_.Handle("not json at all"));
  EXPECT_FALSE(r1["ok"].AsBool());
  EXPECT_EQ(r1["code"].AsString(), "Invalid");

  Json doc = Json::MakeObject();
  doc["verb"] = "explode";
  doc["server_id"] = "srv-a";
  Json r2 = MustParse(engine_.Handle(doc.Dump()));
  EXPECT_FALSE(r2["ok"].AsBool());
  EXPECT_EQ(r2["code"].AsString(), "Invalid");
  EXPECT_EQ(engine_.requests_failed(), 2);
  EXPECT_EQ(engine_.requests_served(), 0);
}

TEST_F(ServingEngineTest, IngestAutoRegistersNewServers) {
  BootstrapThree();
  engine_.Tick();
  Json ack = MustParse(
      engine_.Handle(IngestRequest("srv-new", 0, DayOfLoad())));
  ASSERT_TRUE(ack["ok"].AsBool());
  EXPECT_EQ(engine_.server_count(), 4);

  TickResult tick = engine_.Tick();
  EXPECT_EQ(tick.refits, 1);
  Json response = MustParse(engine_.Handle(PredictRequest("srv-new")));
  EXPECT_TRUE(response["ok"].AsBool());
}

TEST_F(ServingEngineTest, IngestValidation) {
  BootstrapThree();
  // Interval mismatch with the server's 5-minute grid.
  Json bad = MustParse(engine_.Handle(IngestRequest(
      "srv-a", 0,
      std::move(LoadSeries::Make(kMinutesPerDay, 10, {1.0})).ValueOrDie())));
  EXPECT_FALSE(bad["ok"].AsBool());
  EXPECT_EQ(bad["code"].AsString(), "Invalid");

  // No series object at all.
  Json doc = Json::MakeObject();
  doc["verb"] = "ingest";
  doc["server_id"] = "srv-a";
  Json no_series = MustParse(engine_.Handle(doc.Dump()));
  EXPECT_FALSE(no_series["ok"].AsBool());

  // Increments more than tail_cap_minutes away from the tail's end
  // would make the next tick's merge allocate the whole gap.
  const Json before = MustParse(engine_.SnapshotText());
  for (MinuteStamp start :
       {MinuteStamp{900000000000}, MinuteStamp{-100 * kMinutesPerDay}}) {
    Json far = MustParse(
        engine_.Handle(IngestRequest("srv-a", 1, OneSample(start, 1.0))));
    EXPECT_FALSE(far["ok"].AsBool()) << start;
    EXPECT_EQ(far["code"].AsString(), "OutOfRange") << start;
  }
  EXPECT_EQ(engine_.pending_ingests(), 0);
  const TickResult tick = engine_.Tick();
  EXPECT_EQ(tick.ingests_applied, 0);
  const Json after = MustParse(engine_.SnapshotText());
  EXPECT_EQ(after["servers"]["srv-a"]["tail"].Dump(),
            before["servers"]["srv-a"]["tail"].Dump());

  // A server with no tail yet is anchored by its first pending
  // increment.
  EXPECT_TRUE(MustParse(engine_.Handle(IngestRequest(
      "srv-new", 1, OneSample(900000000000, 1.0))))["ok"].AsBool());
  Json far_from_pending = MustParse(
      engine_.Handle(IngestRequest("srv-new", 2, OneSample(0, 1.0))));
  EXPECT_EQ(far_from_pending["code"].AsString(), "OutOfRange");
  EXPECT_EQ(engine_.pending_ingests(), 1);
}

TEST_F(ServingEngineTest, PredictSliceAndLLWindow) {
  BootstrapThree();
  engine_.Tick();

  // Slice the cached forecast to the valley only.
  Json doc = Json::MakeObject();
  doc["verb"] = "predict";
  doc["server_id"] = "srv-a";
  doc["start"] = kMinutesPerDay;
  doc["horizon_minutes"] = 240;
  Json sliced = MustParse(engine_.Handle(doc.Dump()));
  ASSERT_TRUE(sliced["ok"].AsBool());
  auto forecast = SeriesFromJson(sliced["forecast"]);
  ASSERT_TRUE(forecast.ok());
  EXPECT_EQ(forecast->size(), 48);
  EXPECT_DOUBLE_EQ(forecast->ValueAt(47), 5.0);

  // A slice outside the cached range is a structured error.
  doc["start"] = 10 * kMinutesPerDay;
  Json outside = MustParse(engine_.Handle(doc.Dump()));
  EXPECT_FALSE(outside["ok"].AsBool());
  EXPECT_EQ(outside["code"].AsString(), "FailedPrecondition");

  // The lowest-load window lands in the replicated valley.
  Json ll = Json::MakeObject();
  ll["verb"] = "ll_window";
  ll["server_id"] = "srv-a";
  Json window = MustParse(engine_.Handle(ll.Dump()));
  ASSERT_TRUE(window["ok"].AsBool());
  EXPECT_DOUBLE_EQ(window["window"]["average_load"].AsDouble(), 5.0);
  EXPECT_LT(window["window"]["start"].AsInt(), kMinutesPerDay + 240);
  EXPECT_EQ(window["window"]["duration_minutes"].AsInt(), 60);

  ll["duration_minutes"] = -5;
  Json bad = MustParse(engine_.Handle(ll.Dump()));
  EXPECT_FALSE(bad["ok"].AsBool());
  EXPECT_EQ(bad["code"].AsString(), "Invalid");
}

std::string BatchPredictRequest(const std::vector<std::string>& servers) {
  Json doc = Json::MakeObject();
  doc["verb"] = "predict";
  Json list = Json::MakeArray();
  for (const auto& id : servers) list.Append(Json(id));
  doc["servers"] = std::move(list);
  return doc.Dump();
}

std::string SubscribeRequest(const std::string& id,
                             const std::string& server_id) {
  Json doc = Json::MakeObject();
  doc["verb"] = "subscribe_ll";
  doc["id"] = id;
  doc["server_id"] = server_id;
  return doc.Dump();
}

TEST_F(ServingEngineTest, BatchPredictOneSnapshot) {
  BootstrapThree();
  engine_.Tick();

  Json response =
      MustParse(engine_.Handle(BatchPredictRequest({"srv-a", "srv-b"})));
  ASSERT_TRUE(response["ok"].AsBool());
  EXPECT_EQ(response["epoch"].AsInt(), 1);
  EXPECT_EQ(response["served"].AsInt(), 2);
  EXPECT_EQ(response["failed"].AsInt(), 0);
  const auto& results = response["results"].AsArray();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0]["server_id"].AsString(), "srv-a");
  EXPECT_EQ(results[1]["server_id"].AsString(), "srv-b");
  EXPECT_TRUE(results[0]["ok"].AsBool());
  // The whole batch is one request for accounting purposes.
  EXPECT_EQ(engine_.requests_served(), 1);
}

TEST_F(ServingEngineTest, BatchPredictDuplicateIds) {
  BootstrapThree();
  engine_.Tick();
  // Duplicates are answered independently — and identically, because
  // both entries read the same snapshot.
  Json response =
      MustParse(engine_.Handle(BatchPredictRequest({"srv-a", "srv-a"})));
  ASSERT_TRUE(response["ok"].AsBool());
  const auto& results = response["results"].AsArray();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].Dump(), results[1].Dump());
}

TEST_F(ServingEngineTest, BatchPredictUnknownMixedWithKnown) {
  BootstrapThree();
  engine_.Tick();
  Json response = MustParse(
      engine_.Handle(BatchPredictRequest({"srv-a", "ghost", "srv-c"})));
  // Per-server failures do not fail the batch.
  ASSERT_TRUE(response["ok"].AsBool());
  EXPECT_EQ(response["served"].AsInt(), 2);
  EXPECT_EQ(response["failed"].AsInt(), 1);
  const auto& results = response["results"].AsArray();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0]["ok"].AsBool());
  EXPECT_FALSE(results[1]["ok"].AsBool());
  EXPECT_EQ(results[1]["server_id"].AsString(), "ghost");
  EXPECT_EQ(results[1]["code"].AsString(), "NotFound");
  EXPECT_TRUE(results[2]["ok"].AsBool());
  EXPECT_EQ(engine_.requests_failed(), 0);
}

TEST_F(ServingEngineTest, BatchPredictValidation) {
  BootstrapThree();
  engine_.Tick();
  // An empty batch is a request-level error.
  Json empty = MustParse(engine_.Handle(BatchPredictRequest({})));
  EXPECT_FALSE(empty["ok"].AsBool());
  EXPECT_EQ(empty["code"].AsString(), "Invalid");

  // Oversized batches are rejected whole (engine with a tiny cap).
  ServingOptions options;
  options.max_batch_servers = 2;
  ServingEngine small(MakePrevDayEndpoint(), options);
  std::vector<ServerTelemetry> fleet;
  fleet.push_back(MakeTail("srv-a", DayOfLoad()));
  ASSERT_TRUE(small.Bootstrap(fleet).ok());
  small.Tick();
  Json over = MustParse(
      small.Handle(BatchPredictRequest({"srv-a", "srv-a", "srv-a"})));
  EXPECT_FALSE(over["ok"].AsBool());
  EXPECT_EQ(over["code"].AsString(), "Invalid");
}

TEST_F(ServingEngineTest, SubscriptionFiresOncePerWindowMove) {
  BootstrapThree();
  engine_.Tick();

  Json ack = MustParse(engine_.Handle(SubscribeRequest("watch-a", "srv-a")));
  ASSERT_TRUE(ack["ok"].AsBool());
  EXPECT_TRUE(ack["armed"].AsBool());  // forecast published → armed at once
  EXPECT_EQ(engine_.subscription_count(), 1);
  const int64_t armed_start = ack["window"]["start"].AsInt();

  // A clean tick refits nothing, so the window cannot move.
  EXPECT_TRUE(engine_.Tick().notifications.empty());

  // An ingest slides the tail (and so the replicated forecast) forward
  // 5 minutes: the lowest-load window moves, firing exactly one record.
  engine_.Handle(IngestRequest("srv-a", 0, OneSample(kMinutesPerDay, 40.0)));
  TickResult moved = engine_.Tick();
  ASSERT_EQ(moved.notifications.size(), 1u);
  EXPECT_EQ(moved.notifications[0].subscription_id, "watch-a");
  EXPECT_EQ(moved.notifications[0].server_id, "srv-a");
  EXPECT_EQ(moved.notifications[0].previous_start, armed_start);
  EXPECT_EQ(moved.notifications[0].window.start, armed_start + 5);
  EXPECT_EQ(moved.notifications[0].tick, 3);

  // No further movement, no further records — even across refits of
  // other servers.
  engine_.Handle(IngestRequest("srv-b", 0, OneSample(kMinutesPerDay, 1.0)));
  EXPECT_TRUE(engine_.Tick().notifications.empty());
  EXPECT_TRUE(engine_.Tick().notifications.empty());
}

TEST_F(ServingEngineTest, SubscribeBeforeFirstTickArmsSilently) {
  BootstrapThree();
  // No forecast yet: the subscription registers unarmed.
  Json ack = MustParse(engine_.Handle(SubscribeRequest("early", "srv-a")));
  ASSERT_TRUE(ack["ok"].AsBool());
  EXPECT_FALSE(ack["armed"].AsBool());

  // The first window the subscription observes arms it without firing.
  EXPECT_TRUE(engine_.Tick().notifications.empty());

  // Unknown servers cannot be subscribed to at all.
  Json ghost = MustParse(engine_.Handle(SubscribeRequest("g", "ghost")));
  EXPECT_FALSE(ghost["ok"].AsBool());
  EXPECT_EQ(ghost["code"].AsString(), "NotFound");
}

TEST_F(ServingEngineTest, UnsubscribeStopsRecordsAndRacesTick) {
  BootstrapThree();
  engine_.Tick();
  engine_.Handle(SubscribeRequest("watch-a", "srv-a"));

  // Removing the subscription before the window moves silences it.
  Json doc = Json::MakeObject();
  doc["verb"] = "unsubscribe";
  doc["id"] = "watch-a";
  Json ack = MustParse(engine_.Handle(doc.Dump()));
  ASSERT_TRUE(ack["ok"].AsBool());
  EXPECT_EQ(engine_.subscription_count(), 0);
  engine_.Handle(IngestRequest("srv-a", 0, OneSample(kMinutesPerDay, 40.0)));
  EXPECT_TRUE(engine_.Tick().notifications.empty());

  // Unknown ids are structured NotFound errors.
  Json missing = MustParse(engine_.Handle(doc.Dump()));
  EXPECT_FALSE(missing["ok"].AsBool());
  EXPECT_EQ(missing["code"].AsString(), "NotFound");

  // A tick may run concurrently with (un)subscribes: exercise the race
  // a few times — the subscription either sees the tick or it doesn't,
  // but the engine must stay consistent either way.
  for (int round = 0; round < 8; ++round) {
    engine_.Handle(SubscribeRequest("racer", "srv-a"));
    engine_.Handle(IngestRequest("srv-a", round + 1,
                                 OneSample(kMinutesPerDay + 5 * (round + 1),
                                           40.0)));
    std::thread ticker([&] { engine_.Tick(); });
    Json gone = MustParse(engine_.Handle(
        std::string("{\"verb\":\"unsubscribe\",\"id\":\"racer\"}")));
    EXPECT_TRUE(gone["ok"].AsBool());
    ticker.join();
    EXPECT_EQ(engine_.subscription_count(), 0);
  }
}

TEST_F(ServingEngineTest, SeqOrderControlsMergeNotArrival) {
  BootstrapThree();
  engine_.Tick();
  // Two increments for the same slot arrive out of seq order; the
  // higher seq must win the merge regardless of arrival order.
  engine_.Handle(IngestRequest("srv-a", 5, OneSample(kMinutesPerDay, 70.0)));
  engine_.Handle(IngestRequest("srv-a", 2, OneSample(kMinutesPerDay, 30.0)));
  TickResult tick = engine_.Tick();
  EXPECT_EQ(tick.ingests_applied, 2);

  Json doc = Json::MakeObject();
  doc["verb"] = "predict";
  doc["server_id"] = "srv-a";
  doc["start"] = 2 * kMinutesPerDay;
  doc["horizon_minutes"] = 5;
  Json response = MustParse(engine_.Handle(doc.Dump()));
  ASSERT_TRUE(response["ok"].AsBool());
  auto forecast = SeriesFromJson(response["forecast"]);
  ASSERT_TRUE(forecast.ok());
  // Prev-day forecast of the slot one day after the merged sample.
  EXPECT_DOUBLE_EQ(forecast->ValueAt(0), 70.0);
}

}  // namespace
}  // namespace seagull
