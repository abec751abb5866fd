#include "pipeline/serving.h"

#include <gtest/gtest.h>

#include "serving_test_util.h"

namespace seagull {
namespace {

TEST(SeriesWireTest, RoundTripWithMissing) {
  LoadSeries s = DayOfLoad();
  s.SetValue(10, kMissingValue);
  Json doc = SeriesToJson(s);
  auto back = SeriesFromJson(doc);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->start(), s.start());
  EXPECT_EQ(back->interval_minutes(), s.interval_minutes());
  ASSERT_EQ(back->size(), s.size());
  EXPECT_TRUE(back->MissingAt(10));
  EXPECT_DOUBLE_EQ(back->ValueAt(100), 40.0);
}

TEST(SeriesWireTest, RejectsMalformed) {
  Json bad = Json::MakeObject();
  bad["start"] = 0;
  EXPECT_FALSE(SeriesFromJson(bad).ok());  // no interval/values
  bad["interval"] = 5;
  bad["values"] = Json::MakeArray();
  bad["values"].Append("text");
  EXPECT_FALSE(SeriesFromJson(bad).ok());
}

TEST(ForecastRequestTest, RoundTrip) {
  ForecastRequest req;
  req.server_id = "srv-1";
  req.start = kMinutesPerDay;
  req.horizon_minutes = kMinutesPerDay;
  req.recent = DayOfLoad();
  auto back = ForecastRequest::FromJson(req.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->server_id, "srv-1");
  EXPECT_EQ(back->start, kMinutesPerDay);
  EXPECT_EQ(back->recent.size(), 288);
}

/// The stateless predict wire contract: a request carrying its own
/// "recent" telemetry is answered through the deployed endpoint, with
/// "verb" optional, and every failure is a structured {ok,error,code}
/// response counted as failed.
class ServingContractTest : public ::testing::Test {
 protected:
  ServingContractTest() : engine_(MakePrevDayEndpoint()) {}

  std::string Handle(const std::string& request_text) {
    return engine_.Handle(request_text);
  }

  int64_t served() const { return engine_.requests_served(); }
  int64_t failed() const { return engine_.requests_failed(); }

  ServingEngine engine_;
};

TEST_F(ServingContractTest, ServesForecast) {
  ForecastRequest req;
  req.server_id = "srv-1";
  req.start = kMinutesPerDay;
  req.horizon_minutes = kMinutesPerDay;
  req.recent = DayOfLoad();
  std::string response_text = Handle(req.ToJson().Dump());

  auto response = Json::Parse(response_text);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE((*response)["ok"].AsBool());
  EXPECT_EQ((*response)["model_version"].AsInt(), 7);
  auto forecast = SeriesFromJson((*response)["forecast"]);
  ASSERT_TRUE(forecast.ok());
  EXPECT_EQ(forecast->size(), 288);
  // Previous-day forecast replicates the valley.
  EXPECT_DOUBLE_EQ(forecast->ValueAt(0), 5.0);
  EXPECT_DOUBLE_EQ(forecast->ValueAt(100), 40.0);
  EXPECT_EQ(served(), 1);
  EXPECT_EQ(failed(), 0);
}

TEST_F(ServingContractTest, StructuredErrors) {
  ForecastRequest empty_id;
  empty_id.server_id = "";
  empty_id.start = kMinutesPerDay;
  empty_id.horizon_minutes = 60;
  empty_id.recent = DayOfLoad();

  const std::string cases[] = {
      "not json at all",           // bad JSON
      "{}",                        // missing verb and every field
      "{\"verb\": \"predict\"}",   // explicit verb, no server id
      empty_id.ToJson().Dump(),    // empty server id
  };
  for (const std::string& request : cases) {
    auto parsed = Json::Parse(Handle(request));
    ASSERT_TRUE(parsed.ok()) << request;
    EXPECT_FALSE((*parsed)["ok"].AsBool()) << request;
    EXPECT_TRUE((*parsed)["error"].is_string()) << request;
    EXPECT_TRUE((*parsed)["code"].is_string()) << request;
    if (request == cases[0]) {
      EXPECT_EQ((*parsed)["code"].AsString(), "Invalid");
    }
  }
  // Valid shape but misaligned range -> model error surfaces.
  ForecastRequest req;
  req.server_id = "srv";
  req.start = kMinutesPerDay + 2;
  req.horizon_minutes = 60;
  req.recent = DayOfLoad();
  auto misaligned = Json::Parse(Handle(req.ToJson().Dump()));
  ASSERT_TRUE(misaligned.ok());
  EXPECT_FALSE((*misaligned)["ok"].AsBool());
  EXPECT_EQ(served(), 0);
  EXPECT_EQ(failed(), 5);
}

TEST_F(ServingContractTest, NegativeHorizonRejected) {
  ForecastRequest req;
  req.server_id = "srv";
  req.start = 0;
  req.horizon_minutes = 60;
  req.recent = DayOfLoad();
  Json doc = req.ToJson();
  doc["horizon_minutes"] = -5;
  auto response = Json::Parse(Handle(doc.Dump()));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE((*response)["ok"].AsBool());
}

TEST_F(ServingContractTest, EmptyServerIdRejected) {
  ForecastRequest req;
  req.server_id = "";
  req.start = kMinutesPerDay;
  req.horizon_minutes = 60;
  req.recent = DayOfLoad();
  auto response = Json::Parse(Handle(req.ToJson().Dump()));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE((*response)["ok"].AsBool());
  EXPECT_EQ((*response)["code"].AsString(), "Invalid");
  EXPECT_EQ((*response)["error"].AsString(), "server id must not be empty");
}

TEST(ServingRegistryTest, EndToEndThroughDeployedRegistry) {
  // Deploy through the registry, load the active endpoint, serve.
  DocStore docs;
  PersistentForecast model;
  Json body = Json::MakeObject();
  body["family"] = "persistent_prev_day";
  body["version"] = 1;
  Json models = Json::MakeObject();
  models[""] = std::move(model.Serialize()).ValueOrDie();
  body["models"] = std::move(models);
  Document doc;
  doc.partition_key = "region";
  doc.id = "v000001";
  doc.body = std::move(body);
  docs.GetContainer(kModelRegistryContainer)->Upsert(doc).Abort();
  SetActiveVersion(&docs, "region", 1, "test").Abort();

  auto endpoint = LoadActiveEndpoint(&docs, "region");
  ASSERT_TRUE(endpoint.ok());
  ServingEngine engine(std::move(endpoint).ValueUnsafe());
  ForecastRequest req;
  req.server_id = "any";
  req.start = kMinutesPerDay;
  req.horizon_minutes = 120;
  req.recent = DayOfLoad();
  auto response = Json::Parse(engine.Handle(req.ToJson().Dump()));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE((*response)["ok"].AsBool());
}

}  // namespace
}  // namespace seagull
