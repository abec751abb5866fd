/// \file serving_test_util.h
/// \brief Shared fixtures for the serving-path tests.
///
/// `pipeline_serving_test.cc` (the stateless predict wire contract),
/// `serving_engine_test.cc`, `loadgen_test.cc`, and
/// `serving_determinism_test.cc` (the stateful verbs) all drive
/// `ServingEngine` from the same champion model; these helpers keep the
/// endpoint and telemetry literals in one place so the suites stay
/// byte-for-byte comparable.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "forecast/persistent.h"
#include "pipeline/serving.h"
#include "serving/engine.h"

namespace seagull {

/// Fleet-wide persistent-prev-day endpoint (heuristic family: the model
/// under key "" serves every server).
inline ModelEndpoint MakePrevDayEndpoint(int64_t version = 7) {
  PersistentForecast model(PersistentVariant::kPreviousDay);
  Json body = Json::MakeObject();
  body["family"] = "persistent_prev_day";
  body["version"] = version;
  Json models = Json::MakeObject();
  models[""] = std::move(model.Serialize()).ValueOrDie();
  body["models"] = std::move(models);
  return std::move(ModelEndpoint::FromVersionDoc(body)).ValueOrDie();
}

/// One day on the 5-minute grid: a 4-hour valley at 5% load, then 40%.
/// The previous-day forecast of the following day replicates this shape,
/// so tests can assert exact values and window positions.
inline LoadSeries DayOfLoad() {
  std::vector<double> values(288);
  for (int64_t i = 0; i < 288; ++i) {
    values[static_cast<size_t>(i)] = i < 48 ? 5.0 : 40.0;
  }
  return std::move(LoadSeries::Make(0, 5, std::move(values))).ValueOrDie();
}

/// Telemetry tail for one server, ready for `ServingEngine::Bootstrap`.
inline ServerTelemetry MakeTail(std::string server_id, LoadSeries load) {
  ServerTelemetry st;
  st.server_id = std::move(server_id);
  st.load = std::move(load);
  return st;
}

}  // namespace seagull
