/// \file serving.h
/// \brief JSON wire forms for serving deployed models.
///
/// In production the deployed model is "accessible through a REST
/// endpoint" (§2.2). `ServingEngine` (src/serving/engine.h) answers
/// that contract; this header holds the wire pieces it parses and
/// renders: the stateless forecast request — server id, forecast range,
/// and recent telemetry — and the load-series JSON form used by
/// requests and responses.

#pragma once

#include <string>

#include "pipeline/deployment.h"

namespace seagull {

/// \brief Parsed forecast request.
struct ForecastRequest {
  std::string server_id;
  MinuteStamp start = 0;
  int64_t horizon_minutes = 0;
  /// Recent telemetry: sample interval plus (timestamp, value) pairs.
  LoadSeries recent;

  /// Parses the JSON wire form:
  /// {"server_id": "...", "start": M, "horizon_minutes": M,
  ///  "recent": {"start": M, "interval": M, "values": [v|null, ...]}}
  static Result<ForecastRequest> FromJson(const Json& doc);
  Json ToJson() const;
};

/// Serializes a load series into the wire form used by requests and
/// responses (missing samples encode as JSON null).
Json SeriesToJson(const LoadSeries& series);

/// Parses the wire form back into a series.
Result<LoadSeries> SeriesFromJson(const Json& doc);

}  // namespace seagull
