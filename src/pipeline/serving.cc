#include "pipeline/serving.h"

namespace seagull {

Json SeriesToJson(const LoadSeries& series) {
  Json doc = Json::MakeObject();
  doc["start"] = series.start();
  doc["interval"] = series.interval_minutes();
  Json values = Json::MakeArray();
  for (int64_t i = 0; i < series.size(); ++i) {
    if (series.MissingAt(i)) {
      values.Append(Json());
    } else {
      values.Append(series.ValueAt(i));
    }
  }
  doc["values"] = std::move(values);
  return doc;
}

Result<LoadSeries> SeriesFromJson(const Json& doc) {
  SEAGULL_ASSIGN_OR_RETURN(double start, doc.GetNumber("start"));
  SEAGULL_ASSIGN_OR_RETURN(double interval, doc.GetNumber("interval"));
  if (!doc["values"].is_array()) {
    return Status::Invalid("series doc has no values array");
  }
  std::vector<double> values;
  values.reserve(doc["values"].AsArray().size());
  for (const auto& v : doc["values"].AsArray()) {
    if (v.is_null()) {
      values.push_back(kMissingValue);
    } else if (v.is_number()) {
      values.push_back(v.AsDouble());
    } else {
      return Status::Invalid("series value is neither number nor null");
    }
  }
  return LoadSeries::Make(static_cast<MinuteStamp>(start),
                          static_cast<int64_t>(interval), std::move(values));
}

Result<ForecastRequest> ForecastRequest::FromJson(const Json& doc) {
  ForecastRequest req;
  SEAGULL_ASSIGN_OR_RETURN(req.server_id, doc.GetString("server_id"));
  if (req.server_id.empty()) {
    return Status::Invalid("server id must not be empty");
  }
  SEAGULL_ASSIGN_OR_RETURN(double start, doc.GetNumber("start"));
  SEAGULL_ASSIGN_OR_RETURN(double horizon,
                           doc.GetNumber("horizon_minutes"));
  req.start = static_cast<MinuteStamp>(start);
  req.horizon_minutes = static_cast<int64_t>(horizon);
  if (req.horizon_minutes <= 0) {
    return Status::Invalid("horizon must be positive");
  }
  if (!doc["recent"].is_object()) {
    return Status::Invalid("request has no recent telemetry");
  }
  SEAGULL_ASSIGN_OR_RETURN(req.recent, SeriesFromJson(doc["recent"]));
  return req;
}

Json ForecastRequest::ToJson() const {
  Json doc = Json::MakeObject();
  doc["server_id"] = server_id;
  doc["start"] = start;
  doc["horizon_minutes"] = horizon_minutes;
  doc["recent"] = SeriesToJson(recent);
  return doc;
}

}  // namespace seagull
