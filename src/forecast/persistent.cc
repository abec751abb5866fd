#include "forecast/persistent.h"

#include "timeseries/stats.h"

namespace seagull {

const char* PersistentVariantName(PersistentVariant v) {
  switch (v) {
    case PersistentVariant::kPreviousDay:
      return "persistent_prev_day";
    case PersistentVariant::kPreviousEquivalentDay:
      return "persistent_prev_eq_day";
    case PersistentVariant::kPreviousWeekAverage:
      return "persistent_week_avg";
  }
  return "persistent_unknown";
}

std::string PersistentForecast::name() const {
  return PersistentVariantName(variant_);
}

Status PersistentForecast::Fit(const LoadSeries& train) {
  (void)train;  // No parameters: "persistent forecast does not require
                // training" (§5.3.3).
  return Status::OK();
}

Result<LoadSeries> PersistentForecast::Forecast(
    const LoadSeries& recent, MinuteStamp start,
    int64_t horizon_minutes) const {
  if (recent.empty()) {
    return Status::FailedPrecondition("persistent forecast needs history");
  }
  const int64_t interval = recent.interval_minutes();
  if (start % interval != 0 || horizon_minutes % interval != 0) {
    return Status::Invalid("forecast range must be grid-aligned");
  }
  switch (variant_) {
    case PersistentVariant::kPreviousDay: {
      // Each forecast sample replicates the sample 24h earlier. For
      // multi-day horizons this keeps reading from the source range
      // [start-1d, end-1d): days beyond the first replicate what was
      // *forecast* — i.e. the same previous observed day.
      SEAGULL_ASSIGN_OR_RETURN(
          LoadSeries out,
          LoadSeries::MakeEmpty(start, interval, horizon_minutes / interval));
      for (int64_t i = 0; i < out.size(); ++i) {
        MinuteStamp t = out.TimeAt(i);
        // Fold multi-day horizons back onto the last observed day.
        MinuteStamp src = t - kMinutesPerDay;
        while (src >= start) src -= kMinutesPerDay;
        out.SetValue(i, recent.ValueAtTime(src));
      }
      return out;
    }
    case PersistentVariant::kPreviousEquivalentDay: {
      SEAGULL_ASSIGN_OR_RETURN(
          LoadSeries out,
          LoadSeries::MakeEmpty(start, interval, horizon_minutes / interval));
      for (int64_t i = 0; i < out.size(); ++i) {
        MinuteStamp t = out.TimeAt(i);
        MinuteStamp src = t - kMinutesPerWeek;
        while (src >= start) src -= kMinutesPerWeek;
        out.SetValue(i, recent.ValueAtTime(src));
      }
      return out;
    }
    case PersistentVariant::kPreviousWeekAverage: {
      double avg = recent.MeanInRange(start - kMinutesPerWeek, start);
      if (IsMissing(avg)) {
        // Degenerate history: fall back to the overall mean.
        avg = recent.Mean();
      }
      if (IsMissing(avg)) {
        return Status::FailedPrecondition(
            "no present samples in the previous week");
      }
      std::vector<double> values(
          static_cast<size_t>(horizon_minutes / interval), avg);
      return LoadSeries::Make(start, interval, std::move(values));
    }
  }
  return Status::Internal("unknown persistent variant");
}

Result<Json> PersistentForecast::Serialize() const {
  Json doc = Json::MakeObject();
  doc["model"] = name();
  doc["variant"] = static_cast<int64_t>(variant_);
  return doc;
}

Status PersistentForecast::Deserialize(const Json& doc) {
  SEAGULL_ASSIGN_OR_RETURN(
      int64_t variant,
      GetBoundedInt64(
          doc, "variant", 0,
          static_cast<int64_t>(PersistentVariant::kPreviousWeekAverage)));
  variant_ = static_cast<PersistentVariant>(variant);
  return Status::OK();
}

}  // namespace seagull
