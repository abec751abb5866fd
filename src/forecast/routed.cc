#include "forecast/routed.h"

namespace seagull {

const char* RoutedForecast::FamilyFor(ServerClass cls) {
  switch (cls) {
    case ServerClass::kStable:
      return "persistent_week_avg";
    case ServerClass::kDailyPattern:
      return "persistent_prev_day";
    case ServerClass::kWeeklyPattern:
      return "persistent_prev_eq_day";
    case ServerClass::kShortLived:
    case ServerClass::kNoPattern:
      break;
  }
  return "ssa";
}

std::string RoutedForecast::delegate_family() const {
  return delegate_ ? delegate_->name() : "";
}

Status RoutedForecast::Fit(const LoadSeries& train) {
  if (train.CountPresent() < 4) {
    return Status::FailedPrecondition("routed model needs history");
  }
  // Classify the training span itself; the lifespan gate is irrelevant
  // here (the caller decides which servers get a model at all).
  FleetConfig no_gate;
  no_gate.long_lived_weeks = 0;
  ClassificationResult cls =
      ClassifyServer(train, train.start(), train.end(), train.start(),
                     train.end(), AccuracyConfig{}, no_gate);
  routed_class_ = cls.server_class;

  SEAGULL_ASSIGN_OR_RETURN(
      delegate_, ModelFactory::Global().Create(FamilyFor(routed_class_)));
  if (delegate_->requires_training()) {
    SEAGULL_RETURN_NOT_OK(delegate_->Fit(train));
  } else {
    SEAGULL_RETURN_NOT_OK(delegate_->Fit(train));  // no-op, kept uniform
  }
  return Status::OK();
}

Result<LoadSeries> RoutedForecast::Forecast(const LoadSeries& recent,
                                            MinuteStamp start,
                                            int64_t horizon_minutes) const {
  if (!delegate_) {
    return Status::FailedPrecondition("routed model is not fitted");
  }
  return delegate_->Forecast(recent, start, horizon_minutes);
}

Result<Json> RoutedForecast::Serialize() const {
  if (!delegate_) {
    return Status::FailedPrecondition("serialize before fit");
  }
  Json doc = Json::MakeObject();
  doc["model"] = name();
  doc["routed_class"] = static_cast<int64_t>(routed_class_);
  SEAGULL_ASSIGN_OR_RETURN(Json inner, delegate_->Serialize());
  doc["delegate"] = std::move(inner);
  return doc;
}

Status RoutedForecast::Deserialize(const Json& doc) {
  delegate_.reset();
  SEAGULL_ASSIGN_OR_RETURN(
      int64_t cls,
      GetBoundedInt64(doc, "routed_class", 0,
                      static_cast<int64_t>(ServerClass::kNoPattern)));
  routed_class_ = static_cast<ServerClass>(cls);
  if (!doc["delegate"].is_object()) {
    return Status::Invalid("routed doc has no delegate");
  }
  SEAGULL_ASSIGN_OR_RETURN(delegate_,
                           ModelFactory::Global().Restore(doc["delegate"]));
  return Status::OK();
}

}  // namespace seagull
