#include "forecast/model.h"

#include "common/strings.h"
#include "forecast/additive.h"
#include "forecast/arima.h"
#include "forecast/feedforward.h"
#include "forecast/persistent.h"
#include "forecast/routed.h"
#include "forecast/ssa.h"

namespace seagull {

Result<int64_t> GetBoundedInt64(const Json& doc, const std::string& key,
                                int64_t lo, int64_t hi) {
  SEAGULL_ASSIGN_OR_RETURN(int64_t value, doc.GetInt64(key));
  if (value < lo || value > hi) {
    return Status::Invalid(StringPrintf(
        "model field %s = %lld outside [%lld, %lld]", key.c_str(),
        static_cast<long long>(value), static_cast<long long>(lo),
        static_cast<long long>(hi)));
  }
  return value;
}

ModelFactory& ModelFactory::Global() {
  static ModelFactory* factory = [] {
    auto* f = new ModelFactory();
    f->Register("persistent_prev_day", [] {
      return std::make_unique<PersistentForecast>(
          PersistentVariant::kPreviousDay);
    });
    f->Register("persistent_prev_eq_day", [] {
      return std::make_unique<PersistentForecast>(
          PersistentVariant::kPreviousEquivalentDay);
    });
    f->Register("persistent_week_avg", [] {
      return std::make_unique<PersistentForecast>(
          PersistentVariant::kPreviousWeekAverage);
    });
    f->Register("ssa", [] { return std::make_unique<SsaForecast>(); });
    f->Register("feedforward",
                [] { return std::make_unique<FeedForwardForecast>(); });
    f->Register("additive",
                [] { return std::make_unique<AdditiveForecast>(); });
    f->Register("arima", [] { return std::make_unique<ArimaForecast>(); });
    f->Register("routed", [] { return std::make_unique<RoutedForecast>(); });
    return f;
  }();
  return *factory;
}

void ModelFactory::Register(const std::string& name, Constructor ctor) {
  ctors_[name] = std::move(ctor);
}

Result<std::unique_ptr<ForecastModel>> ModelFactory::Create(
    const std::string& name) const {
  auto it = ctors_.find(name);
  if (it == ctors_.end()) {
    return Status::NotFound("unknown model family: " + name);
  }
  return it->second();
}

Result<std::unique_ptr<ForecastModel>> ModelFactory::Restore(
    const Json& doc) const {
  SEAGULL_ASSIGN_OR_RETURN(std::string name, doc.GetString("model"));
  SEAGULL_ASSIGN_OR_RETURN(auto model, Create(name));
  SEAGULL_RETURN_NOT_OK(model->Deserialize(doc));
  return model;
}

std::vector<std::string> ModelFactory::Names() const {
  std::vector<std::string> names;
  names.reserve(ctors_.size());
  for (const auto& [name, ctor] : ctors_) names.push_back(name);
  return names;
}

}  // namespace seagull
