/// \file model.h
/// \brief Pluggable forecast-model interface (§2.1: "any ML model can be
/// plugged in") plus the model factory used by deployment and tracking.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "timeseries/series.h"

namespace seagull {

/// \brief A trained (or heuristic) per-server load forecaster.
///
/// Lifecycle: construct → `Fit` on training history → `Forecast` any
/// number of times. `Forecast` additionally receives the most recent
/// telemetry so that autoregressive models (and the persistent-forecast
/// heuristics, which have no parameters at all) can condition on it.
///
/// Thread-safety contract (enforced by the fleet execution engine):
/// `Forecast` and `Serialize` are const and MUST be safe to call from
/// many threads on one instance — heuristic families deploy a single
/// fleet-wide model that every per-server worker queries concurrently.
/// Implementations must not lazily mutate state in const methods; any
/// randomness must come from an RNG constructed locally per call and
/// seeded from configuration (never from global or time-based state),
/// which is also what makes parallel runs bit-identical to sequential
/// ones (tests/fleet_determinism_test.cc). `Fit` and `Deserialize` are
/// the only mutating phase and are called from exactly one thread per
/// instance.
class ForecastModel {
 public:
  virtual ~ForecastModel() = default;

  /// Stable model-family name, e.g. "persistent_prev_day" or "ssa".
  virtual std::string name() const = 0;

  /// False for the persistent-forecast heuristics, which have no
  /// training phase (§5.3.3).
  virtual bool requires_training() const { return true; }

  /// Estimates parameters from training history. Implementations must
  /// tolerate missing samples.
  virtual Status Fit(const LoadSeries& train) = 0;

  /// Predicts load on [start, start + horizon_minutes) at the history's
  /// granularity. `recent` is the telemetry available up to `start`.
  virtual Result<LoadSeries> Forecast(const LoadSeries& recent,
                                      MinuteStamp start,
                                      int64_t horizon_minutes) const = 0;

  /// Serializes fitted parameters for deployment (model registry, REST
  /// endpoint analog). The JSON must round-trip through the factory.
  virtual Result<Json> Serialize() const = 0;

  /// Restores fitted parameters serialized by `Serialize`. Documents
  /// are untrusted (DocStore files, the serving endpoint): a document
  /// `Forecast` could not run safely on is `Invalid`, and a rejected
  /// document leaves the model unfitted.
  virtual Status Deserialize(const Json& doc) = 0;
};

/// The one reader of integer fields in model documents: `Invalid`
/// unless `key` holds an integer (`Json::GetInt64`) in [lo, hi], so no
/// document can size a buffer or divide by a value its family never
/// fits. NotFound when `key` is absent. A forecast grid's interval
/// lies in [1, kMinutesPerDay], since a `LoadSeries` interval divides a
/// day.
Result<int64_t> GetBoundedInt64(const Json& doc, const std::string& key,
                                int64_t lo, int64_t hi);

/// \brief Registry of model constructors, keyed by family name.
///
/// Model Deployment writes serialized models here and Inference
/// re-instantiates them; the tracking module stores (name, version,
/// params) documents and falls back to the previous known-good version
/// when accuracy regresses (§1).
///
/// `Global()` is initialized once (thread-safe magic static); after
/// that, `Create`/`Restore`/`Names` are const reads and safe to call
/// concurrently from pool workers. `Register` is not synchronized —
/// custom families must be registered before parallel execution starts.
class ModelFactory {
 public:
  using Constructor = std::function<std::unique_ptr<ForecastModel>()>;

  /// The process-wide factory with all built-in families registered.
  static ModelFactory& Global();

  /// Registers a family; overwrites any existing registration.
  void Register(const std::string& name, Constructor ctor);

  /// Creates an unfitted instance of a family.
  Result<std::unique_ptr<ForecastModel>> Create(const std::string& name) const;

  /// Restores a model from a serialized document ({"model": name, ...}).
  Result<std::unique_ptr<ForecastModel>> Restore(const Json& doc) const;

  /// Registered family names, sorted.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, Constructor> ctors_;
};

}  // namespace seagull
