/// \file context.h
/// \brief Shared state flowing through one pipeline run.
///
/// One `PipelineContext` corresponds to one weekly run of the AML
/// pipeline for one region (§2.2): modules consume what earlier modules
/// produced and append incidents, metrics, and results. Storage handles
/// (lake + document store) are borrowed, mirroring the production setup
/// where ADLS and Cosmos DB outlive any single run.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "metrics/classify.h"
#include "parallel/thread_pool.h"
#include "store/doc_store.h"
#include "store/lake_store.h"
#include "telemetry/records.h"
#include "timeseries/stats.h"

namespace seagull {

/// \brief Severity of an operational incident (§2.2, Application
/// Insights examples: missing/invalid input, module errors, failed
/// deployment).
enum class IncidentSeverity : int8_t {
  kInfo = 0,
  kWarning = 1,
  kError = 2,
};

/// \brief One structured incident raised during a run.
struct Incident {
  IncidentSeverity severity = IncidentSeverity::kInfo;
  std::string module;
  std::string message;
};

/// \brief Features extracted per server (§2.2 Feature Extraction).
struct ServerFeatures {
  std::string server_id;
  MinuteStamp first_seen = 0;
  MinuteStamp last_seen = 0;  // exclusive
  bool long_lived = false;
  ClassificationResult classification;
  SeriesSummary summary;
  /// Backup-day facts carried from telemetry.
  MinuteStamp default_backup_start = 0;
  MinuteStamp default_backup_end = 0;
  int64_t backup_duration_minutes = 0;
  DayOfWeek backup_day = DayOfWeek::kSunday;
};

/// \brief Per-server accuracy/predictability record produced by the
/// Accuracy Evaluation module and consumed by the backup scheduler.
struct ServerAccuracy {
  std::string server_id;
  bool long_lived = false;
  bool predictable = false;
  /// Joint §4 metrics on the most recent evaluated backup day.
  bool last_window_correct = false;
  bool last_load_accurate = false;
  int64_t weeks_evaluated = 0;
};

/// \brief Mutable state of one pipeline run.
struct PipelineContext {
  // --- run identity & configuration ---
  std::string region;
  /// Extraction week: the run sees telemetry up to the end of this week
  /// and schedules backups for the following week.
  int64_t week = 0;
  AccuracyConfig accuracy;
  FleetConfig fleet;
  /// Forecast-model family to train/deploy this run.
  std::string model_name = "persistent_prev_day";

  // --- borrowed infrastructure ---
  const LakeStore* lake = nullptr;
  DocStore* docs = nullptr;
  /// Optional worker pool; modules fall back to sequential execution
  /// when null (the Fig. 12(b) comparison toggles this).
  ThreadPool* pool = nullptr;

  // --- data products, in module order ---
  std::vector<ServerTelemetry> servers;       // ingestion; validation cleans
  std::vector<ServerFeatures> features;       // feature extraction
  /// Serialized fitted model per server id (families that train); the
  /// heuristic families deploy a single fleet-wide entry under "".
  std::map<std::string, Json> trained;        // training
  /// Version number assigned by deployment this run.
  int64_t deployed_version = 0;               // deployment
  std::vector<ServerAccuracy> accuracy_records;  // accuracy evaluation

  // --- operational products ---
  std::vector<Incident> incidents;
  /// Free-form per-module counters for the dashboard.
  std::map<std::string, double> stats;

  void AddIncident(IncidentSeverity severity, const std::string& module,
                   const std::string& message) {
    incidents.push_back({severity, module, message});
  }
};

}  // namespace seagull
