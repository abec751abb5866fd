/// \file seagull.h
/// \brief Umbrella header: the whole Seagull public API.
///
/// Include this to get every subsystem; fine-grained headers remain the
/// better choice inside the library itself.

#pragma once

// Foundations.
#include "common/config.h"    // IWYU pragma: export
#include "common/fault.h"     // IWYU pragma: export
#include "common/hash.h"      // IWYU pragma: export
#include "common/json.h"      // IWYU pragma: export
#include "common/logging.h"   // IWYU pragma: export
#include "common/random.h"    // IWYU pragma: export
#include "common/result.h"    // IWYU pragma: export
#include "common/retry.h"     // IWYU pragma: export
#include "common/status.h"    // IWYU pragma: export
#include "common/strings.h"   // IWYU pragma: export
#include "common/time.h"      // IWYU pragma: export

// Time series.
#include "timeseries/resample.h"  // IWYU pragma: export
#include "timeseries/series.h"    // IWYU pragma: export
#include "timeseries/stats.h"     // IWYU pragma: export
#include "timeseries/window.h"    // IWYU pragma: export

// Telemetry (simulator + adapters).
#include "telemetry/azure_trace.h"     // IWYU pragma: export
#include "telemetry/emitter.h"         // IWYU pragma: export
#include "telemetry/fleet.h"           // IWYU pragma: export
#include "telemetry/load_generator.h"  // IWYU pragma: export
#include "telemetry/records.h"         // IWYU pragma: export
#include "telemetry/server_profile.h"  // IWYU pragma: export

// Storage.
#include "store/doc_store.h"        // IWYU pragma: export
#include "store/lake_store.h"       // IWYU pragma: export

// Parallelism.
#include "parallel/thread_pool.h"  // IWYU pragma: export

// Forecast models.
#include "forecast/additive.h"     // IWYU pragma: export
#include "forecast/arima.h"        // IWYU pragma: export
#include "forecast/feedforward.h"  // IWYU pragma: export
#include "forecast/linalg.h"       // IWYU pragma: export
#include "forecast/model.h"        // IWYU pragma: export
#include "forecast/persistent.h"   // IWYU pragma: export
#include "forecast/routed.h"       // IWYU pragma: export
#include "forecast/ssa.h"          // IWYU pragma: export

// Metrics (Definitions 1-10).
#include "metrics/bucket_ratio.h"  // IWYU pragma: export
#include "metrics/classify.h"      // IWYU pragma: export
#include "metrics/ll_window.h"     // IWYU pragma: export
#include "metrics/predictable.h"   // IWYU pragma: export
#include "metrics/standard.h"      // IWYU pragma: export

// Pipeline.
#include "pipeline/accuracy.h"    // IWYU pragma: export
#include "pipeline/dashboard.h"   // IWYU pragma: export
#include "pipeline/deployment.h"  // IWYU pragma: export
#include "pipeline/features.h"    // IWYU pragma: export
#include "pipeline/incidents.h"   // IWYU pragma: export
#include "pipeline/inference.h"   // IWYU pragma: export
#include "pipeline/ingestion.h"   // IWYU pragma: export
#include "pipeline/pipeline.h"    // IWYU pragma: export
#include "pipeline/scheduler.h"   // IWYU pragma: export
#include "pipeline/serving.h"     // IWYU pragma: export
#include "pipeline/tracking.h"    // IWYU pragma: export
#include "pipeline/training.h"    // IWYU pragma: export
#include "pipeline/validation.h"  // IWYU pragma: export

// Scheduling (the use case).
#include "scheduling/backup_engine.h"     // IWYU pragma: export
#include "scheduling/backup_scheduler.h"  // IWYU pragma: export
#include "scheduling/backup_service.h"    // IWYU pragma: export
#include "scheduling/day_optimizer.h"     // IWYU pragma: export
#include "scheduling/impact.h"            // IWYU pragma: export
#include "scheduling/model_eval.h"        // IWYU pragma: export
#include "scheduling/service_fabric.h"    // IWYU pragma: export
#include "scheduling/simulation.h"        // IWYU pragma: export
#include "scheduling/window_advisor.h"    // IWYU pragma: export

// Auto-scale (Appendix A).
#include "autoscale/classify.h"     // IWYU pragma: export
#include "autoscale/eval.h"         // IWYU pragma: export
#include "autoscale/policy.h"       // IWYU pragma: export
#include "autoscale/sql_fleet.h"    // IWYU pragma: export
