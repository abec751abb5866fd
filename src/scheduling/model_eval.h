/// \file model_eval.h
/// \brief The §5.3 experimental protocol as a reusable harness.
///
/// For each server: take four weeks of telemetry, and for each of the
/// three weekly backup days preceding the target week, train the model on
/// the week before that day (§5.3.1), forecast the day, and apply the §4
/// joint metrics. Reports the three paper metrics — correctly chosen LL
/// windows, accurately predicted LL-window load, and predictable servers —
/// plus wall-clock split into training / inference / metric evaluation
/// (Figures 11(a)–(d)).

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "telemetry/fleet.h"

namespace seagull {

/// \brief Aggregate outcome of evaluating one model family on a cohort.
struct ModelEvalResult {
  std::string model;
  int64_t servers = 0;       ///< servers with enough history to evaluate
  int64_t server_days = 0;   ///< backup-day evaluations performed
  int64_t windows_correct = 0;
  int64_t loads_accurate = 0;
  int64_t predictable = 0;

  double train_millis = 0.0;
  double inference_millis = 0.0;
  double eval_millis = 0.0;

  double PctWindowsCorrect() const;
  double PctLoadsAccurate() const;
  double PctPredictable() const;
};

/// Filter over fleet profiles; return false to exclude a server.
using ServerFilter = std::function<bool(const ServerProfile&)>;

/// \brief Evaluation setup.
struct ModelEvalOptions {
  /// The week whose preceding `fleet.long_lived_weeks` backup days are
  /// evaluated (the scheduling week).
  int64_t target_week = 3;
  AccuracyConfig accuracy;
  FleetConfig fleet_config;
  /// Keep only matching servers; empty keeps all long-lived ones.
  ServerFilter filter;
  /// Cap evaluated servers (expensive baselines); 0 = no cap.
  int64_t max_servers = 0;
};

/// Runs the protocol for one model family over a fleet.
Result<ModelEvalResult> EvaluateModelOnFleet(
    const Fleet& fleet, const std::string& model_name,
    const ModelEvalOptions& options = {});

/// Convenience filters for the paper's cohorts.
ServerFilter FilterLongLived();
ServerFilter FilterStableOrPattern();
ServerFilter FilterUnstableNoPattern();

}  // namespace seagull
