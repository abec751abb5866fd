/// \file operations_tour.cpp
/// \brief The operational story of §1: "Seagull continually re-evaluates
/// accuracy of predictions, fallback to previously known good models and
/// triggers alerts as appropriate."
///
/// A scripted four-act scenario against one region:
///   act 1 — healthy weekly run (persistent forecast) deploys v1;
///   act 2 — a bad model family is configured; accuracy collapses, the
///           tracking module flips the active pointer back to v1 and an
///           alert fires;
///   act 3 — the next week's telemetry extraction is missing; the run
///           fails with an alert and the region stays due (catch-up);
///   act 4 — data restored, the region catches up and the dashboard
///           shows the full history.

#include <cstdio>

#include "forecast/model.h"
#include "pipeline/deployment.h"
#include "pipeline/scheduler.h"
#include "telemetry/emitter.h"

using namespace seagull;

namespace {

/// A deliberately terrible forecaster: predicts a constant absurd load.
/// Registered under its own family name so deployment/tracking treat it
/// like any other model.
class DoomedModel final : public ForecastModel {
 public:
  std::string name() const override { return "doomed"; }
  bool requires_training() const override { return false; }
  Status Fit(const LoadSeries&) override { return Status::OK(); }
  Result<LoadSeries> Forecast(const LoadSeries& recent, MinuteStamp start,
                              int64_t horizon_minutes) const override {
    int64_t interval = recent.empty() ? kServerIntervalMinutes
                                      : recent.interval_minutes();
    if (start % interval != 0 || horizon_minutes % interval != 0) {
      return Status::Invalid("misaligned");
    }
    std::vector<double> values(
        static_cast<size_t>(horizon_minutes / interval), 100.0);
    return LoadSeries::Make(start, interval, std::move(values));
  }
  Result<Json> Serialize() const override {
    Json doc = Json::MakeObject();
    doc["model"] = name();
    return doc;
  }
  Status Deserialize(const Json&) override { return Status::OK(); }
};

void PrintRun(const char* act, const PipelineScheduler::ScheduledRun& run) {
  std::printf("%s: %s", act,
              run.report.timings.empty()
                  ? "skipped (not due)"
                  : (run.report.success ? "ok" : "FAILED"));
  if (!run.report.success && !run.report.failure.empty()) {
    std::printf(" — %s", run.report.failure.c_str());
  }
  std::printf("\n");
  for (const auto& alert : run.alerts) {
    std::printf("   ALERT [%s] %s\n", alert.rule.c_str(),
                alert.message.c_str());
  }
}

}  // namespace

int main() {
  ModelFactory::Global().Register(
      "doomed", [] { return std::make_unique<DoomedModel>(); });

  auto lake = LakeStore::OpenTemporary("ops-tour");
  lake.status().Abort();
  DocStore docs;

  RegionConfig config;
  config.name = "ops";
  config.num_servers = 80;
  config.weeks = 6;
  config.seed = 99;
  Fleet fleet = Fleet::Generate(config);

  Pipeline pipeline = Pipeline::Standard();
  PipelineScheduler scheduler(&pipeline, &*lake, &docs);
  PipelineContext good;
  good.model_name = "persistent_prev_day";
  PipelineContext bad;
  bad.model_name = "doomed";

  // --- act 1: healthy run ---
  lake->Put(LakeStore::TelemetryKey("ops", 2), ExtractWeekBlock(fleet, 2))
      .Abort();
  auto run1 = scheduler.RunIfDue("ops", 2, good);
  PrintRun("act 1 (healthy, deploys v1)", run1);
  std::printf("   active version: %lld\n",
              static_cast<long long>(
                  ActiveVersion(&docs, "ops").ValueOr(-1)));

  // --- act 2: a bad model ships; tracking falls back ---
  lake->Put(LakeStore::TelemetryKey("ops", 3), ExtractWeekBlock(fleet, 3))
      .Abort();
  auto run2 = scheduler.RunIfDue("ops", 3, bad);
  PrintRun("act 2 (doomed model, v2)", run2);
  int64_t active = ActiveVersion(&docs, "ops").ValueOr(-1);
  std::printf("   active version after tracking: %lld %s\n",
              static_cast<long long>(active),
              active == 1 ? "(fell back to the known-good v1)" : "");

  // --- act 3: missing telemetry ---
  auto run3 = scheduler.RunIfDue("ops", 4, good);
  PrintRun("act 3 (missing extraction)", run3);
  std::printf("   region still due for week 4: %s\n",
              scheduler.IsDue("ops", 4) ? "yes (catch-up)" : "no");

  // --- act 4: catch-up after the data arrives ---
  lake->Put(LakeStore::TelemetryKey("ops", 4), ExtractWeekBlock(fleet, 4))
      .Abort();
  auto run4 = scheduler.RunIfDue("ops", 4, good);
  PrintRun("act 4 (catch-up)", run4);

  Dashboard dashboard(&docs);
  std::printf("\n--- dashboard ---\n%s", dashboard.Render().c_str());
  IncidentManager incidents(&docs);
  std::printf("\n--- incident history ---\n");
  for (const auto& doc : incidents.History("ops")) {
    std::printf("[%s] week %lld %s: %s\n",
                doc.body.GetString("severity").ValueOr("?").c_str(),
                static_cast<long long>(
                    doc.body.GetNumber("week").ValueOr(-1)),
                doc.body.GetString("module").ValueOr("?").c_str(),
                doc.body.GetString("message").ValueOr("").c_str());
  }
  return 0;
}
