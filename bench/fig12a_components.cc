/// \file fig12a_components.cc
/// \brief Figure 12(a): runtime of the use-case-agnostic pipeline
/// components per region, for four regions of different sizes.
///
/// Components measured (as in the paper): Data Ingestion, Data
/// Validation, Feature Extraction, Model Deployment, Accuracy Evaluation.
/// Training/Inference are Figure 11(a); Model Tracking, Scheduler, and
/// Incident Management run concurrently and are omitted. Paper shape:
/// deployment is roughly constant; everything else grows linearly with
/// input size; accuracy evaluation dominates at large inputs.
///
/// Telemetry is staged in the SeriesBlock (SGB1) format, the only format
/// the pipeline reads.

#include "bench_common.h"
#include "pipeline/pipeline.h"
#include "store/lake_store.h"
#include "telemetry/emitter.h"

using namespace seagull;
using namespace seagull::bench;

int main() {
  PrintHeader("Figure 12(a)", "pipeline component runtime per region");

  auto lake = LakeStore::OpenTemporary("fig12a");
  lake.status().Abort();
  DocStore docs;
  Pipeline pipeline = Pipeline::Standard();

  struct Row {
    std::string region;
    int64_t bytes = 0;
    PipelineRunReport report;
  };
  std::vector<Row> rows;
  int sizes[] = {40, 120, 400, 1200};
  for (int r = 0; r < 4; ++r) {
    Row row;
    row.region = "size-" + std::to_string(sizes[r]);
    // Production setting: the pipeline ingests one week of telemetry
    // (§6.1 "Figure 12 considers only one week").
    Fleet fleet = ProductionFleet(row.region, sizes[r],
                                  500 + static_cast<uint64_t>(r), 4);
    lake->Put(LakeStore::TelemetryKey(row.region, 3),
              ExtractWeekBlock(fleet, 3))
        .Abort();
    auto size = lake->SizeOf(LakeStore::TelemetryKey(row.region, 3));
    row.bytes = size.ValueOr(0);

    PipelineContext ctx;
    ctx.region = row.region;
    ctx.week = 3;
    ctx.lake = &*lake;
    ctx.docs = &docs;
    row.report = pipeline.Run(&ctx);
    rows.push_back(std::move(row));
  }

  const char* components[] = {"ingestion", "validation", "features",
                              "deployment", "accuracy"};
  std::printf("%-12s %10s", "component", "MB");
  for (const auto& row : rows) std::printf(" %12s", row.region.c_str());
  std::printf("\n");
  std::printf("%-12s %10s", "", "");
  for (const auto& row : rows) {
    std::printf(" %10.1fMB",
                static_cast<double>(row.bytes) / (1024.0 * 1024.0));
  }
  std::printf("\n");
  for (const char* component : components) {
    std::printf("%-12s %10s", component, "");
    for (const auto& row : rows) {
      std::printf(" %10.1fms", row.report.MillisOf(component));
    }
    std::printf("\n");
  }
  std::printf("%-12s %10s", "total", "");
  for (const auto& row : rows) {
    std::printf(" %10.1fms", row.report.TotalMillis());
  }
  std::printf("\n");
  for (const auto& row : rows) {
    if (!row.report.success) {
      std::printf("WARNING: run for %s failed: %s\n", row.region.c_str(),
                  row.report.failure.c_str());
      return 1;
    }
  }
  return 0;
}
