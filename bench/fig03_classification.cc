/// \file fig03_classification.cc
/// \brief Figure 3: classification of servers by lifespan and typical
/// customer activity pattern.
///
/// Paper (random sample across four regions, one month): 42.1%
/// short-lived, 53.5% long-lived stable, 0.1% daily pattern, 0.1% weekly
/// pattern, 4.2% no pattern. This bench classifies a simulated
/// multi-region fleet with the pipeline's own feature-extraction metric
/// and prints the observed shares.

#include "bench_common.h"
#include "pipeline/features.h"
#include "telemetry/emitter.h"

using namespace seagull;
using namespace seagull::bench;

int main() {
  PrintHeader("Figure 3", "classification of servers");

  ClassCounts counts;
  for (const auto& region : MakeEvaluationRegions(0.5, 42)) {
    Fleet fleet = Fleet::Generate(region);
    MinuteStamp obs_to = static_cast<int64_t>(region.weeks) * kMinutesPerWeek;
    auto grouped =
        DecodeTelemetryBlob(ExtractWeekBlock(fleet, region.weeks - 1));
    grouped.status().Abort();
    for (const auto& telemetry : *grouped) {
      ServerFeatures f = ExtractFeatures(telemetry, 0, obs_to,
                                         AccuracyConfig{}, FleetConfig{});
      counts.Add(f.classification.server_class);
    }
  }

  struct Row {
    const char* label;
    ServerClass cls;
    double paper_pct;
  };
  const Row rows[] = {
      {"short-lived", ServerClass::kShortLived, 42.1},
      {"stable", ServerClass::kStable, 53.5},
      {"daily pattern", ServerClass::kDailyPattern, 0.1},
      {"weekly pattern", ServerClass::kWeeklyPattern, 0.1},
      {"no pattern", ServerClass::kNoPattern, 4.2},
  };
  std::printf("%-16s %10s %12s %12s\n", "class", "servers", "measured %",
              "paper %");
  for (const Row& row : rows) {
    std::printf("%-16s %10lld %11.1f%% %11.1f%%\n", row.label,
                static_cast<long long>([&] {
                  switch (row.cls) {
                    case ServerClass::kShortLived:
                      return counts.short_lived;
                    case ServerClass::kStable:
                      return counts.stable;
                    case ServerClass::kDailyPattern:
                      return counts.daily;
                    case ServerClass::kWeeklyPattern:
                      return counts.weekly;
                    case ServerClass::kNoPattern:
                      return counts.no_pattern;
                  }
                  return int64_t{0};
                }()),
                100.0 * counts.Fraction(row.cls), row.paper_pct);
  }
  std::printf("total servers: %lld\n", static_cast<long long>(counts.total));
  return 0;
}
