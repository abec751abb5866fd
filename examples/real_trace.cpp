/// \file real_trace.cpp
/// \brief Onboarding real telemetry: run the Seagull pipeline on a trace
/// in the Azure Public Dataset VM format instead of the simulator.
///
/// Given a file of `timestamp,vm_id,min_cpu,max_cpu,avg_cpu` rows
/// (seconds, 300 s cadence) — or nothing, in which case a small demo
/// trace is fabricated — this example transcodes the trace to SGB1,
/// stages the blob into a lake store, runs the weekly pipeline, and
/// schedules the following week's backups for the predictable VMs.
///
/// Usage: real_trace [trace.csv]

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "common/strings.h"
#include "pipeline/scheduler.h"
#include "scheduling/backup_scheduler.h"
#include "telemetry/azure_trace.h"
#include "telemetry/series_block.h"

using namespace seagull;

namespace {

/// Fabricates four weeks of trace data for a handful of VMs with mixed
/// behaviours, in the public dataset's format.
std::string DemoTrace() {
  std::string text = "timestamp,vm_id,min_cpu,max_cpu,avg_cpu\n";
  Rng rng(12);
  for (int64_t tick = 0; tick < 4 * 7 * 288; ++tick) {
    int64_t seconds = tick * 300;
    int64_t tick_of_day = tick % 288;
    // vm-flat: stable; vm-diurnal: nightly valley; vm-chaotic: drifts.
    double flat = 18.0 + rng.Gaussian(0.0, 1.0);
    double diurnal =
        (tick_of_day < 60 ? 8.0 : 42.0) + rng.Gaussian(0.0, 1.0);
    static double level = 30.0;
    if (tick % 288 == 0) level = rng.Uniform(10.0, 55.0);
    double chaotic = level + rng.Gaussian(0.0, 2.0);
    auto row = [&](const char* id, double v) {
      v = std::clamp(v, 0.0, 100.0);
      text += StringPrintf("%lld,%s,%.2f,%.2f,%.2f\n",
                           static_cast<long long>(seconds), id, v - 1.0,
                           v + 1.0, v);
    };
    row("vm-flat", flat);
    row("vm-diurnal", diurnal);
    row("vm-chaotic", chaotic);
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  std::string text;
  if (argc > 1) {
    std::ifstream in(argv[1], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
    std::printf("imported trace: %s\n", argv[1]);
  } else {
    text = DemoTrace();
    std::printf("no trace given; fabricated a 3-VM demo trace\n");
  }

  // The importer transcodes the trace to SGB1; the scheduling below
  // wants grouped servers, so decode the blob the lake will hold.
  auto blob = ImportAzureVmTrace(text);
  if (!blob.ok()) {
    std::fprintf(stderr, "import failed: %s\n",
                 blob.status().ToString().c_str());
    return 1;
  }
  auto servers = DecodeTelemetryBlob(*blob);
  if (!servers.ok()) {
    std::fprintf(stderr, "import failed: %s\n",
                 servers.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu VMs imported\n", servers->size());

  // Stage into a lake and run the weekly pipeline at the trace's last
  // week, so every evidence week has a prior day to forecast from.
  auto lake = LakeStore::OpenTemporary("real-trace");
  lake.status().Abort();
  int64_t pipeline_week = 0;
  for (const auto& server : *servers) {
    pipeline_week =
        std::max(pipeline_week, WeekIndex(server.load.end() - 1));
  }
  lake->Put(LakeStore::TelemetryKey("trace", pipeline_week), *blob).Abort();

  DocStore docs;
  Pipeline pipeline = Pipeline::Standard();
  PipelineScheduler scheduler(&pipeline, &*lake, &docs);
  PipelineContext config;
  auto run = scheduler.RunIfDue("trace", pipeline_week, config);
  std::printf("pipeline week %lld: %s\n",
              static_cast<long long>(pipeline_week),
              run.report.success ? "ok" : run.report.failure.c_str());
  if (!run.report.success) return 1;

  // Schedule the next week's backups day by day.
  ServiceFabricProperties properties;
  BackupScheduler backup_scheduler(&docs, &properties);
  int64_t moved = 0, total = 0;
  for (int64_t dow = 0; dow < 7; ++dow) {
    int64_t day = (pipeline_week + 1) * 7 + dow;
    std::vector<DueServer> due;
    for (const auto& server : *servers) {
      if (DayOfWeekOf(server.default_backup_start) !=
          DayOfWeekOf(day * kMinutesPerDay)) {
        continue;
      }
      DueServer d;
      d.server_id = server.server_id;
      d.recent_load =
          server.load.Slice(server.load.start(), day * kMinutesPerDay);
      d.default_start =
          day * kMinutesPerDay + MinuteOfDay(server.default_backup_start);
      d.default_end = d.default_start + server.backup_duration_minutes();
      d.backup_duration_minutes = server.backup_duration_minutes();
      due.push_back(std::move(d));
    }
    for (const auto& sched :
         backup_scheduler.ScheduleDay("trace", day, due)) {
      ++total;
      if (sched.moved()) ++moved;
      std::printf("  %-12s %s -> %s (%s)\n", sched.server_id.c_str(),
                  FormatMinute(sched.default_start).c_str(),
                  FormatMinute(sched.window_start).c_str(),
                  ScheduleDecisionName(sched.decision));
    }
  }
  std::printf("%lld/%lld backups moved to predicted low-load windows\n",
              static_cast<long long>(moved), static_cast<long long>(total));
  return 0;
}
