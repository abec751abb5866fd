#include "pipeline/dashboard.h"

#include "common/strings.h"

namespace seagull {

Status Dashboard::Record(const PipelineContext& ctx,
                         const PipelineRunReport& report) {
  Container* runs = docs_->GetContainer(kRunsContainer);
  Document doc;
  doc.partition_key = ctx.region;
  doc.id = StringPrintf("w%04lld", static_cast<long long>(ctx.week));
  doc.body = Json::MakeObject();
  doc.body["week"] = ctx.week;
  doc.body["success"] = report.success;
  doc.body["total_millis"] = report.TotalMillis();
  doc.body["incidents"] = report.incident_count;
  doc.body["retries"] = report.retries;
  doc.body["quarantined"] = report.retries_exhausted;
  Json timings = Json::MakeObject();
  for (const auto& t : report.timings) timings[t.module] = t.millis;
  doc.body["timings"] = std::move(timings);
  Json stats = Json::MakeObject();
  for (const auto& [key, value] : ctx.stats) stats[key] = value;
  doc.body["stats"] = std::move(stats);
  return runs->Upsert(std::move(doc));
}

std::vector<Dashboard::RegionSummary> Dashboard::Summarize() const {
  Container* runs = docs_->GetContainer(kRunsContainer);
  std::map<std::string, RegionSummary> by_region;
  std::map<std::string, int64_t> last_week;
  for (const auto& doc : runs->Query([](const Document&) { return true; })) {
    RegionSummary& s = by_region[doc.partition_key];
    s.region = doc.partition_key;
    ++s.runs;
    if (!doc.body.GetBool("success").ValueOr(false)) ++s.failures;
    s.avg_total_millis += doc.body.GetNumber("total_millis").ValueOr(0.0);
    // Integer fields of untrusted documents: one that is not an integer
    // within ±2^53 counts as absent.
    s.incidents += doc.body.GetInt64("incidents").ValueOr(0);
    s.retries += doc.body.GetInt64("retries").ValueOr(0);
    if (doc.body.GetBool("quarantined").ValueOr(false)) ++s.quarantines;
    const int64_t week = doc.body.GetInt64("week").ValueOr(0);
    if (week >= last_week[doc.partition_key]) {
      last_week[doc.partition_key] = week;
      s.last_predictable_fraction =
          doc.body["stats"]
              .GetNumber("accuracy.predictable_fraction")
              .ValueOr(0.0);
    }
  }
  std::vector<RegionSummary> out;
  for (auto& [region, s] : by_region) {
    if (s.runs > 0) s.avg_total_millis /= static_cast<double>(s.runs);
    out.push_back(s);
  }
  return out;
}

std::string Dashboard::Render() const {
  std::string out;
  out += StringPrintf("%-12s %6s %6s %12s %12s %10s %8s %6s\n", "region",
                      "runs", "fails", "avg_ms", "predictable", "incidents",
                      "retries", "quar");
  for (const auto& s : Summarize()) {
    out += StringPrintf("%-12s %6lld %6lld %12.1f %11.1f%% %10lld %8lld "
                        "%6lld\n",
                        s.region.c_str(), static_cast<long long>(s.runs),
                        static_cast<long long>(s.failures),
                        s.avg_total_millis,
                        100.0 * s.last_predictable_fraction,
                        static_cast<long long>(s.incidents),
                        static_cast<long long>(s.retries),
                        static_cast<long long>(s.quarantines));
  }
  return out;
}

}  // namespace seagull
