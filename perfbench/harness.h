/// \file harness.h
/// \brief Shared pieces of the repository benchmark: clocks, quantiles,
/// the benchmark-side span log, the metric report, and the workload
/// shape.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (idx - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// One recorded interval around a call into a layer.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Spans the benchmark records around its calls into the library. Kept
/// in memory and aggregated when a phase ends; disabled (every `Add` a
/// no-op) in untraced runs.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  void Add(std::string name, int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start_ns, end_ns});
  }

  /// Removes and returns every span recorded so far.
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    out.swap(spans_);
    return out;
  }

 private:
  const bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Durations (ms) of every span named `name`.
inline std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                       const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

inline double SumMs(const std::vector<Span>& spans, const std::string& name) {
  double sum = 0.0;
  for (double ms : DurationsMs(spans, name)) sum += ms;
  return sum;
}

/// Named metrics of one run, split the way BENCHMARK.json splits them.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;  ///< why `correct` is false

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// Sizes of the weekly fleet phase.
struct FleetSpec {
  int regions;
  int servers_per_region;
  bool unstable;  ///< unstable-no-pattern cohort, else Fig. 3 mix
  std::string model;
};

/// Shape of the serving phase.
struct ServeSpec {
  int servers;
  std::string refit_model;  ///< empty: refit through the endpoint
};

/// One benchmark workload: a fleet phase, then a serving phase.
struct Workload {
  std::string name;
  FleetSpec fleet;
  ServeSpec serve;
};

}  // namespace perfbench
