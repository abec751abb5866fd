/// \file bench_common.h
/// \brief Shared setup for the per-figure benchmark binaries.
///
/// Every bench prints the rows/series of one table or figure from the
/// paper's evaluation. Fleet sizes are scaled down from production (tens
/// of thousands of servers per region) so a full `for b in bench/*` sweep
/// finishes on a laptop; the *shapes* — who wins, by what factor, where
/// the crossovers fall — are the reproduction target, not the absolute
/// numbers (DESIGN.md, EXPERIMENTS.md).

#pragma once

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/obs/metrics.h"
#include "common/strings.h"
#include "scheduling/model_eval.h"
#include "telemetry/fleet.h"

namespace seagull::bench {

/// Five-week horizon so the §5.3 protocol has a full training week before
/// each of the three evidence weeks (target week 4, evidence weeks 1-3).
inline constexpr int kEvalWeeks = 5;
inline constexpr int64_t kEvalTargetWeek = 4;

/// A fleet of exclusively long-lived unstable-no-pattern servers — the
/// cohort the paper applies ML models to (§5.3.3).
inline Fleet UnstableFleet(const std::string& name, int num_servers,
                           uint64_t seed) {
  RegionConfig config;
  config.name = name;
  config.num_servers = num_servers;
  config.weeks = kEvalWeeks;
  config.seed = seed;
  config.mix.short_lived = 0.0;
  config.mix.stable = 0.0;
  config.mix.daily = 0.0;
  config.mix.weekly = 0.0;
  config.mix.no_pattern = 1.0;
  return Fleet::Generate(config);
}

/// A production-mix fleet (Figure 3 proportions).
inline Fleet ProductionFleet(const std::string& name, int num_servers,
                             uint64_t seed, int weeks = kEvalWeeks) {
  RegionConfig config;
  config.name = name;
  config.num_servers = num_servers;
  config.weeks = weeks;
  config.seed = seed;
  return Fleet::Generate(config);
}

/// Evaluation options matching the §5.3 protocol.
inline ModelEvalOptions EvalOptions(ServerFilter filter = {},
                                    int64_t max_servers = 0) {
  ModelEvalOptions options;
  options.target_week = kEvalTargetWeek;
  options.filter = std::move(filter);
  options.max_servers = max_servers;
  return options;
}

/// Prints a horizontal rule + caption for a figure/table.
inline void PrintHeader(const char* figure, const char* caption) {
  std::printf("\n=== %s — %s ===\n", figure, caption);
}

/// `parse` (`ParseInt64` or `ParseDouble`) of the value `text` given
/// as `--<name>=text`. A malformed value exits 2 naming the flag, so
/// `--servers=1e5` cannot silently run one server, nor `--jobs=x` zero
/// jobs.
template <typename T>
T CheckedFlag(const char* name, std::string_view text,
              Result<T> (*parse)(std::string_view)) {
  Result<T> value = parse(text);
  if (!value.ok()) {
    std::fprintf(stderr, "error: --%s: %s\n", name,
                 value.status().ToString().c_str());
    std::exit(2);
  }
  return *value;
}

/// Writes `doc` pretty-printed to the BENCH_*.json trajectory file at
/// `path` and says so on stdout; an unwritable path is an IOError,
/// also reported on stderr.
inline Status WriteBenchJson(const std::string& path, const Json& doc) {
  std::ofstream out(path);
  out << doc.DumpPretty() << '\n';
  if (!out.flush()) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return Status::IOError("could not write " + path);
  }
  std::printf("wrote %s\n", path.c_str());
  return Status::OK();
}

/// Reads the budgets file at `path` and returns its top-level
/// `section`: IOError when the file cannot be read, the parse status
/// when it is not JSON, NotFound when the section is absent.
inline Result<Json> LoadBudgets(const std::string& path,
                                const std::string& section) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open budgets file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  SEAGULL_ASSIGN_OR_RETURN(Json doc, Json::Parse(buffer.str()));
  if (!doc.Contains(section)) {
    return Status::NotFound("budgets file " + path + " has no " + section +
                            " section");
  }
  return doc[section];
}

/// Runs `body` in a forked child and returns the bytes it returns,
/// carried back through a pipe. A forked child's peak-RSS watermark
/// (`VmHWM`) starts at its own resident size, so `body` can measure the
/// footprint of its own work with `ReadPeakRssBytes()`, with no
/// watermark reset (which would write under /proc). The parent trims
/// its malloc arenas first, so the child faults its working set in
/// anew instead of reusing pages the parent freed. Only the calling
/// thread exists in the child: call this while no other thread runs.
/// IOError when the pipe or the fork fails, or the child does not exit
/// 0 (a throw or an `Abort()` in `body`).
inline Result<std::string> RunInChild(
    const std::function<std::string()>& body) {
  TrimMallocArenas();
  std::fflush(nullptr);  // nothing buffered is written twice
  int fds[2];
  if (pipe(fds) != 0) return Status::IOError("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::IOError("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::string out = body();
      for (size_t done = 0; done < out.size();) {
        const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          code = 1;
          break;
        }
        done += static_cast<size_t>(n);
      }
    } catch (...) {
      code = 1;
    }
    // No exit handlers: they belong to the parent (a temporary lake's
    // directory, for one, is removed when its last handle goes).
    _exit(code);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return Status::IOError("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::IOError("measuring child failed");
  }
  return out;
}

}  // namespace seagull::bench
