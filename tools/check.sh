#!/bin/sh
# tools/check.sh — the repository's one-command verification gate.
#
# Builds and tests two configurations:
#   1. Release        — what the benchmarks and CLI ship as.
#   2. tsan+ubsan     — -fsanitize=thread,undefined,float-cast-overflow,
#                       which is what makes the parallel test layer
#                       (parallel_stress_test, fleet_determinism_test) an
#                       actual data-race gate rather than a convention.
#
# Usage:
#   tools/check.sh            # both configurations
#   tools/check.sh release    # Release only
#   tools/check.sh sanitize   # sanitizer build, full suite
#   tools/check.sh chaos      # fault-injection tests (ctest -L chaos)
#                             # under tsan+ubsan: races in the retry /
#                             # quarantine paths only show up while
#                             # faults are actually firing
#   tools/check.sh obs        # observability slice: unit + perf labels
#                             # in Release — the metrics/tracing suites
#                             # plus the op-count budget gate
#                             # (tests/budgets.json)
#   tools/check.sh perf       # data-plane throughput: the perf-label
#                             # tests plus bench/micro_substrate, which
#                             # writes BENCH_ingest.json (the SeriesBlock
#                             # decode rate; the rate of a `transcode`
#                             # CSV import — ParseTelemetryCsv plus
#                             # WriteSeriesBlockFromRecords — not a
#                             # pipeline ingest; the decode footprint
#                             # and the SGB1 writer's cost), and
#                             # bench/micro_forecast, which writes
#                             # BENCH_forecast.json (per-model Fit
#                             # p50/p99, the 1200-server same-grid
#                             # fleet row, and single-kernel
#                             # timings) and fails if a
#                             # model exceeds the forecast_train_micros
#                             # ceilings, or the batch row's shared
#                             # forecast the forecast_predict_micros
#                             # ones, in tests/budgets.json
#   tools/check.sh serving    # serving engine slice: the serving unit /
#                             # determinism suites in Release, then
#                             # bench/loadgen at the full 1200-server
#                             # fleet (writes BENCH_serving.json, fails
#                             # on the serving_micros per-verb ceilings
#                             # or the serving_min_throughput_rps floor
#                             # in tests/budgets.json), then a smaller
#                             # soak profile plus the determinism tests
#                             # under tsan+ubsan — query/ingest/tick
#                             # races only show up while all three run
#                             # concurrently (latency budgets are NOT
#                             # gated under tsan; only races are)
#   tools/check.sh scale      # fleet-scale memory plane: Release build,
#                             # then bench/fig12b_parallel --servers=100000
#                             # (shard-by-shard streaming-writer staging,
#                             # a jobs=1 and a jobs=8 pass over mmap
#                             # reads, digest-compared for byte-identity,
#                             # gated on the fleet_scale peak-RSS /
#                             # per-server / encoder-residency budgets
#                             # in tests/budgets.json, writes
#                             # BENCH_scale.json; set SEAGULL_SCALE_1M=1
#                             # to also run the --servers=1000000 row —
#                             # ~95 GB of telemetry staged and retired
#                             # shard-wise, allow a couple of hours),
#                             # then micro_substrate with the
#                             # ingest_memory per-server decode-peak
#                             # ceiling (both measure peaks in forked
#                             # children and write nothing under /proc;
#                             # a peak that cannot be read fails), then the
#                             # streaming decode/encode + mmap lake read
#                             # suites, the `kernels` label (raw-pointer
#                             # forecast kernels and their test-only
#                             # reference loops, and the additive model's
#                             # shared draws and hostile documents), the
#                             # untrusted-input
#                             # suites (serving_engine_test's ingest
#                             # admission and integer fields, the
#                             # forecast families' hostile model
#                             # documents,
#                             # common_strings_test's number parsers
#                             # under every flag, CSV field and JSON,
#                             # common_json_test's nesting cap,
#                             # pipeline_serving_test, azure_trace_test,
#                             # failure_injection_test's hostile blobs
#                             # through the whole pipeline) and
#                             # cli_smoke_test (hostile serve and
#                             # --docs input, including the 1e300 / 1.5
#                             # / "x" integers of run, stat and incident
#                             # documents) under asan+ubsan with
#                             # float-cast-overflow, which gcc's
#                             # -fsanitize=undefined leaves out (a
#                             # separate build dir — asan and tsan
#                             # cannot compose)
#   tools/check.sh serving-soak
#                             # ~60-second chaos soak under tsan+ubsan:
#                             # bench/loadgen on the spike profile with
#                             # 10% serving.refit faults and the full
#                             # verb mix (single + batch predicts,
#                             # subscription churn, ingest) — the
#                             # longest-running race probe of the
#                             # query/ingest/tick/notify paths. A fast
#                             # Release slice of the same run ships as
#                             # the `serving_soak` ctest entry under the
#                             # `serving` label.
#
# Exits non-zero on the first build or test failure.
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MODE="${1:-all}"
JOBS="$(nproc 2>/dev/null || echo 2)"
# gcc's -fsanitize=undefined leaves out float-cast-overflow (a double
# outside the target integer's range cast to it), so both sanitizer
# builds name it.
TSAN_FLAGS="-fsanitize=thread,undefined,float-cast-overflow"
ASAN_FLAGS="-fsanitize=address,undefined,float-cast-overflow"

# run_config <name> <build_dir> <ctest label or ''> [cmake args...]
run_config() {
  name="$1"
  build_dir="$2"
  label="$3"
  shift 3
  echo "=== [$name] configure ==="
  cmake -B "$build_dir" -S "$ROOT" "$@"
  echo "=== [$name] build ==="
  cmake --build "$build_dir" -j "$JOBS"
  echo "=== [$name] ctest ==="
  if [ -n "$label" ]; then
    (cd "$build_dir" && ctest --output-on-failure -j "$JOBS" -L "$label")
  else
    (cd "$build_dir" && ctest --output-on-failure -j "$JOBS")
  fi
  echo "=== [$name] OK ==="
}

sanitize_config() {
  label="$1"
  # tools/tsan.supp masks the known tsan x ubsan pipe-probe interop
  # report (see the file); everything else still fails the gate.
  TSAN_OPTIONS="suppressions=$ROOT/tools/tsan.supp ${TSAN_OPTIONS:-}"
  export TSAN_OPTIONS
  run_config tsan+ubsan "$ROOT/build-sanitize" "$label" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$TSAN_FLAGS -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"
}

case "$MODE" in
  release|all)
    run_config release "$ROOT/build-release" "" \
      -DCMAKE_BUILD_TYPE=Release
    ;;
  obs)
    run_config release "$ROOT/build-release" 'unit|perf' \
      -DCMAKE_BUILD_TYPE=Release
    ;;
  perf)
    run_config release "$ROOT/build-release" 'perf' \
      -DCMAKE_BUILD_TYPE=Release
    echo "=== [perf] bench/micro_substrate (writes BENCH_ingest.json) ==="
    (cd "$ROOT/build-release" &&
      ./bench/micro_substrate --benchmark_filter='Ingest')
    echo "=== [perf] bench/micro_forecast (writes BENCH_forecast.json," \
         "gates on tests/budgets.json forecast_train_micros and" \
         "forecast_predict_micros) ==="
    (cd "$ROOT/build-release" &&
      ./bench/micro_forecast --budgets="$ROOT/tests/budgets.json")
    echo "=== [perf] OK ==="
    ;;
  serving)
    run_config release "$ROOT/build-release" 'serving' \
      -DCMAKE_BUILD_TYPE=Release
    echo "=== [serving] bench/loadgen (writes BENCH_serving.json," \
         "gates on tests/budgets.json serving_micros) ==="
    (cd "$ROOT/build-release" &&
      ./bench/loadgen --servers=1200 --budgets="$ROOT/tests/budgets.json")
    echo "=== [serving] tsan soak ==="
    TSAN_OPTIONS="suppressions=$ROOT/tools/tsan.supp ${TSAN_OPTIONS:-}"
    export TSAN_OPTIONS
    cmake -B "$ROOT/build-sanitize" -S "$ROOT" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="$TSAN_FLAGS -fno-sanitize-recover=all" \
      -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"
    cmake --build "$ROOT/build-sanitize" -j "$JOBS" \
      --target serving_determinism_test loadgen
    (cd "$ROOT/build-sanitize" &&
      ctest --output-on-failure -R serving_determinism_test)
    (cd "$ROOT/build-sanitize" &&
      ./bench/loadgen --servers=200 --ticks=6 --base=100 --jobs=4)
    echo "=== [serving] OK ==="
    ;;
  scale)
    run_config release "$ROOT/build-release" 'unit' \
      -DCMAKE_BUILD_TYPE=Release
    echo "=== [scale] bench/fig12b_parallel --servers=100000 (writes" \
         "BENCH_scale.json, gates on tests/budgets.json fleet_scale," \
         "checks jobs=1 vs jobs=8 digest byte-identity) ==="
    (cd "$ROOT/build-release" &&
      ./bench/fig12b_parallel --servers=100000 --jobs=8 \
        --budgets="$ROOT/tests/budgets.json")
    if [ "${SEAGULL_SCALE_1M:-0}" = "1" ]; then
      echo "=== [scale] opt-in 1M-server row (SEAGULL_SCALE_1M=1):" \
           "~95 GB staged and retired shard-wise, budget-gated ==="
      (cd "$ROOT/build-release" &&
        ./bench/fig12b_parallel --servers=1000000 --jobs=8 \
          --budgets="$ROOT/tests/budgets.json")
    fi
    echo "=== [scale] bench/micro_substrate (ingest_memory decode-peak ceiling) ==="
    (cd "$ROOT/build-release" &&
      ./bench/micro_substrate --benchmark_filter='IngestStreaming' \
        --budgets="$ROOT/tests/budgets.json")
    echo "=== [scale] streaming decode/encode + mmap, forecast kernel," \
         "serving and untrusted-input suites under asan+ubsan ==="
    # A dedicated build dir: asan is incompatible with the tsan config
    # that build-sanitize holds.
    cmake -B "$ROOT/build-asan" -S "$ROOT" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="$ASAN_FLAGS -fno-sanitize-recover=all" \
      -DCMAKE_EXE_LINKER_FLAGS="$ASAN_FLAGS"
    cmake --build "$ROOT/build-asan" -j "$JOBS" \
      --target telemetry_series_block_test series_block_writer_test \
      store_lake_test telemetry_records_test \
      store_doc_test pipeline_modules_test \
      forecast_linalg_test forecast_linalg_kernel_test \
      forecast_batch_equivalence_test forecast_golden_test \
      forecast_additive_test forecast_ssa_test forecast_arima_test \
      forecast_neural_test forecast_persistent_test forecast_routed_test \
      serving_engine_test common_strings_test \
      common_json_test pipeline_serving_test azure_trace_test \
      failure_injection_test seagull_cli
    (cd "$ROOT/build-asan" && ctest --output-on-failure -R \
      'telemetry_series_block_test|series_block_writer_test|store_lake_test|telemetry_records_test|store_doc_test|pipeline_modules_test|forecast_ssa_test|forecast_arima_test|forecast_neural_test|forecast_persistent_test|forecast_routed_test|serving_engine_test|common_strings_test|common_json_test|pipeline_serving_test|azure_trace_test|failure_injection_test|cli_smoke_test')
    (cd "$ROOT/build-asan" && ctest --output-on-failure -L kernels)
    echo "=== [scale] OK ==="
    ;;
  serving-soak)
    TSAN_OPTIONS="suppressions=$ROOT/tools/tsan.supp ${TSAN_OPTIONS:-}"
    export TSAN_OPTIONS
    cmake -B "$ROOT/build-sanitize" -S "$ROOT" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="$TSAN_FLAGS -fno-sanitize-recover=all" \
      -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"
    cmake --build "$ROOT/build-sanitize" -j "$JOBS" --target loadgen
    echo "=== [serving-soak] ~60s tsan chaos soak (spike, 10% refit faults) ==="
    (cd "$ROOT/build-sanitize" &&
      ./bench/loadgen --servers=400 --ticks=24 --base=200 --jobs=4 \
        --profile=spike --fault-rate=0.1)
    echo "=== [serving-soak] OK ==="
    ;;
esac

case "$MODE" in
  sanitize|all)
    sanitize_config ""
    ;;
  chaos)
    sanitize_config chaos
    ;;
esac

case "$MODE" in
  release|sanitize|chaos|obs|perf|serving|serving-soak|scale|all) ;;
  *)
    echo "usage: tools/check.sh" \
         "[release|sanitize|chaos|obs|perf|serving|serving-soak|scale|all]" >&2
    exit 2
    ;;
esac

echo "check.sh: all requested configurations passed"
