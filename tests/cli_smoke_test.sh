#!/bin/sh
# Smoke test for the `seagull` CLI: generate -> pipeline -> schedule ->
# dashboard -> incidents -> advise against a scratch lake + doc store,
# plus a multi-region --jobs fleet run, the CSV export/import round trip
# through `transcode`, flag validation, and hostile blobs, model
# documents and request lines.
#
# This script must carry the executable bit: ctest invokes it directly,
# and a non-executable script fails as BAD_COMMAND with no output (the
# original seed failure mode). The checks below make every other failure
# mode loud instead of silent.
set -u

die() {
  echo "cli_smoke_test FAILED: $*" >&2
  for f in generate.out pipeline.out pipeline2.out fleet.out \
           transcode.out csv-pipeline.out transcode2.out transcoded.out \
           numbers.out \
           schedule.out retry1.out retry8.out \
           dashboard.out incidents.out advise.out \
           unknown.out jobs.out hostile.out hostile-incidents.out \
           pipeline-ssa.out serve-model.out \
           serve-hostile.out serve-hostile.err deep-docs.out; do
    if [ -f "$f" ]; then
      echo "--- $f ---" >&2
      cat "$f" >&2
    fi
  done
  exit 1
}

run() {
  step="$1"
  shift
  "$@" || die "step '$step' exited $? (command: $*)"
}

[ "$#" -ge 1 ] || die "usage: cli_smoke_test.sh /path/to/seagull_cli"
CLI="$1"
[ -e "$CLI" ] || die "CLI binary does not exist: $CLI"
[ -x "$CLI" ] || die "CLI binary is not executable: $CLI"

WORK="$(mktemp -d)" || die "mktemp failed"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || die "cd $WORK failed"

run generate "$CLI" generate --lake lake --region smoke --servers 25 \
  --weeks 5 --seed 5 > generate.out
grep -q "generated 25 servers" generate.out || die "generate output wrong"

run pipeline "$CLI" pipeline --lake lake --docs docs.json --region smoke \
  --week 3 > pipeline.out
grep -q "pipeline smoke week 3: ok" pipeline.out || die "pipeline not ok"
[ -f docs.json ] || die "docs.json was not written"

# Re-running the same week is a no-op (the scheduler's cadence).
run pipeline-rerun "$CLI" pipeline --lake lake --docs docs.json \
  --region smoke --week 3 > pipeline2.out
grep -q "not due" pipeline2.out || die "rerun was not a cadence no-op"

# Fleet mode: two more regions run concurrently through --jobs.
run generate-f1 "$CLI" generate --lake lake --region fleet-a --servers 15 \
  --weeks 5 --seed 6 > /dev/null
run generate-f2 "$CLI" generate --lake lake --region fleet-b --servers 15 \
  --weeks 5 --seed 7 > /dev/null
run fleet "$CLI" pipeline --lake lake --docs docs.json \
  --region fleet-a,fleet-b --week 3 --jobs 2 > fleet.out
grep -q "pipeline fleet-a week 3: ok" fleet.out || die "fleet-a not ok"
grep -q "pipeline fleet-b week 3: ok" fleet.out || die "fleet-b not ok"
grep -q "fleet: 2 regions, 2 ok" fleet.out || die "fleet summary wrong"

# CSV is the interchange edge, not a lake format. Export the smoke
# region's SGB1 week to CSV in place: the pipeline must then refuse the
# key, naming the format. Importing it back reproduces the original
# bytes, and the pipeline accepts the key again.
SMOKE_KEY=telemetry/smoke/week-0003.sgb
cp "lake/$SMOKE_KEY" smoke-week3.sgb1 || die "copy of the smoke week failed"
run transcode "$CLI" transcode --lake lake --key "$SMOKE_KEY" --to csv \
  > transcode.out
grep -q "binary.*-> .*csv" transcode.out || die "transcode to csv wrong"
head -c 9 "lake/$SMOKE_KEY" | grep -q "server_id" \
  || die "transcoded blob is not CSV"
"$CLI" pipeline --lake lake --docs docs-csv.json --region smoke --week 3 \
  > csv-pipeline.out 2>&1
status=$?
[ "$status" -eq 1 ] || die "pipeline over a CSV blob exited $status, expected 1"
grep -q "pipeline smoke week 3: FAILED" csv-pipeline.out \
  || die "pipeline over a CSV blob not reported FAILED"
grep -q "not a SeriesBlock" csv-pipeline.out \
  || die "pipeline over a CSV blob did not name the format"
run transcode-back "$CLI" transcode --lake lake --key "$SMOKE_KEY" \
  > transcode2.out
grep -q "csv.*-> .*binary" transcode2.out || die "transcode to binary wrong"
cmp -s "lake/$SMOKE_KEY" smoke-week3.sgb1 \
  || die "SGB1 -> CSV -> SGB1 did not reproduce the original bytes"

# A re-run of week 3 in a fresh doc store reads the re-imported blob and
# must succeed.
run pipeline-transcoded "$CLI" pipeline --lake lake \
  --docs docs-transcoded.json --region smoke --week 3 > transcoded.out
grep -q "pipeline smoke week 3: ok" transcoded.out \
  || die "run over the transcoded blob not ok"

# Day 28 = first day of week 4, the scheduled week.
run schedule "$CLI" schedule --lake lake --docs docs.json --region smoke \
  --day 28 > schedule.out
grep -q "servers due" schedule.out || die "schedule output wrong"

# Telemetry reads run under the --retries policy. With half of all
# store operations faulted, one attempt per read fails the day, and
# eight attempts ride the faults out.
"$CLI" schedule --lake lake --docs docs.json --region smoke --day 28 \
  --fault-rate 0.5 --fault-seed 1 --retries 1 > retry1.out 2>&1
status=$?
[ "$status" -eq 1 ] || die "schedule --retries 1 exited $status, expected 1"
grep -q "injected fault at lake.get" retry1.out \
  || die "schedule --retries 1 did not fail on an injected lake.get fault"
run schedule-retried "$CLI" schedule --lake lake --docs docs.json \
  --region smoke --day 28 --fault-rate 0.5 --fault-seed 1 --retries 8 \
  > retry8.out 2>&1
grep -q "servers due" retry8.out || die "retried schedule output wrong"

run dashboard "$CLI" dashboard --docs docs.json > dashboard.out
grep -q "smoke" dashboard.out || die "dashboard missing region"

run incidents "$CLI" incidents --docs docs.json --region smoke \
  > incidents.out

# Advise on any server that has telemetry.
SERVER="smoke-srv-00000"
"$CLI" advise --lake lake --docs docs.json --region smoke \
  --server "$SERVER" --day 28 --start 12:00 --duration 60 > advise.out \
  || grep -q "no telemetry" advise.out || die "advise failed"

# Unknown command and missing flags fail with non-zero status.
if "$CLI" bogus > /dev/null 2>&1; then die "bogus command succeeded"; fi
if "$CLI" pipeline --region smoke > /dev/null 2>&1; then
  die "pipeline without required flags succeeded"
fi

# Unknown flags fail with exit 2 before the command does any work.
# expect_unknown_flag <command> <flag> <value> [other flags...]
expect_unknown_flag() {
  cmd="$1"
  flag="$2"
  value="$3"
  shift 3
  "$CLI" "$cmd" "$@" --"$flag" "$value" < /dev/null > unknown.out 2>&1
  status=$?
  [ "$status" -eq 2 ] || die "$cmd --$flag exited $status, expected 2"
  grep -q "error: unknown flag --$flag for $cmd" unknown.out \
    || die "$cmd --$flag rejection message wrong"
  [ ! -e docs-unknown.json ] || die "$cmd --$flag run still wrote its docs"
}
STORE="--lake lake --docs docs-unknown.json --region smoke"
# The removed mmap on/off switch and blob cache size (spelled in two
# pieces so no live reference to either remains in the tree), the
# removed worker-count spelling --threads (--jobs sizes the one pool),
# and a typo of --jobs.
expect_unknown_flag pipeline "lake-""mmap" 0 $STORE --week 3
expect_unknown_flag pipeline "lake-""cache-mb" 64 $STORE --week 3
expect_unknown_flag schedule "lake-""cache-mb" 64 $STORE --day 28
expect_unknown_flag pipeline threads 2 $STORE --week 3
expect_unknown_flag serve threads 2 --synthetic
expect_unknown_flag pipeline job 4 $STORE --week 3
# generate writes SGB1 only; its removed --format switch is unknown.
expect_unknown_flag generate format csv --lake lake-format --region smoke
[ ! -e lake-format ] || die "generate --format still wrote a lake"

# Numeric flags are parsed and range-checked once, before any work: a
# value that is not a finite number, or lies outside its flag's range,
# exits 1 with a message naming the flag (and the range), and writes no
# lake or docs file. Ceilings are not probed by running a command above
# them: were the bound broken, that command would do all that work.
# expect_bad_number <message> <command> [flags...]
expect_bad_number() {
  message="$1"
  shift
  "$CLI" "$@" < /dev/null > numbers.out 2>&1
  status=$?
  [ "$status" -eq 1 ] || die "$* exited $status, expected 1"
  grep -qxF "error: Invalid: $message" numbers.out \
    || die "$* rejection message wrong"
  [ ! -e lake-numbers ] || die "$* still wrote a lake"
  [ ! -e docs-numbers.json ] || die "$* still wrote its docs"
}
NUMBERS_PIPELINE="pipeline --lake lake --docs docs-numbers.json --region smoke"
expect_bad_number "--servers must be a number" \
  generate --lake lake-numbers --region smoke --servers 2O
expect_bad_number "--fault-rate must be a number" \
  $NUMBERS_PIPELINE --week 3 --fault-rate 0.1x --fault-seed 1
expect_bad_number "--week must be a number" $NUMBERS_PIPELINE --week x
# A negative fleet size used to abort in an allocation (exit 134), and
# zero servers or weeks exited 0 having written nothing.
expect_bad_number "--servers must be in [1, 1000000]" \
  generate --lake lake-numbers --region smoke --servers -5
expect_bad_number "--servers must be in [1, 1000000]" \
  serve --synthetic --servers -5
expect_bad_number "--servers must be in [1, 1000000]" \
  generate --lake lake-numbers --region smoke --servers 0
expect_bad_number "--weeks must be in [1, 520]" \
  generate --lake lake-numbers --region smoke --weeks 0
# nan used to leave fault injection silently off, and 2 faulted every
# store operation.
expect_bad_number "--fault-rate must be a number" \
  $NUMBERS_PIPELINE --week 3 --fault-rate nan --fault-seed 1
expect_bad_number "--fault-rate must be in [0, 1]" \
  $NUMBERS_PIPELINE --week 3 --fault-rate 2 --fault-seed 1
# A zero horizon used to serve the 1440-minute default, and --week -1
# was reported as a missing flag.
expect_bad_number "--horizon must be in [1, 20160]" \
  serve --synthetic --servers 2 --horizon 0
# The one ceiling probed from above: were it broken, two servers would
# only forecast two weeks and exit.
expect_bad_number "--horizon must be in [1, 20160]" \
  serve --synthetic --servers 2 --horizon 20161
expect_bad_number "--week must be >= 0" $NUMBERS_PIPELINE --week -1
# Zero clients, ticks or base rate made loadtest exit 0 having sent no
# request.
LOADTEST="loadtest --synthetic --servers 2"
expect_bad_number "--clients must be >= 1" $LOADTEST --mode closed --clients 0
expect_bad_number "--ticks must be >= 1" $LOADTEST --ticks 0
expect_bad_number "--base must be >= 1" $LOADTEST --base -5
expect_bad_number "--batch-size must be >= 1" $LOADTEST --batch-size 0
# advise checks --start and --duration before any work. 01:75 used to
# answer for 02:15 and exit 0, 25:00 to ask about the next day, and
# -1:30 to fail as a window crossing the day boundary.
ADVISE="advise --lake lake --docs docs.json --region smoke --server $SERVER"
for start in 01:75 25:00 -1:30; do
  expect_bad_number \
    "--start must be HH:MM with HH in [0, 23] and MM in [0, 59]" \
    $ADVISE --day 28 --start "$start"
done
expect_bad_number "--duration must be in [1, 1440]" \
  $ADVISE --day 28 --start 12:00 --duration 0

# --jobs is parsed before any work into [1, 256] (each job is one OS
# thread). Zero, one past the ceiling and a non-integer fail with exit 1
# and write no docs.
# expect_bad_jobs <command> <value> [other flags...]
expect_bad_jobs() {
  cmd="$1"
  value="$2"
  shift 2
  "$CLI" "$cmd" "$@" --jobs "$value" < /dev/null > jobs.out 2>&1
  status=$?
  [ "$status" -eq 1 ] || die "$cmd --jobs $value exited $status, expected 1"
  case "$value" in
    x) message='error: Invalid: --jobs must be a number' ;;
    *) message='error: Invalid: --jobs must be in \[1, 256\]' ;;
  esac
  grep -q "$message" jobs.out \
    || die "$cmd --jobs $value rejection message wrong"
  [ ! -e docs-jobs.json ] || die "$cmd --jobs $value still wrote its docs"
}
for value in 0 257 x; do
  expect_bad_jobs pipeline "$value" --lake lake --docs docs-jobs.json \
    --region smoke --week 3
  expect_bad_jobs schedule "$value" --lake lake --docs docs-jobs.json \
    --region smoke --day 28
  expect_bad_jobs serve "$value" --synthetic --servers 2
  expect_bad_jobs loadtest "$value" --synthetic --servers 2 --ticks 1
done

# A 44-byte SGB1 blob with a valid trailer (FNV-1a of the first 36
# bytes) over a header claiming 2^40 servers: the region must fail
# cleanly (no abort), and the ingestion incident must reach the doc
# store.
mkdir -p lake/telemetry/hostile || die "mkdir hostile failed"
printf '\123\107\102\061\001\000\000\000\000\000\000\000\005\000\000\000\000\000\000\000\000\000\000\000\000\001\000\000\000\000\000\000\000\000\000\000\063\222\331\131\017\020\276\140' \
  > lake/telemetry/hostile/week-0003.sgb
[ "$(wc -c < lake/telemetry/hostile/week-0003.sgb)" -eq 44 ] \
  || die "hostile blob is not 44 bytes"
"$CLI" pipeline --lake lake --docs docs-hostile.json --region hostile \
  --week 3 > hostile.out 2>&1
status=$?
[ "$status" -ne 0 ] || die "pipeline accepted the hostile blob"
[ "$status" -lt 128 ] || die "pipeline died on a signal ($status)"
grep -q "pipeline hostile week 3: FAILED" hostile.out \
  || die "hostile region not reported FAILED"
run incidents-hostile "$CLI" incidents --docs docs-hostile.json \
  --region hostile > hostile-incidents.out
grep -q "ingestion: .*more servers than the blob can hold" \
  hostile-incidents.out || die "no ingestion incident for hostile blob"

# A hostile model document: the docs of an SSA run with one model's
# interval set to 0. `serve` restored it unchecked and died with SIGFPE
# (exit 136) on its first tick; the restore must now reject it, naming
# the field, before anything is served.
run pipeline-ssa "$CLI" pipeline --lake lake --docs docs-ssa.json \
  --region smoke --week 3 --model ssa > pipeline-ssa.out
grep -q '"interval":5,"lrf"' docs-ssa.json || die "no SSA model in docs-ssa.json"
# The docs file is one line, so sed edits the first SSA model only.
sed 's/"interval":5,"lrf"/"interval":0,"lrf"/' docs-ssa.json \
  > docs-ssa-hostile.json
printf '{"verb":"tick"}\n' | "$CLI" serve --lake lake \
  --docs docs-ssa-hostile.json --region smoke > serve-model.out 2>&1
status=$?
[ "$status" -eq 1 ] || die "serve over a hostile model exited $status, expected 1"
grep -q "model field interval = 0 outside" serve-model.out \
  || die "serve did not name the hostile model field"

# Hostile JSON. A request line nested 20,000 deep (40 KB) used to
# overflow the stack of `serve` (exit 139), a day of 1e300 was cast
# to int64_t unchecked, and a stateless predict for a horizon near 2^53
# aborted it with std::bad_alloc (exit 134). Each must get a structured
# Invalid, and the request after them must still be answered.
deep() {
  printf '%20000s' '' | tr ' ' '['
  printf '%20000s' '' | tr ' ' ']'
}
{
  printf '{"verb":"predict","server_id":'
  deep
  printf '}\n'
  printf '{"verb":"ll_window","server_id":"serve-srv-00000","day":1e300}\n'
  printf '{"verb":"predict","server_id":"x","start":0,"horizon_minutes":9007199254740990,"recent":{"start":0,"interval":5,"values":[1,2,3]}}\n'
  printf '{"verb":"ll_window","server_id":"serve-srv-00000"}\n'
} > hostile-requests.jsonl
[ "$(wc -c < hostile-requests.jsonl)" -gt 40000 ] \
  || die "hostile request line is not 40 KB"
"$CLI" serve --synthetic --servers 2 < hostile-requests.jsonl \
  > serve-hostile.out 2> serve-hostile.err
status=$?
[ "$status" -eq 0 ] || die "serve exited $status on hostile requests"
sed -n 1p serve-hostile.out | grep -q '"code":"Invalid"' \
  || die "nested request line not answered Invalid"
sed -n 2p serve-hostile.out | grep -q '"code":"Invalid"' \
  || die "day 1e300 not answered Invalid"
sed -n 3p serve-hostile.out | grep -q '"code":"Invalid".*"ok":false' \
  || die "horizon near 2^53 not answered Invalid"
sed -n 4p serve-hostile.out | grep -q '"ok":true' \
  || die "serve stopped answering after hostile requests"

# The same parser reads --docs files.
deep > deep-docs.json
"$CLI" dashboard --docs deep-docs.json > deep-docs.out 2>&1
status=$?
[ "$status" -eq 1 ] || die "20000-deep --docs file exited $status, expected 1"

# Integer fields of --docs documents are read checked: a week, count or
# version that is not an integer within +/-2^53 (1e300, 1.5, "x") counts
# as absent. Casting 1e300 to an integer is undefined behaviour, which
# the float-cast-overflow sanitizer build stops on.
cat > hostile-numbers.json <<'DOCS'
{"pipeline_runs":[
 {"pk":"smoke","id":"h1","body":{"week":1e300,"success":true,
  "incidents":1e300,"retries":1e300,"total_millis":1}},
 {"pk":"smoke","id":"h2","body":{"week":1.5,"success":true,
  "incidents":1.5,"retries":1.5,"total_millis":1}},
 {"pk":"smoke","id":"h3","body":{"week":"x","success":true,
  "incidents":"x","retries":"x","total_millis":1}}],
 "model_version_stats":[
 {"pk":"smoke","id":"h1","body":{"version":1e300,"predictable_fraction":1}},
 {"pk":"smoke","id":"h2","body":{"version":1.5,"predictable_fraction":1}},
 {"pk":"smoke","id":"h3","body":{"version":"x","predictable_fraction":1}}],
 "incidents":[
 {"pk":"smoke","id":"h1","body":{"week":1e300,"severity":"error",
  "module":"hostile","message":"m"}},
 {"pk":"smoke","id":"h2","body":{"week":1.5,"severity":"error",
  "module":"hostile","message":"m"}},
 {"pk":"smoke","id":"h3","body":{"week":"x","severity":"error",
  "module":"hostile","message":"m"}}]}
DOCS
run hostile-incidents "$CLI" incidents --docs hostile-numbers.json \
  --region smoke > hostile-numbers-incidents.out
[ "$(grep -c 'week -1 hostile' hostile-numbers-incidents.out)" -eq 3 ] \
  || die "incident weeks 1e300, 1.5 and x not read as absent"
run hostile-dashboard "$CLI" dashboard --docs hostile-numbers.json \
  > hostile-numbers-dashboard.out
grep -Eq '^smoke +3 +0 +1\.0 +0\.0% +0 +0 +0$' hostile-numbers-dashboard.out \
  || die "dashboard counted hostile incidents or retries"
run hostile-pipeline "$CLI" pipeline --lake lake --docs hostile-numbers.json \
  --region smoke --week 3 > hostile-numbers-pipeline.out
grep -q "pipeline smoke week 3: ok" hostile-numbers-pipeline.out \
  || die "hostile run weeks or stat versions were not read as absent"

echo "cli smoke test ok"
