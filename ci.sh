#!/usr/bin/env bash
# ci.sh — the full CI pipeline; .github/workflows/ci.yml runs this script.
# Every leg must pass before a PR merges:
#   build; vet (root module and bench/, plus bench/'s reprolint and
#   tests); race-enabled tests (TestLedger among them: BENCH.ndjson held
#   to BENCHMARK.json's bounds); a 5 s fuzz pass over the wire codec, the
#   NSEC3 hash and the authoritative server's wire-level door; every
#   package-local benchmark once; the smokes over built binaries (authd
#   /metrics, survey metrics, distributed survey and resolver study,
#   resolver study sharded and one-world, statewalk); reprolint's
#   fixture self-check and its baseline ratchet.
# No leg measures speed: the numbers are bench/'s, committed in
# BENCH.ndjson, and allocation ceilings are AllocsPerRun pins in tier-1.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...
# bench/ is a module of its own (replace repro => ../), so the root
# ./... never compiles it: vet it here, or an API slip in what it calls
# surfaces only when the benchmark pipeline runs. Same for reprolint:
# bench/README.md promises the module is clean with no baseline. Its
# tests run too (~40 s): bench/layers.go probes AddLazyZone/ZoneFor and
# the deploy options directly, so a behavioural slip in that surface
# would otherwise show up only as a benchmark failure.
go -C bench vet ./...
(cd bench && go run repro/cmd/reprolint ./...)
go -C bench test ./...

echo "== test (-race) =="
go test -race ./...

echo "== fuzz (5s per target) =="
go test -run='^$' -fuzz=FuzzDecodeMessage -fuzztime=5s ./internal/dnswire/
# Unpack against the test-only field-by-field reference decoder: the
# same Message (or the same error text) for whatever the fuzzer finds.
go test -run='^$' -fuzz=FuzzUnpackDifferential -fuzztime=5s ./internal/dnswire/
# The plain-shape query reader ServeWire's miss path uses against Unpack:
# what it accepts Unpack accepts and reads the same (ID, flags, the one
# question, OPT presence, DO); what Unpack rejects it never accepts.
go test -run='^$' -fuzz=FuzzPlainQueryDifferential -fuzztime=5s ./internal/dnswire/
go test -run='^$' -fuzz=FuzzDecodeName -fuzztime=5s ./internal/dnswire/
go test -run='^$' -fuzz=FuzzHash -fuzztime=5s ./internal/nsec3/
# The authoritative server's wire-level door against the adapter around
# its own Handle, each input asked three times (miss, admitted, hit):
# the same octets or the same drop, and garbage never admitted.
go test -run='^$' -fuzz=FuzzServeWire -fuzztime=5s ./internal/netsim/

echo "== benchmarks (each once) =="
# The paper-figure ablations live beside the package they measure
# (DESIGN.md §4); one iteration each keeps them compiling and passing.
go test -run='^$' -bench=. -benchtime=1x ./internal/...

echo "== metrics smoke (authd -metrics, /healthz + /metrics) =="
SMOKE_DIR=$(mktemp -d)
go build -o "$SMOKE_DIR/authd" ./cmd/authd
"$SMOKE_DIR/authd" -testbed -listen 127.0.0.1:0 -metrics 127.0.0.1:0 \
  >"$SMOKE_DIR/authd.log" 2>&1 &
AUTHD_PID=$!
REPRO_PID=""
cleanup() {
  kill "$AUTHD_PID" 2>/dev/null || true
  [ -n "$REPRO_PID" ] && kill "$REPRO_PID" 2>/dev/null || true
  for p in "${W1_PID:-}" "${W2_PID:-}"; do
    [ -n "$p" ] && kill "$p" 2>/dev/null || true
  done
  rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT
# authd prints the bound metrics address once the listener is up.
METRICS_URL=""
for _ in $(seq 1 100); do
  METRICS_URL=$(sed -n 's#^authd: metrics on \(http://[^ ]*\)$#\1#p' "$SMOKE_DIR/authd.log")
  [ -n "$METRICS_URL" ] && break
  sleep 0.1
done
[ -n "$METRICS_URL" ] || { echo "authd never exposed /metrics"; cat "$SMOKE_DIR/authd.log"; exit 1; }
curl -fsS "${METRICS_URL%/metrics}/healthz" | grep -qx 'ok'
curl -fsS "$METRICS_URL" | grep -q '^authd_zones '
# The server counts its own queries and what its answer memo did with
# them (authd no longer wraps it in a counting Handler, which would have
# hidden ServeWire from the listener).
for m in authserver_queries_total authserver_answer_memo_hits_total \
  authserver_answer_memo_admitted_total authserver_answer_memo_flushes_total; do
  curl -fsS "$METRICS_URL" | grep -q "^$m " || { echo "authd /metrics lacks $m"; exit 1; }
done
echo "metrics smoke OK ($METRICS_URL)"

# scrape_until_exit <pid> <metrics url> <snapshot file> snapshots
# /metrics until the process exits: the endpoint dies with the process,
# so the last good scrape is kept for the caller to assert on.
scrape_until_exit() {
  local pid=$1 url=$2 snap=$3
  : > "$snap"
  while kill -0 "$pid" 2>/dev/null; do
    curl -fsS "$url" > "$snap.tmp" 2>/dev/null && mv "$snap.tmp" "$snap"
    sleep 0.1
  done
}

echo "== survey metrics smoke (repro -shards 2, lazy signing) =="
go build -o "$SMOKE_DIR/repro" ./cmd/repro
"$SMOKE_DIR/repro" -fig1 -shards 2 -domain-scale 50000 -metrics 127.0.0.1:0 \
  >"$SMOKE_DIR/repro.log" 2>&1 &
REPRO_PID=$!
SURVEY_URL=""
for _ in $(seq 1 100); do
  SURVEY_URL=$(sed -n 's#^repro: metrics on \(http://[^ ]*\)/metrics$#\1/metrics#p' "$SMOKE_DIR/repro.log")
  [ -n "$SURVEY_URL" ] && break
  sleep 0.1
done
[ -n "$SURVEY_URL" ] || { echo "repro never exposed /metrics"; cat "$SMOKE_DIR/repro.log"; exit 1; }
SNAP="$SMOKE_DIR/metrics.snap"
scrape_until_exit "$REPRO_PID" "$SURVEY_URL" "$SNAP"
wait "$REPRO_PID" || { echo "repro exited nonzero"; cat "$SMOKE_DIR/repro.log"; exit 1; }
REPRO_PID=""
grep -q '^survey_zones_signed_lazily_total ' "$SNAP"
grep -q '^survey_zones_untouched_total ' "$SNAP"
grep -q '^survey_rrsigs_signed_total [1-9]' "$SNAP"
grep -q '^survey_rrsigs_deferred_total [1-9]' "$SNAP"
grep -q '^authserver_sign_wait_ns_count ' "$SNAP"
echo "survey metrics smoke OK ($SURVEY_URL)"

# dist_smoke <name> <shards-completed metric> <study flags…> runs one
# study distributed — coordinator + 2 workers on loopback, all started
# with the same study flags — and checks the merged metrics and the
# checkpoints.
dist_smoke() {
  local name=$1 metric=$2
  shift 2
  echo "== distributed $name smoke (coordinator + 2 workers on loopback) =="
  local state="$SMOKE_DIR/dist-state-$name" log="$SMOKE_DIR/dist-$name"
  "$SMOKE_DIR/repro" -serve 127.0.0.1:0 "$@" \
    -state-dir "$state" -metrics 127.0.0.1:0 \
    >"$log.coord.log" 2>"$log.coord.err" &
  REPRO_PID=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's#^repro: coordinating on \(.*\)$#\1#p' "$log.coord.err")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "coordinator never bound"; cat "$log.coord.err"; exit 1; }
  local url
  url=$(sed -n 's#^repro: metrics on \(http://[^ ]*\)/metrics$#\1/metrics#p' "$log.coord.err")
  "$SMOKE_DIR/repro" -worker "$addr" "$@" >"$log.worker1.log" 2>&1 &
  W1_PID=$!
  "$SMOKE_DIR/repro" -worker "$addr" "$@" >"$log.worker2.log" 2>&1 &
  W2_PID=$!
  # The coordinator's last good scrape carries the merged worker
  # counters.
  local snap="$log.metrics.snap"
  scrape_until_exit "$REPRO_PID" "$url" "$snap"
  wait "$REPRO_PID" || { echo "coordinator exited nonzero"; cat "$log.coord.err"; exit 1; }
  REPRO_PID=""
  wait "$W1_PID" || { echo "worker 1 exited nonzero"; cat "$log.worker1.log"; exit 1; }
  wait "$W2_PID" || { echo "worker 2 exited nonzero"; cat "$log.worker2.log"; exit 1; }
  grep -q "^$metric " "$snap"
  grep -q '^distsurvey_leases_granted_total ' "$snap"
  grep -q '^distsurvey_workers_connected_total 2$' "$snap"
  ls "$state"/shard-*.json >/dev/null || { echo "no shard checkpoints written"; exit 1; }
  echo "distributed $name smoke OK (coordinator $addr)"
}
dist_smoke survey survey_shards_completed_total -fig1 -shards 4 -domain-scale 500000
dist_smoke resolver-study resolverstudy_shards_completed_total -fig3 -shards 4 -resolver-scale 2000

echo "== resolver study smoke (repro -fig3 -shards 2) =="
"$SMOKE_DIR/repro" -fig3 -shards 2 -resolver-scale 2000 -metrics 127.0.0.1:0 \
  >"$SMOKE_DIR/fig3.log" 2>"$SMOKE_DIR/fig3.err" &
REPRO_PID=$!
FIG3_URL=""
for _ in $(seq 1 100); do
  FIG3_URL=$(sed -n 's#^repro: metrics on \(http://[^ ]*\)/metrics$#\1/metrics#p' "$SMOKE_DIR/fig3.err")
  [ -n "$FIG3_URL" ] && break
  sleep 0.1
done
[ -n "$FIG3_URL" ] || { echo "repro -fig3 never exposed /metrics"; cat "$SMOKE_DIR/fig3.err"; exit 1; }
FSNAP="$SMOKE_DIR/fig3-metrics.snap"
scrape_until_exit "$REPRO_PID" "$FIG3_URL" "$FSNAP"
wait "$REPRO_PID" || { echo "repro -fig3 exited nonzero"; cat "$SMOKE_DIR/fig3.err"; exit 1; }
REPRO_PID=""
# Counters flush at each shard's merge, so the last pre-exit scrape
# reliably carries shard 1 (the open quadrants); the final merged
# report — all four quadrants — is asserted from stdout instead.
grep -q '^resolverstudy_probed_open_ipv4_total ' "$FSNAP"
grep -q '^resolverstudy_probed_open_ipv6_total ' "$FSNAP"
grep -q '^resolverstudy_shards_completed_total ' "$FSNAP"
# The fleet shares one signature-verification memo: by shard 1's merge
# it has answered thousands of RRSIG checks.
grep -q '^resolver_sig_verify_memo_hits_total [1-9]' "$FSNAP"
# Validators cache zone cuts: after a validator's first probe its walks
# start below the root.
grep -q '^resolver_delegation_cache_hits_total [1-9]' "$FSNAP"
grep -q 'Open, IPv4' "$SMOKE_DIR/fig3.log"
grep -q 'Open, IPv6' "$SMOKE_DIR/fig3.log"
grep -q 'Closed, IPv4' "$SMOKE_DIR/fig3.log"
grep -q 'Closed, IPv6' "$SMOKE_DIR/fig3.log"
grep -q 'validators (all quadrants)' "$SMOKE_DIR/fig3.log"
grep -q 'probe failures (no transcript)         0' "$SMOKE_DIR/fig3.log"
echo "resolver study smoke OK ($FIG3_URL)"

echo "== resolver study one-world smoke (676 validators, 10 s budget) =="
# One shard world of 676 validators sends ~106 K authoritative queries
# (310 K before validators cached zone cuts) through the testbed's one
# 65,536-entry QueryLog. When Record shifted the whole slice once full
# this took 71 s; as a ring it takes ~5 s. The budget is 10 s, the
# timeout only stops a regressed run from hanging CI.
ONEWORLD_START=$(date +%s)
timeout 30 "$SMOKE_DIR/repro" -fig3 -resolver-scale 200 -shards 1 >"$SMOKE_DIR/oneworld.log" \
  || { echo "one-world resolver study failed or ran past 30 s"; exit 1; }
ONEWORLD_S=$(( $(date +%s) - ONEWORLD_START ))
[ "$ONEWORLD_S" -lt 10 ] || { echo "one-world resolver study took ${ONEWORLD_S} s, budget 10 s"; exit 1; }
grep -q 'probe failures (no transcript)         0' "$SMOKE_DIR/oneworld.log"
echo "resolver study one-world smoke OK (${ONEWORLD_S} s)"

echo "== statewalk smoke (differential state-machine walk, fixed seed) =="
# Every (topology × profile) cell through the real resolver, diffed
# against the expectation model. Any unexplained divergence exits
# nonzero; the NDJSON report is kept as a CI artifact for triage.
"$SMOKE_DIR/repro" -statewalk -seed 7 -statewalk-out statewalk-report.ndjson \
  > "$SMOKE_DIR/statewalk.log" || { cat "$SMOKE_DIR/statewalk.log"; exit 1; }
SW_CELLS=$(sed -n 's/^  cells executed  *\([0-9]*\)$/\1/p' "$SMOKE_DIR/statewalk.log")
[ -n "$SW_CELLS" ] && [ "$SW_CELLS" -ge 200 ] || {
  echo "statewalk ran ${SW_CELLS:-0} cells, want >= 200"
  cat "$SMOKE_DIR/statewalk.log"
  exit 1
}
echo "statewalk smoke OK ($SW_CELLS cells, report in statewalk-report.ndjson)"

echo "== reprolint self-check (golden fixtures) =="
# Replays every analyzer's golden fixture and publishes the per-analyzer
# JSON report (findings, want-marker mismatches, timing) as an artifact.
# A diagnostic drifting from its fixture markers fails this leg even if
# the real tree stays clean.
go run ./cmd/reprolint -selfcheck internal/lint/testdata > reprolint-selfcheck.json
# That every analyzer in the suite has a fixture in the report is a
# test (TestSelfCheckReports), not a list to keep in sync here.
grep -q '"elapsed_ms"' reprolint-selfcheck.json \
  || { echo "self-check report lacks elapsed_ms timings"; exit 1; }

echo "== reprolint (baseline ratchet) =="
# The baseline is the tolerated-findings ratchet. MAX_BASELINE pins the
# ceiling at the committed entry count; it may only ever be decreased.
# One load-and-analyze pass both gates the build and writes the JSON
# report kept as a CI artifact for triage.
MAX_BASELINE=0
go run ./cmd/reprolint -json -baseline lint.baseline.json -max-baseline "$MAX_BASELINE" ./... > reprolint-report.json

echo "CI: all legs passed"
