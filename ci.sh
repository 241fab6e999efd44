#!/usr/bin/env bash
# ci.sh — the full CI pipeline; .github/workflows/ci.yml runs this script.
# Every leg must pass before a PR merges:
#   build; vet (root module and bench/, plus bench/'s reprolint and
#   tests, plus an arm64 vet and build for the non-amd64 SHA-1 stub);
#   race-enabled tests (TestLedger among them: BENCH.ndjson held to
#   BENCHMARK.json's bounds; every command's run is tested in-process
#   there too), then ten -race runs of the concurrency tests (fan-out,
#   build keys phase, keysFor, concurrent same-content signs through
#   one SignCache, the verify memo's alloc pin and its eight-goroutine
#   hammer, and the fan-out's users Atlas Measure, the resolver study's
#   cancelled probe pass and statewalk's cancelled run, ScanAll's
#   workers sharing one Source and scanning the same octets at any
#   worker count, netsim's loss draw from many goroutines and its
#   shared responses under one ID space and two, the distributed coordinator's cancel with a
#   silent worker and its two abandoned-lease cases, plus the
#   resolver's cached Results appended to from many goroutines); a 5 s
#   fuzz pass over the wire codec (the reply-status reader among it), the
#   NSEC3 hash, the signed octets of an RRSIG and the authoritative
#   server's wire-level door; every
#   package-local benchmark once; two legs over built binaries — the
#   real-socket chain authd -> resolved -> nsec3scan, the one leg that
#   crosses process boundaries, and the one-world resolver study; and
#   reprolint over the tree (any finding fails). The analyzers' own
#   fixtures are the tier-1 TestGolden, part of the race-enabled leg.
# The one-world leg is the one timed leg: it fails past a 10 s wall
# budget. Otherwise the numbers are bench/'s, committed in BENCH.ndjson,
# and allocation ceilings are AllocsPerRun pins in tier-1.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build =="
go build ./...

echo "== vet =="
# go vet's copylocks pass, over the root module here and over bench/
# below, is the tree's lock-copy check: a sync.Mutex, RWMutex or
# WaitGroup copied through a parameter, receiver, assignment or range
# variable fails this leg.
go vet ./...
# internal/nsec3's SHA-1 kernel is amd64 assembly; other architectures
# build a stub instead, which nothing above compiles. (go vet's asmdecl
# already checks the .s file against its Go declaration.) Two lines,
# not an && list: set -e does not stop on a failure left of an &&.
GOARCH=arm64 go vet ./internal/nsec3/
GOARCH=arm64 go build ./...
# bench/ is a module of its own (replace repro => ../), so the root
# ./... never compiles it: vet it here, or an API slip in what it calls
# surfaces only when the benchmark pipeline runs. Same for reprolint:
# bench/README.md promises the module is clean. Its
# tests run too (~40 s): bench/layers.go probes AddLazyZone/ZoneFor and
# the deploy options directly, so a behavioural slip in that surface
# would otherwise show up only as a benchmark failure.
go -C bench vet ./...
(cd bench && go run repro/cmd/reprolint ./...)
go -C bench test ./...

echo "== test (-race) =="
go test -race ./...

echo "== concurrency tests (-race, 10 runs each) =="
# One -race pass over ./... misses what only some interleavings show:
# repeat the tests of state several goroutines reach at once — the
# fan-out helper, the build's keys phase, SignCache.keysFor and
# SignCache.sign — the allocation pin whose race guard once was
# missing, the verify memo's table under eight goroutines, and the
# batches that run on fanout.Each: Atlas's Measure
# (ordering, EDE strip, cancel), the resolver study's probe pass and
# statewalk's cell loop under a cancelled context — ScanAll's workers
# taking turns at one Source (never concurrently, none after a
# cancellation, every domain to one sink once) and sending the same
# octets at one worker and at eight — netsim's loss draw, the same set
# lost serially and from 8 goroutines — and the distributed
# coordinator, where a lease lives as long as its connection: Serve
# cancelled while a worker holds a lease in silence, a job write that
# fails, and a second lease asked for on one connection — and the
# resolver's Results, whose sections are the upstream response's own:
# goroutines appending to the same cached Results — and the network's
# shared responses: two validators reading the same decoded DNSKEY and
# DS answers at once, under the same IDs and each in its own ID space.
go test -race -count=10 -run 'TestEach|TestBuildIndependentOfGOMAXPROCS$|TestKeysForConcurrent$|TestSignCacheSameContentConcurrent$|TestVerifyMemoHitAllocs$|TestVerifyMemoConcurrent$|TestMeasure|TestResolverStudyCancelled$|TestRunCancelled$|TestServeCancelWithSilentWorker$|TestSecondLeaseOnOneConnection$|TestJobWriteFailureReleasesLease$|TestScanAll|TestNetworkLossPure$|TestResultSectionsConcurrent$|TestSharedResponsesConcurrent$|TestSharedResponsesAcrossIDsConcurrent$' \
  ./internal/fanout/ ./internal/testbed/ ./internal/dnssec/ ./internal/atlas/ ./internal/core/ ./internal/statewalk/ ./internal/distsurvey/ ./internal/scanner/ ./internal/netsim/ ./internal/resolver/

echo "== fuzz (5s per target) =="
go test -run='^$' -fuzz=FuzzDecodeMessage -fuzztime=5s ./internal/dnswire/
# Unpack against the test-only field-by-field reference decoder: the
# same Message (or the same error text) for whatever the fuzzer finds.
go test -run='^$' -fuzz=FuzzUnpackDifferential -fuzztime=5s ./internal/dnswire/
# The plain-shape query reader ServeWire's miss path uses against Unpack:
# what it accepts Unpack accepts and reads the same (ID, flags, the one
# question, OPT presence, DO); what Unpack rejects it never accepts.
go test -run='^$' -fuzz=FuzzPlainQueryDifferential -fuzztime=5s ./internal/dnswire/
# The prober's reply-status reader against Unpack(...).ReplyStatus():
# wherever Unpack decodes a reply, the reader reads the same header,
# extended RCODE and EDEs.
go test -run='^$' -fuzz='^FuzzReplyStatusDifferential$' -fuzztime=5s ./internal/dnswire/
go test -run='^$' -fuzz=FuzzDecodeName -fuzztime=5s ./internal/dnswire/
# Anchored: an unanchored FuzzHash would also match FuzzHashFromOwner,
# and go test refuses a -fuzz pattern that matches two targets.
go test -run='^$' -fuzz='^FuzzHash$' -fuzztime=5s ./internal/nsec3/
# The owner-label decoder against a Labels + standard-library base32hex
# reference: the same 20 octets, or a rejection.
go test -run='^$' -fuzz='^FuzzHashFromOwner$' -fuzztime=5s ./internal/nsec3/
# The octets an RRSIG covers, built on verify's stack, against the
# test-only referenceSignedData: the same octets, or the same error.
go test -run='^$' -fuzz='^FuzzSignedDataDifferential$' -fuzztime=5s ./internal/dnssec/
# The authoritative server's wire-level door against the adapter around
# its own Handle, each input asked three times (miss, admitted, hit):
# the same octets or the same drop, and garbage never admitted.
go test -run='^$' -fuzz=FuzzServeWire -fuzztime=5s ./internal/netsim/

echo "== benchmarks (each once) =="
# The paper-figure ablations live beside the package they measure
# (DESIGN.md §4); one iteration each keeps them compiling and passing.
go test -run='^$' -bench=. -benchtime=1x ./internal/...

echo "== real-socket smoke (authd -> resolved -> nsec3scan over loopback) =="
# The §4.1 pipeline on real sockets and real processes: nsec3scan asks
# resolved, which validates what authd serves for a signed root zone.
# Every hop runs over netsim.UDPExchanger, which sends one datagram and
# leaves the retrying to the resolver and the scanner.
SMOKE_DIR=$(mktemp -d)
cleanup() {
  for p in "${ROOT_PID:-}" "${RESOLVED_PID:-}"; do
    [ -n "$p" ] && kill "$p" 2>/dev/null || true
  done
  rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT
for c in authd resolved nsec3scan repro; do go build -o "$SMOKE_DIR/$c" "./cmd/$c"; done
# await <log> <sed expression> prints what the expression extracts from
# the log once the process has written it. Each log is created before
# its process starts: under set -e a missing file ends the run.
await() {
  local v=""
  for _ in $(seq 1 100); do
    v=$(sed -n "$2" "$1")
    [ -n "$v" ] && break
    sleep 0.1
  done
  [ -n "$v" ] || { echo "no match for $2 in $1:" >&2; cat "$1" >&2; return 1; }
  echo "$v"
}
cat >"$SMOKE_DIR/root.zone" <<'ZONE'
$ORIGIN .
$TTL 300
@	3600	IN	SOA	a.root-servers.net. nstld.verisign-grs.com. 1 1800 900 604800 86400
@	3600	IN	NS	a.root-servers.net.
a.root-servers.net.	IN	A	127.0.0.1
ZONE
: >"$SMOKE_DIR/root.log"
"$SMOKE_DIR/authd" -listen 127.0.0.1:0 -zone ".=$SMOKE_DIR/root.zone" -iterations 5 -salt aabbccdd \
  >"$SMOKE_DIR/root.log" 2>&1 &
ROOT_PID=$!
ROOT_ADDR=$(await "$SMOKE_DIR/root.log" 's/^authd: listening on \([^ ]*\) (udp+tcp)$/\1/p')
ROOT_DS=$(sed -n 's/^authd: serving \. (NSEC3), DS for the parent: \(.*\)$/\1/p' "$SMOKE_DIR/root.log")
: >"$SMOKE_DIR/resolved.log"
"$SMOKE_DIR/resolved" -listen 127.0.0.1:0 -root "$ROOT_ADDR" -anchor "$ROOT_DS" \
  >"$SMOKE_DIR/resolved.log" 2>&1 &
RESOLVED_PID=$!
RESOLVED_ADDR=$(await "$SMOKE_DIR/resolved.log" 's/^resolved: .* listening on \([^ ,]*\), root .*, validation=true$/\1/p')
echo . | "$SMOKE_DIR/nsec3scan" -resolver "$RESOLVED_ADDR" >"$SMOKE_DIR/scan.out" 2>"$SMOKE_DIR/scan.err" \
  || { echo "nsec3scan exited nonzero"; cat "$SMOKE_DIR/scan.err"; exit 1; }
grep -qF '"nsec3param":["1 0 5 AABBCCDD"]' "$SMOKE_DIR/scan.out" \
  || { echo "nsec3scan did not report the root's NSEC3PARAM"; cat "$SMOKE_DIR/scan.out"; exit 1; }
grep -q '"nsec3_records":[1-9]' "$SMOKE_DIR/scan.out" \
  || { echo "nsec3scan saw no NSEC3 records"; cat "$SMOKE_DIR/scan.out"; exit 1; }
# SIGTERM ends both daemons' run with status 0.
kill "$RESOLVED_PID" "$ROOT_PID"
wait "$RESOLVED_PID" || { echo "resolved exited nonzero on SIGTERM"; cat "$SMOKE_DIR/resolved.log"; exit 1; }
wait "$ROOT_PID" || { echo "authd exited nonzero on SIGTERM"; cat "$SMOKE_DIR/root.log"; exit 1; }
ROOT_PID="" RESOLVED_PID=""
echo "real-socket smoke OK (authd $ROOT_ADDR, resolved $RESOLVED_ADDR)"

echo "== resolver study one-world smoke (676 validators, 10 s budget) =="
# All 676 validators in one shard world: every authoritative query of
# the study goes to the same servers and signed zones. A per-query cost
# that grows with what one world has served shows here as wall time: a
# query log that shifted its whole slice once full made this run take
# 71 s. It takes ~2 s on two cores. The budget is 10 s; the timeout
# only stops a regressed run from hanging CI.
ONEWORLD_START=$(date +%s)
timeout 30 "$SMOKE_DIR/repro" -fig3 -resolver-scale 200 -shards 1 >"$SMOKE_DIR/oneworld.log" \
  || { echo "one-world resolver study failed or ran past 30 s"; exit 1; }
ONEWORLD_S=$(( $(date +%s) - ONEWORLD_START ))
[ "$ONEWORLD_S" -lt 10 ] || { echo "one-world resolver study took ${ONEWORLD_S} s, budget 10 s"; exit 1; }
grep -q 'probe failures (no transcript)         0' "$SMOKE_DIR/oneworld.log"
echo "resolver study one-world smoke OK (${ONEWORLD_S} s)"

echo "== reprolint =="
# One load-and-analyze pass both gates the build — reprolint exits 1 on
# any finding — and writes the JSON report kept as a CI artifact for
# triage.
go run ./cmd/reprolint -json ./... > reprolint-report.json

echo "CI: all legs passed"
