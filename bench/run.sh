#!/usr/bin/env bash
# Builds the harness inside the checkout and runs it with the arguments
# given. The Go build cache, GOPATH, the go command's own config
# directory (its telemetry counters) and the binary all live under
# .bench_build/ so that a run writes nothing outside the checkout; the
# first run in a checkout pays the full build, later runs only a
# staleness check.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/nsec3bench" .)
cd "$root"
exec "$build/nsec3bench" "$@"
