#!/usr/bin/env sh
# CI-style verification: formatting, vet, race-enabled tests on the
# concurrency-sensitive packages (obs metrics hot paths, core executors),
# then the tier-1 gate (full build + test, see ROADMAP.md).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go test -race (obs, core, serve incl. sim soak + chaos harness, catalog, faultinject, crowd, opshttp, persist incl. crash-consistency property test) =="
go test -race ./internal/obs ./internal/core ./internal/serve ./internal/catalog \
    ./internal/faultinject ./internal/crowd ./internal/opshttp ./internal/persist

echo "== go test -race (chimera resilience + decision provenance + concurrent server) =="
go test -race ./internal/chimera -run 'TestResilientClient|TestClassifyDegraded|TestProvenance|TestServerMatchesDirectClassification'

echo "== bench emitter + exit-code selftests + bench artifact validation =="
sh scripts/bench.sh --emitter-selftest
sh scripts/bench.sh --exitcode-selftest
if ls BENCH_PR*.json >/dev/null 2>&1; then
    go run ./scripts/jsoncheck BENCH_PR*.json
fi

echo "== tier-1: go build ./... && go test ./... =="
go build ./...
go test ./...

echo "== benchmark module: vet + tests against the current program API =="
(cd perfbench && go vet ./... && go test ./...)

echo "verify: OK"
