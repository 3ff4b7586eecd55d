#!/usr/bin/env sh
# Classification-serving benchmark runner: the locked vs snapshot serving
# pair, the per-item vs batch-inverted matching pair, the decision-
# provenance (audit) overhead trio, and the persistence overhead ladder (no
# store / WAL / WAL+fsync per rulebase mutation), emitted as a
# machine-readable summary in BENCH_PR9.json (the bench trajectory
# artifact). The emitted JSON is validated with scripts/jsoncheck before the
# script reports success.
#
# Usage: scripts/bench.sh [benchtime]     (default 2s, e.g. "5x" or "3s")
#        scripts/bench.sh --emitter-selftest
#        scripts/bench.sh --exitcode-selftest
#
# --emitter-selftest runs a canned go-bench fixture (including rows without
# custom metrics, malformed rows, and metric units that need sanitizing)
# through the JSON emitter and validates the result — the CI guard for the
# emitter itself, independent of how long the real benchmarks take.
#
# --exitcode-selftest re-invokes the script with an injected bench failure
# (BENCH_INJECT_FAIL=1) and requires a nonzero exit — the CI guard that a
# failing `go test -bench` can never again be masked by output plumbing.
set -eu
# POSIX sh has no pipefail; enable it where the shell offers it so any
# remaining pipeline still propagates the left side's failure. The
# load-bearing guard, though, is run_bench below, which avoids pipelines
# entirely.
if (set -o pipefail) 2>/dev/null; then set -o pipefail; fi

cd "$(dirname "$0")/.."

# The awk program that turns `go test -bench` output into the JSON summary.
# Hardening contract (pinned by --emitter-selftest):
#   - only rows that look like a benchmark result are parsed: field 2 must
#     be a positive integer (iterations), field 3 numeric (ns/op), field 4
#     literally "ns/op" — anything else (garbage lines, pass/fail chatter,
#     truncated rows) is skipped, never half-emitted;
#   - trailing columns are value/unit pairs (b.ReportMetric output); a pair
#     whose value is not numeric is dropped, and an odd dangling column is
#     ignored rather than emitted keyless;
#   - units are sanitized to JSON-key-safe names ([A-Za-z0-9_], a leading
#     digit gets an underscore prefix: "90pct" -> "_90pct");
#   - an input with no valid rows emits an empty benchmarks array, not a
#     blank/malformed row.
EMITTER='
/^Benchmark/ && NF >= 4 && $2 ~ /^[0-9]+$/ && $4 == "ns/op" \
    && $3 ~ /^-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns[name] = $3
    row = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, $3)
    for (i = 5; i + 1 <= NF; i += 2) {
        val = $i; unit = $(i + 1)
        if (val !~ /^-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/)
            continue
        gsub(/[^A-Za-z0-9_]/, "_", unit)
        if (unit ~ /^[0-9]/)
            unit = "_" unit
        if (unit == "")
            continue
        row = row sprintf(", \"%s\": %s", unit, val)
    }
    row = row "}"
    rows = rows (rows == "" ? "" : ",\n") row
}
END {
    print "{"
    print "  \"benchmarks\": ["
    if (rows != "")
        print rows
    print "  ],"
    batch = 0
    if (ns["BenchmarkBatchClassifyBatchInverted"] > 0)
        batch = ns["BenchmarkBatchClassifyPerItemIndexed"] / ns["BenchmarkBatchClassifyBatchInverted"]
    snap = 0
    if (ns["BenchmarkServeSnapshotUnderMutation"] > 0)
        snap = ns["BenchmarkServeLockedUnderMutation"] / ns["BenchmarkServeSnapshotUnderMutation"]
    audit = 0
    if (ns["BenchmarkBatchClassifyAuditOff"] > 0)
        audit = ns["BenchmarkBatchClassifyAuditDefault"] / ns["BenchmarkBatchClassifyAuditOff"]
    auditfull = 0
    if (ns["BenchmarkBatchClassifyAuditOff"] > 0)
        auditfull = ns["BenchmarkBatchClassifyAuditFull"] / ns["BenchmarkBatchClassifyAuditOff"]
    # Persistence ladder: how much a mutation costs with the WAL attached
    # (and with the fsync barrier) relative to no store at all.
    poff = ns["BenchmarkPersistOff"]
    pw = 0; if (poff > 0 && ns["BenchmarkPersistWAL"] > 0) pw = ns["BenchmarkPersistWAL"] / poff
    pf = 0; if (poff > 0 && ns["BenchmarkPersistWALFsync"] > 0) pf = ns["BenchmarkPersistWALFsync"] / poff
    printf "  \"batch_inverted_speedup_vs_per_item\": %.2f,\n", batch
    printf "  \"snapshot_speedup_vs_locked\": %.2f,\n", snap
    printf "  \"audit_overhead_ratio_default_sampling\": %.4f,\n", audit
    printf "  \"audit_overhead_ratio_full_capture\": %.4f,\n", auditfull
    printf "  \"persist_wal_overhead_ratio\": %.2f,\n", pw
    printf "  \"persist_wal_fsync_overhead_ratio\": %.2f\n", pf
    print "}"
}
'

if [ "${1:-}" = "--emitter-selftest" ]; then
    FIXTURE=$(mktemp); SELFOUT=$(mktemp)
    trap 'rm -f "$FIXTURE" "$SELFOUT"' EXIT
    cat > "$FIXTURE" <<'FIX'
goos: linux
BenchmarkGood-8   	     100	  12345 ns/op	     678.9 items/sec
BenchmarkNoCustom-8	      50	    999 ns/op
BenchmarkOddTail-8 	      10	      5 ns/op	      12.3
BenchmarkDigitUnit-8	      10	      5 ns/op	       3.5 90pct	xyz bogus/unit
BenchmarkBadIter-8 	      xx	      5 ns/op
BenchmarkTruncated-8
not a benchmark line at all
PASS
FIX
    awk "$EMITTER" "$FIXTURE" > "$SELFOUT"
    go run ./scripts/jsoncheck "$SELFOUT"
    # The fixture's good rows must be present, the malformed ones absent.
    for want in BenchmarkGood BenchmarkNoCustom BenchmarkOddTail BenchmarkDigitUnit _90pct; do
        grep -q "$want" "$SELFOUT" || { echo "selftest: missing $want" >&2; exit 1; }
    done
    for absent in BenchmarkBadIter BenchmarkTruncated bogus; do
        if grep -q "$absent" "$SELFOUT"; then
            echo "selftest: emitted malformed row $absent" >&2; exit 1
        fi
    done
    # An empty input still emits valid JSON (empty benchmarks array).
    : > "$FIXTURE"
    awk "$EMITTER" "$FIXTURE" > "$SELFOUT"
    go run ./scripts/jsoncheck "$SELFOUT"
    echo "emitter selftest ok"
    exit 0
fi

if [ "${1:-}" = "--exitcode-selftest" ]; then
    # Re-invoke the script with an injected bench failure and require the
    # failure to surface as a nonzero exit. This is the regression guard for
    # the old `go test -bench | tee` pipelines, whose exit status was tee's:
    # a failing benchmark run reported success.
    if BENCH_INJECT_FAIL=1 sh "$0" 1x >/dev/null 2>&1; then
        echo "exitcode selftest: injected bench failure exited 0" >&2
        exit 1
    fi
    echo "exitcode selftest ok"
    exit 0
fi

BENCHTIME="${1:-2s}"
# The audit trio runs a full pipeline pass per op (seconds each), so a
# duration-based benchtime would give it one noisy iteration; pin a fixed
# iteration count instead.
AUDIT_BENCHTIME="${AUDIT_BENCHTIME:-6x}"
# The persistence ladder's fsync rung converges fast (each op is an fsync);
# 1s keeps the three rungs cheap while still averaging hundreds of syncs.
PERSIST_BENCHTIME="${PERSIST_BENCHTIME:-1s}"
PATTERN='^(BenchmarkServeLockedUnderMutation|BenchmarkServeSnapshotUnderMutation|BenchmarkBatchClassifyPerItemIndexed|BenchmarkBatchClassifyBatchInverted)$'
AUDIT_PATTERN='^BenchmarkBatchClassifyAudit(Off|Default|Full)$'
PERSIST_PATTERN='^BenchmarkPersist(Off|WAL|WALFsync)$'
OUT=BENCH_PR9.json
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# run_bench PATTERN BENCHTIME: run one bench rung, echoing the raw output
# and appending it to $RAW. Deliberately NOT `go test | tee`: in plain POSIX
# sh (no pipefail) a pipeline's status is the LAST command's, so a failing
# benchmark run exited 0 through tee and set -e never fired. Capturing to a
# file and returning go test's own status makes the failure land regardless
# of what the shell supports. BENCH_INJECT_FAIL short-circuits with a
# failure so --exitcode-selftest can prove the propagation end to end.
run_bench() {
    if [ -n "${BENCH_INJECT_FAIL:-}" ]; then
        echo "bench: injected failure (BENCH_INJECT_FAIL)" >&2
        return 1
    fi
    _tmp=$(mktemp)
    _status=0
    go test -run '^$' -bench "$1" -benchtime "$2" . > "$_tmp" 2>&1 || _status=$?
    cat "$_tmp"
    cat "$_tmp" >> "$RAW"
    rm -f "$_tmp"
    return $_status
}

echo "== go test -bench (benchtime=$BENCHTIME) =="
run_bench "$PATTERN" "$BENCHTIME"

echo "== go test -bench audit overhead (benchtime=$AUDIT_BENCHTIME) =="
run_bench "$AUDIT_PATTERN" "$AUDIT_BENCHTIME"

echo "== go test -bench persistence ladder (benchtime=$PERSIST_BENCHTIME) =="
run_bench "$PERSIST_PATTERN" "$PERSIST_BENCHTIME"

awk "$EMITTER" "$RAW" > "$OUT"
go run ./scripts/jsoncheck "$OUT"

echo
echo "wrote $OUT:"
cat "$OUT"
