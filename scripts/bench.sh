#!/bin/sh
# Hot-path benchmark runner: exercises the end-to-end run benchmarks
# plus the pcm/thermal/cluster/sim microbenchmarks several times and
# records the samples (with per-benchmark medians) as JSON.
#
# Usage: scripts/bench.sh [count] [out.json]
#
#   count     repetitions per benchmark (go test -count; default 5)
#   out.json  output path (default BENCH_PR15.json in the repo root)
#
# Medians over several -count repetitions are the comparison currency:
# single runs on shared machines swing tens of percent. Compare the
# committed BENCH_PR15.json against a fresh run on the same host, not
# across hosts. The BenchmarkSessionStep median vs BenchmarkRun is the
# session-seam overhead bound (acceptance: ≤5%). Every benchmark runs
# with -benchmem; custom metrics (BenchmarkRunScale's per-band wall
# shares, <band>-%) are recorded as medians under "metrics".
#
# A/B baseline: unless BENCH_NO_BASE=1, BenchmarkRunScale,
# BenchmarkJobStream and the physics microbenchmarks also run in an
# extracted copy of $BASE (default: HEAD) and land in the same JSON
# under BenchmarkBase* names, so a working-tree change can be compared
# against the commit it started from on the same host in the same
# sitting. The scaling rows and BenchmarkJobStream alternate between
# the two trees round by round, so host drift lands on both sides
# alike. A base that predates bench_scale_test.go gets the working
# tree's copy, which uses only the exported API.
set -eu

cd "$(dirname "$0")/.."

COUNT=${1:-5}
OUT=${2:-BENCH_PR15.json}
TMP=$(mktemp)
BASETMP=$(mktemp)
SCALEBIN=$(mktemp)
BASETREE=
cleanup() {
    rm -f "$TMP" "$BASETMP" "$SCALEBIN"
    if [ -n "$BASETREE" ]; then
        rm -rf "$BASETREE"
    fi
}
trap cleanup EXIT

if [ "${BENCH_NO_BASE:-0}" != 1 ] && git rev-parse --verify -q "${BASE:-HEAD}" >/dev/null; then
    BASETREE=$(mktemp -d)
    git archive "${BASE:-HEAD}" | tar -x -C "$BASETREE"
    if [ ! -f "$BASETREE/bench_scale_test.go" ]; then
        cp bench_scale_test.go "$BASETREE/"
    fi
    echo "== baseline @ $(git rev-parse --short "${BASE:-HEAD}") in $BASETREE" >&2
fi

run_bench() {
    # run_bench <package> <pattern> <benchtime>
    echo "== $1 ($2)" >&2
    go test -run '^$' -bench "$2" -benchtime "$3" -count "$COUNT" -benchmem "$1" >>"$TMP"
}

# The scaling curve: one two-day VMT-TA/VMT-WA run per op from 100 to
# 4,000 servers, with per-band wall shares; and the query-level load
# model: one op of BenchmarkJobStream is a round-robin and a VMT-TA
# JobStream run at 100 servers, so it times the stream manager's
# per-task path end to end. Each round runs every row once in this
# tree and once at $BASE, the side that goes first alternating.
AB='^(BenchmarkRunScale|BenchmarkJobStream)$'
echo "== . (BenchmarkRunScale, BenchmarkJobStream; $COUNT rounds alternating with the baseline)" >&2
go test -c -o "$SCALEBIN" .
if [ -n "$BASETREE" ]; then
    (cd "$BASETREE" && go test -c -o vmt.test .)
fi
ab_here() {
    "$SCALEBIN" -test.run '^$' -test.bench "$AB" -test.benchtime 1x -test.benchmem >>"$TMP"
}
ab_base() {
    if [ -n "$BASETREE" ]; then
        (cd "$BASETREE" && ./vmt.test -test.run '^$' -test.bench "$AB" -test.benchtime 1x -test.benchmem) >"$BASETMP"
        sed 's/^Benchmark/BenchmarkBase/' "$BASETMP" >>"$TMP"
    fi
}
r=0
while [ "$r" -lt "$COUNT" ]; do
    if [ $((r % 2)) -eq 0 ]; then
        ab_here
        ab_base
    else
        ab_base
        ab_here
    fi
    r=$((r + 1))
done

run_bench .                   '^(BenchmarkRun|BenchmarkSessionStep|BenchmarkRunTraced|BenchmarkRunStreamed|BenchmarkRunFullObservability)$'            20x
run_bench .                   '^BenchmarkAblationStudy(Cached|Uncached)$'                            5x
run_bench .                   '^BenchmarkAdaptiveGVStudy(Cached|Uncached)$'                          3x
run_bench ./internal/pcm/     'BenchmarkPackApply|BenchmarkEstimatorUpdate|BenchmarkCurveProjection' 2000000x
run_bench ./internal/thermal/ 'BenchmarkNodeStep'                                                    200000x
run_bench ./internal/cluster/ 'BenchmarkClusterStepWorkers'                                          500x

# FleetStep scaling: the worker-count comparison is sampled
# round-robin — one -count=1 invocation per variant per round — rather
# than as one consecutive block per variant. Host throughput drifts
# over tens of seconds on shared machines; consecutive sampling folds
# that drift into the variant comparison, interleaving spreads it
# evenly so the per-variant medians are comparable.
fleetstep() {
    # fleetstep <n> <benchtime> <rounds>
    echo "== ./internal/cluster/ (BenchmarkFleetStep n=$1, $3 interleaved rounds)" >&2
    r=0
    while [ "$r" -lt "$3" ]; do
        for w in 1 4 8; do
            go test -run '^$' -bench "^BenchmarkFleetStep\$/^n=$1\$/^workers=$w\$" \
                -benchtime "$2" -count 1 ./internal/cluster/ >>"$TMP"
        done
        r=$((r + 1))
    done
}

fleetstep 1000    500x "$COUNT"
fleetstep 10000   100x "$COUNT"
fleetstep 100000  20x  $((COUNT + 2))
fleetstep 1000000 3x   3

run_bench ./internal/sim/     'BenchmarkPeriodicDispatch|BenchmarkManyOneShots'                      100x

# A/B leg: the physics microbenchmarks at $BASE, renamed Benchmark ->
# BenchmarkBase so the aggregator files them separately. FleetStep only
# exists in trees that have the SoA store, so the baseline sticks to
# the benchmarks both sides define.
if [ -n "$BASETREE" ]; then
    echo "== baseline microbenchmarks" >&2
    (cd "$BASETREE" && \
        go test -run '^$' -bench 'BenchmarkClusterStepWorkers' -benchtime 500x -count "$COUNT" -benchmem ./internal/cluster/ && \
        go test -run '^$' -bench 'BenchmarkNodeStep' -benchtime 200000x -count "$COUNT" -benchmem ./internal/thermal/) >"$BASETMP"
    sed 's/^Benchmark/BenchmarkBase/' "$BASETMP" >>"$TMP"
fi

awk -v count="$COUNT" '
# median of the n values a[key, 0..n-1] (insertion sort into s)
function median(a, key, n,    i, j, v, s) {
    for (i = 0; i < n; i++) s[i] = a[key, i] + 0
    for (i = 1; i < n; i++) {
        v = s[i]
        for (j = i - 1; j >= 0 && s[j] > v; j--) s[j + 1] = s[j]
        s[j + 1] = v
    }
    return n % 2 ? s[int(n / 2)] : (s[n / 2 - 1] + s[n / 2]) / 2
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    ns = ""; bop = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        else if ($(i + 1) == "B/op") bop = $i
        else if ($(i + 1) == "allocs/op") allocs = $i
        else if ($(i + 1) ~ /-%$/) {
            unit = $(i + 1)
            key = name SUBSEP unit
            if (!(key in nm)) { units[name] = units[name] " " unit }
            mval[key, nm[key]++] = $i
        }
    }
    if (ns == "") next
    n = samples[name]++
    val[name, n] = ns
    lastb[name] = bop
    lasta[name] = allocs
    if (!(name in order)) { order[name] = ++norder; names[norder] = name }
}
END {
    printf "{\n  \"count\": %d,\n  \"benchmarks\": [\n", count
    for (k = 1; k <= norder; k++) {
        name = names[k]
        n = samples[name]
        printf "    {\"name\": \"%s\", \"median_ns_op\": %g, \"samples_ns_op\": [", name, median(val, name, n)
        for (i = 0; i < n; i++) printf "%s%g", (i ? ", " : ""), val[name, i] + 0
        printf "]"
        if (lastb[name] != "") printf ", \"b_op\": %s, \"allocs_op\": %s", lastb[name], lasta[name]
        if (units[name] != "") {
            m = split(substr(units[name], 2), list, " ")
            printf ", \"metrics\": {"
            for (i = 1; i <= m; i++) {
                key = name SUBSEP list[i]
                printf "%s\"%s\": %g", (i > 1 ? ", " : ""), list[i], median(mval, key, nm[key])
            }
            printf "}"
        }
        printf "}%s\n", (k < norder ? "," : "")
    }
    printf "  ]\n}\n"
}' "$TMP" >"$OUT"

echo "wrote $OUT" >&2
