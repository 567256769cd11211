#!/bin/sh
# Repo-wide verification: formatting, vet, build, tests, and a race
# pass over the concurrency-bearing packages. Run from the repo root
# (or via `make check`).
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# go_test_named FLAGS PATTERN PACKAGE... runs go test FLAGS -run PATTERN
# over the packages (FLAGS is split into words) once each |-separated
# alternative of PATTERN has matched a test, fuzz target or example
# that go test -list finds in them. Otherwise it fails naming the
# alternative: a stage whose alternative matches nothing would pass
# with "[no tests to run]".
go_test_named() {
    flags=$1 pattern=$2
    shift 2
    go test -list "$pattern" "$@" > "$tmp/list.out"
    for alt in $(echo "$pattern" | tr '|' ' '); do
        if ! grep -v -e '^ok ' -e '^? ' -e '^Benchmark' "$tmp/list.out" | grep -Eq -- "$alt"; then
            echo "-run alternative '$alt' matches no test in $*" >&2
            exit 1
        fi
    done
    go test $flags -run "$pattern" "$@"
}

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== vmtlint (strict: stale allows are failures)"
go run ./cmd/vmtlint -strict ./...

echo "== go build"
go build ./...

echo "== perfbench (its own module: vet and build it against this tree)"
(cd perfbench && go vet . && go build -o /dev/null .)

echo "== go test"
go test ./...

echo "== golden + property harness (short mode)"
go_test_named '-short -count=1' 'TestGolden|Property|BitIdentical' \
    . ./internal/pcm/ ./internal/thermal/ ./internal/cluster/

echo "== differential oracle (SoA fleet vs scalar Node.Step, bit-exact)"
go_test_named -count=1 'TestFleetOracle|TestFleetStepRangeFirstError' ./internal/thermal/

echo "== placement index, key slab and power column vs references, wax-state mask vs live predicates"
# Every VMT placement and eviction query, masked or not, is answered by
# the cluster (placement index or key-slab scan) and by a linear scan
# over the servers from the same rotation start, under seeded churn,
# crashes, retunes, migrations, Byzantine reports and a workload
# interned mid-run, at 8, 100 and 613 servers; every tree node must
# match a rebuild, and every key-slab word the server fields it packs,
# once the cluster's first query has packed them (until then only the
# jobs fields are kept). After every place, remove, crash, repair and
# evacuation by either manager, every server's entry in the power
# column must bit-equal the draw its fields give. Servers are capped at
# the 32,767 cores the keys hold exactly. Every read of VMT-WA's
# wax-state mask must equal the predicates evaluated live, through
# fault-injected runs of VMT-WA, its oracle ablation and VMT-preserve
# under both managers, and inside the window between each report
# change (a report filter, a Byzantine lie, a repair's estimator reset)
# and the scheduler's Tick.
go_test_named -count=1 'TestPlacementIndex|TestPowerColumn|TestWaxMask|TestSpecValidateCoreCap' \
    ./internal/cluster/ ./internal/core/ ./internal/thermal/

echo "== completion queue vs container/heap, ties included"
# The stream manager's typed completion heap and a container/heap
# oracle run the same seeded push/pop interleavings, with completion
# times drawn from as few as one distinct value: every pop must return
# the same (at, server, entry), and both arrays must match after every
# operation, because tie order can decide which server a fallback
# SelectRemoval hits.
go_test_named -count=1 'TestCompletionQueueMatchesContainerHeap' ./internal/sched/

echo "== spec round-trip (encode -> decode -> execute, cache-key sensitivity, spec drift)"
# Settings decode onto Config and the cache key hashes it: every keyed
# field must move the key, the settings fuzz corpus must stay a
# canonical fixpoint, and results/specs must match -emit-specs.
go_test_named -count=1 \
    'TestSpecRoundTripExecute|TestSpecJSONRoundTrip|TestConfigKeySensitivity|FuzzConfigFromSettings' \
    . ./internal/experiment/
go_test_named -count=1 'TestEmittedSpecsMatchCommitted' ./cmd/vmtreport/

echo "== stepped-vs-monolith equivalence (session tick loop)"
# The session's tick loop: its stage order, horizons that end between
# ticks, step counts whose duration overflows, and a session stepped
# tick-by-tick and in ragged chunks bit-identical to the monolithic Run
# — the contract that lets Run be a thin wrapper over Session without
# re-blessing any golden fixture.
go_test_named -count=1 \
    'TestSessionStepToCompletionMatchesRun|TestSessionStepped|TestSessionHorizonBoundsSource|TestSessionStageOrder|TestSessionHorizonNotMultipleOfStep|TestSessionStepOverflow' .

echo "== go test -race (concurrency-bearing packages)"
go_test_named '-race -count=1' 'Test' \
    ./internal/telemetry/ ./internal/cliobs/ ./internal/experiment/ \
    ./internal/sched/ ./internal/fault/ ./internal/topology/
go_test_named '-race -short -count=1' \
    'TestStepPhysicsWorkersBitIdentical|TestStepAggregates|TestEnergyConservationRandomJobs|TestFleetStoreInvariants' \
    ./internal/cluster/
go_test_named '-race -count=1' \
    'TestFleetOracleChunkedStepping|TestFleetViewAliasesState|TestSnapshotRoundTripBitIdentical' \
    ./internal/thermal/
go_test_named '-race -count=1' \
    'TestRunMany|TestInstrumented|TestDefaultObservers|TestDefaultObservability|TestPhysicsWorkers|TestFaultRunBitIdentical|TestCorrelatedFault|TestCacheCorruptionQuarantine|TestStreamMemoryIsBounded|TestSession' .
go test -race ./internal/workload/ -count=1

echo "== vmtdiff self-check (determinism, end to end)"
# Two identical runs must diff clean; a one-value mutation must be
# pinpointed at its exact tick with exit status 1.
go build -o "$tmp/vmtsim" ./cmd/vmtsim
go build -o "$tmp/vmtdiff" ./cmd/vmtdiff
"$tmp/vmtsim" -servers 10 -baseline=false -fleet-log "$tmp/a.ndjson" >/dev/null
"$tmp/vmtsim" -servers 10 -baseline=false -fleet-log "$tmp/b.ndjson" >/dev/null
"$tmp/vmtdiff" "$tmp/a.ndjson" "$tmp/b.ndjson" >/dev/null
awk 'NR==100 { sub(/"cooling_load_w":[0-9.eE+-]+/, "\"cooling_load_w\":1.5") } { print }' \
    "$tmp/a.ndjson" > "$tmp/c.ndjson"
status=0
"$tmp/vmtdiff" "$tmp/a.ndjson" "$tmp/c.ndjson" > "$tmp/diff.out" || status=$?
if [ "$status" -ne 1 ]; then
    echo "vmtdiff on a mutated stream exited $status, want 1" >&2
    exit 1
fi
if ! grep -q 'tick 100.*cooling_load_w' "$tmp/diff.out"; then
    echo "vmtdiff did not pinpoint the mutated tick:" >&2
    cat "$tmp/diff.out" >&2
    exit 1
fi

# mutation_check NAME FILE PROGRAM WHAT PATTERN FAILURE COMMAND...
# copies the tree to $tmp/NAME and rewrites FILE there with the awk
# PROGRAM, failing with "found no WHAT to mutate" if that changed
# nothing. It then runs COMMAND in the copy and fails with FAILURE
# unless the command exits with status 1 and its output matches the
# grep PATTERN.
mutation_check() {
    name=$1 file=$2 program=$3 what=$4 pattern=$5 failure=$6
    shift 6
    dir="$tmp/$name"
    mkdir -p "$dir"
    tar cf - --exclude ./.git --exclude ./results --exclude ./.bench_build \
        --exclude ./vmt.test . | (cd "$dir" && tar xf -)
    awk "$program" "$file" > "$dir/$file"
    if cmp -s "$file" "$dir/$file"; then
        echo "found no $what to mutate" >&2
        exit 1
    fi
    status=0
    (cd "$dir" && "$@") > "$tmp/$name.out" 2>&1 || status=$?
    if [ "$status" -ne 1 ] || ! grep -q -- "$pattern" "$tmp/$name.out"; then
        echo "$failure (exit status $status, want 1):" >&2
        cat "$tmp/$name.out" >&2
        exit 1
    fi
}

echo "== kernelparity self-check (one-token kernel drift is pinpointed)"
# Flip a single token in stepLanes's lane body, the fleet's only
# mirror of Node.Step, and demand kernelparity fail the build naming
# the exact divergent position — the guarantee the scalar/SoA
# bit-identity story rests on.
go build -o "$tmp/vmtlint" ./cmd/vmtlint
mutline=$(grep -n 'toWax \* subSec' internal/thermal/fleet.go | head -1 | cut -d: -f1)
mutation_check kernelmut internal/thermal/fleet.go \
    '!done && sub(/toWax \* subSec/, "toRoom * subSec") { done = 1 } { print }' \
    "'toWax * subSec' in stepLanes" \
    "internal/thermal/fleet.go:$mutline: \[kernelparity\].*diverges from oracle" \
    "kernelparity did not pinpoint the mutated line $mutline" \
    "$tmp/vmtlint" ./internal/thermal/

echo "== outcome-comparison self-check (a worker-dependent drift is caught)"
# Nudge MaxCPUTempC, a series the bit-identity tests once skipped, only
# when physics runs on more than one worker, and demand the
# PhysicsWorkers property test fail: the determinism tests compare the
# whole outcome, every series, counter and grid.
mutation_check outcomemut internal/cluster/cluster.go \
    '!done && /^\treturn sample, nil$/ {
        print "\tif c.workers > 1 {"; print "\t\tsample.MaxCPUTempC += 1e-9"; print "\t}"; done = 1
    } { print }' \
    "'return sample, nil' in Cluster.Step" \
    '--- FAIL: TestPhysicsWorkersBitIdenticalProperty' \
    "TestPhysicsWorkersBitIdenticalProperty did not catch a worker-dependent MaxCPUTempC drift" \
    go test -count=1 -short -run '^TestPhysicsWorkersBitIdenticalProperty$' .

echo "== wax-mask invalidation self-check (a dropped report-epoch bump is caught)"
# Delete the fault injector's report-epoch bump after its Byzantine
# refresh and demand that the window test fail by name: without it, a
# placement between the lie starting and the scheduler's Tick reads a
# stale wax-state mask.
mutation_check maskmut internal/fault/injector.go \
    '/inj\.byz\[id\]\.refresh\(now\)/ { seen = 1 }
    seen && !done && /inj\.c\.ReportsChanged\(\)/ { done = 1; next } { print }' \
    "report-epoch bump after Injector.Tick's Byzantine refresh" \
    '--- FAIL: TestWaxMaskWindowByzantineRefresh' \
    "TestWaxMaskWindowByzantineRefresh did not catch a dropped post-refresh report-epoch bump" \
    go test -count=1 -run '^TestWaxMaskWindowByzantineRefresh$' ./internal/core/

echo "== key-slab self-check (a crash that leaves its place keys alone is caught)"
# Delete the row rewrite from Cluster.MarkFailed, so a crashed server's
# place keys keep offering its free cores, and demand that the
# decision-level test fail by name.
mutation_check keymut internal/cluster/cluster.go \
    '/^func \(c \*Cluster\) MarkFailed\(/ { inside = 1 }
    inside && !done && /^\t\ts\.packRow\(\)$/ { done = 1; next }
    /^}/ { inside = 0 } { print }' \
    "row rewrite in Cluster.MarkFailed" \
    '--- FAIL: TestPlacementIndexMatchesScan' \
    "TestPlacementIndexMatchesScan did not catch a crash that left its place keys unchanged" \
    go test -count=1 -run '^TestPlacementIndexMatchesScan$' ./internal/core/

echo "== power-column self-check (a repair that leaves its draw at zero is caught)"
# Delete the power-column write from Cluster.MarkRepaired, so a
# repaired server keeps drawing nothing in the physics until its next
# job move, and demand that the power-column test fail by name.
mutation_check powmut internal/cluster/cluster.go \
    '/^func \(c \*Cluster\) MarkRepaired\(/ { inside = 1 }
    inside && !done && /^\t\ts\.storePower\(\)$/ { done = 1; next }
    /^}/ { inside = 0 } { print }' \
    "power-column write in Cluster.MarkRepaired" \
    '--- FAIL: TestPowerColumnMatchesFields' \
    "TestPowerColumnMatchesFields did not catch a repair that left its power column at zero" \
    go test -count=1 -run '^TestPowerColumnMatchesFields$' ./internal/core/

echo "== report check (a full vmtreport reproduces results/)"
# Rerun the command in results/README.md and demand the committed
# output: stdout equal to results/report.txt once the per-artifact
# "(<artifact> in <t>s)" timing lines are dropped, and the four CSVs
# and four line-chart SVGs equal byte for byte. The heat-map SVGs the
# command also writes are not committed.
repdir="$tmp/report"
mkdir -p "$repdir"
go build -o "$tmp/vmtreport" ./cmd/vmtreport
"$tmp/vmtreport" -servers 1000 -csv "$repdir/csv" -svg "$repdir/svg" > "$repdir/report.txt"
timing='^([a-z0-9-]* in [0-9.]*s)$'
grep -v "$timing" results/report.txt > "$repdir/want.txt"
grep -v "$timing" "$repdir/report.txt" > "$repdir/got.txt"
if ! diff "$repdir/want.txt" "$repdir/got.txt" > "$repdir/report.diff"; then
    echo "vmtreport's output differs from results/report.txt:" >&2
    head -40 "$repdir/report.diff" >&2
    exit 1
fi
for f in csv/fig12.csv csv/fig13.csv csv/fig15.csv csv/fig16.csv \
    svg/fig12.svg svg/fig13.svg svg/fig15.svg svg/fig16.svg; do
    if ! cmp "results/$f" "$repdir/$f"; then
        echo "vmtreport's $f differs from results/$f" >&2
        exit 1
    fi
done

echo "ok"
