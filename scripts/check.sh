#!/bin/sh
# Repo-wide verification: formatting, vet, build, tests, and a race
# pass over the concurrency-bearing packages. Run from the repo root
# (or via `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== vmtlint (strict: stale allows are failures; warm cache in .vmtlint-cache)"
go run ./cmd/vmtlint -strict -cache .vmtlint-cache -cachestats ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== golden + property harness (short mode)"
go test -short -count=1 \
    -run 'TestGolden|Property|BitIdentical' \
    . ./internal/pcm/ ./internal/thermal/ ./internal/cluster/

echo "== differential oracle (SoA fleet vs scalar Node.Step, bit-exact)"
go test -count=1 -run 'TestFleetOracle|TestFleetStepRangeFirstError' ./internal/thermal/

echo "== placement index vs linear scan (same server at every decision)"
# Every unfiltered VMT placement and eviction query is answered by the
# placement index and by the linear scan from the same rotation start,
# under seeded churn, crashes, retunes and migrations; every tree node
# must match a rebuild.
go test -count=1 -run 'TestPlacementIndex' ./internal/cluster/ ./internal/core/

echo "== completion queue vs container/heap, ties included"
# The stream manager's typed completion heap and a container/heap
# oracle run the same seeded push/pop interleavings, with completion
# times drawn from as few as one distinct value: every pop must return
# the same (at, server, entry), and both arrays must match after every
# operation, because tie order can decide which server a fallback
# SelectRemoval hits.
go test -count=1 -run 'TestCompletionQueueMatchesContainerHeap' ./internal/sched/

echo "== spec round-trip (encode -> decode -> execute, cache-key sensitivity, spec drift)"
# Settings decode onto Config and the cache key hashes it: every keyed
# field must move the key, the settings fuzz corpus must stay a
# canonical fixpoint, and results/specs must match -emit-specs.
go test -count=1 \
    -run 'TestSpecRoundTripExecute|TestSpecJSONRoundTrip|TestConfigKeySensitivity|FuzzConfigFromSettings' \
    . ./internal/experiment/
go test -count=1 -run 'TestEmittedSpecsMatchCommitted' ./cmd/vmtreport/

echo "== stepped-vs-monolith equivalence (session tick loop)"
# The session's tick loop: its stage order, horizons that end between
# ticks, step counts whose duration overflows, and a session stepped
# tick-by-tick and in ragged chunks bit-identical to the monolithic Run
# — the contract that lets Run be a thin wrapper over Session without
# re-blessing any golden fixture.
go test -count=1 \
    -run 'TestSessionStepToCompletionMatchesRun|TestSessionStepped|TestSessionHorizonBoundsSource|TestSessionStageOrder|TestSessionHorizonNotMultipleOfStep|TestSessionStepOverflow' .

echo "== go test -race (concurrency-bearing packages)"
go test -race ./internal/telemetry/ ./internal/cliobs/ ./internal/experiment/ \
    ./internal/sched/ ./internal/fault/ ./internal/topology/ \
    -run 'Test' -count=1
go test -race -short ./internal/cluster/ \
    -run 'TestStepPhysicsWorkersBitIdentical|TestStepAggregates|TestEnergyConservationRandomJobs|TestFleetStoreInvariants' -count=1
go test -race ./internal/thermal/ \
    -run 'TestFleetOracleChunkedStepping|TestFleetViewAliasesState|TestSnapshotRoundTripBitIdentical' -count=1
go test -race . -run 'TestRunMany|TestInstrumented|TestDefaultObservers|TestDefaultObservability|TestPhysicsWorkers|TestFaultRunBitIdentical|TestCorrelatedFault|TestCacheCorruptionQuarantine|TestStreamMemoryIsBounded|TestSession' -count=1
go test -race ./internal/workload/ -count=1

echo "== vmtdiff self-check (determinism, end to end)"
# Two identical runs must diff clean; a one-value mutation must be
# pinpointed at its exact tick with exit status 1.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
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

echo "== vmtlint warm cache (answers every package from disk)"
# The strict run above populated .vmtlint-cache; an immediate re-run
# over the unchanged tree must answer everything from disk without
# type-checking a single package.
warmstats=$(go run ./cmd/vmtlint -strict -cache .vmtlint-cache -cachestats ./... 2>&1 >/dev/null)
case "$warmstats" in
*"0 misses, 0 packages type-checked"*) ;;
*)
    echo "warm vmtlint run re-type-checked packages: $warmstats" >&2
    exit 1
    ;;
esac

echo "== kernelparity self-check (one-token kernel drift is pinpointed)"
# Flip a single token in stepLanes's lane body, the fleet's only
# mirror of Node.Step, and demand kernelparity fail the build naming
# the exact divergent position — the guarantee the scalar/SoA
# bit-identity story rests on.
mutdir="$tmp/kernelmut"
mkdir -p "$mutdir"
tar cf - --exclude ./.git --exclude ./.vmtlint-cache --exclude ./results \
    --exclude ./vmt.test . | (cd "$mutdir" && tar xf -)
awk '!done && sub(/toWax \* subSec/, "toRoom * subSec") { done = 1 } { print }' \
    internal/thermal/fleet.go > "$mutdir/internal/thermal/fleet.go"
mutline=$(grep -n 'toRoom \* subSec' "$mutdir/internal/thermal/fleet.go" | head -1 | cut -d: -f1)
go build -o "$tmp/vmtlint" ./cmd/vmtlint
status=0
(cd "$mutdir" && "$tmp/vmtlint" ./internal/thermal/) > "$tmp/kernel.out" 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "vmtlint on a mutated kernel exited $status, want 1:" >&2
    cat "$tmp/kernel.out" >&2
    exit 1
fi
if ! grep -q "internal/thermal/fleet.go:$mutline: \[kernelparity\].*diverges from oracle" "$tmp/kernel.out"; then
    echo "kernelparity did not pinpoint the mutated line $mutline:" >&2
    cat "$tmp/kernel.out" >&2
    exit 1
fi

echo "ok"
