#!/usr/bin/env bash
# ci.sh — the canonical verify pipeline for this repository.
#
# Tier-1 (ROADMAP.md) is `go build ./... && go test ./...`; this script is
# the full gate: vet, chopperlint — the one static-analysis driver, which
# loads the module once and runs every internal/lint rule family over it:
# the determinism/correctness suite, the guard family's lock contracts and
# durability protocol, the key-flow rules, and the heap family's hot-path
# allocation budget against heapbudget.json, box-free F64 kernels, shuffle
# buffer generation lifetimes and pre-sizable appends — the test suite
# (with shuffled execution order, so inter-test state leaks cannot hide),
# the exact-count pins rerun 20 times under GC pressure, the race detector
# over every internal package, the built-ins' bit-exact pins and
# numeric-kernel oracle under GOARCH=386 (an interleaved kernel may not
# drift across architectures) with the shuffle kernels' and shuffle
# manager's tests, short native-fuzz runs of
# the execution engine against its single-threaded oracle, of its typed
# fold tier against the oracle's boxed rows, of task
# placement against the reference list scheduler, of the shuffle
# kernels' pooled and owned scratch (call sequences against the boxed
# tier), of the
# shuffle index against a brute-force walk, of the block manager's memory
# store against the map-backed model it replaced, of KMeans' interleaved
# nearest-centre kernel against its scalar loop, of the daemon's map-free query
# parser against url.ParseQuery and of the guard pipeline
# against arbitrary source, the plan-IR invariant checker, and
# the symbolic plan extractor, chopperplan — the static plan-drift gate
# diffing statically extracted stage graphs against the ones the scheduler
# submits — chopperkey, the key-fact drift gate (statically inferred key
# facts diffed against the runtime lineage) — chopperverify, the
# plan-IR and configuration verifiers run end to end over every built-in
# workload — the quick sweep of cmd/experiments compared byte for byte with
# its committed output (testdata/experiments_quick.txt), and a build+test
# of bench/, the nested benchmark module
# `./...` does not reach. Every gate checks machine-independent facts only
# (exact counts, byte identity, zero drops); nothing timed is asserted.
#
# Every step must pass for a change to land. The gate CLIs exit non-zero
# on any finding and share one wire-JSON schema (tool/rule/pos/msg/
# severity); chopperlint's array is kept as the lint.json artifact. See
# DESIGN.md ("Determinism invariants & linting", "Plan-IR invariants",
# "Static plan extraction", "Lock contracts & durability protocol") for
# the rule catalogues and the //lint:ignore suppression syntax (a
# suppression must carry a reason).
#
# Reachability census (run by hand, not a gate): build every production
# entry point with coverage over the module, drive it, and list the
# functions nothing entered. Exported names need no census: the tier-1
# lint.TestExportedFuncsHaveCallers fails on any under internal/ that no
# non-test code reaches. The census is for the rest — unexported
# functions, and whole subsystems that are called but never run. The first listing is production alone; the
# second adds the benchmark, so `diff production.txt with-bench.txt`
# names what only a bench probe reaches; the third adds the gate CLIs.
#   d=$(mktemp -d); mkdir $d/cov; export GOCOVERDIR=$d/cov; c="-cover -coverpkg=chopper/..."
#   go build $c -o $d/ ./cmd/... ./examples/... && (cd bench && go build $c -o $d/bench .)
#   $d/experiments -quick >/dev/null; for e in kmeans pagerank pca quickstart sqlanalytics; do $d/$e >/dev/null; done
#   $d/chopperload -smoke -chopperd $d/chopperd && $d/chopperload -fleet-smoke -chopperd $d/chopperd
#   unreached() { go tool covdata func -i $d/cov | awk '$NF == "0.0%"' | grep -v '^chopper/bench' > $d/$1.txt; }
#   unreached production
#   for w in engine-compute engine-shuffle tune-sweep serve-read fleet-write; do
#     $d/bench --workload $w --seconds 1 --trace 1 --outdir $d/out >/dev/null; done
#   unreached with-bench
#   $d/chopperlint ./...; for g in plan key verify; do $d/chopper$g -workload=all; done
#   unreached with-gates
set -euo pipefail
cd "$(dirname "$0")"

# Per-gate wall-time accounting: gate <name> starts a step, printing the
# previous one's duration; the table is replayed before "CI OK".
gate_times=()
gate_name=""
gate_start=0
gate() {
    local now
    now="$(date +%s)"
    if [[ -n "$gate_name" ]]; then
        gate_times+=("$(printf '%4ds  %s' "$((now - gate_start))" "$gate_name")")
    fi
    gate_name="${1-}"
    gate_start="$now"
    if [[ -n "$gate_name" ]]; then
        echo "== $gate_name =="
    fi
}

gate "toolchain"
# The toolchain is pinned in go.mod; refuse to run under a silently
# different one (results must be reproducible across CI machines).
want="$(sed -n 's/^toolchain //p' go.mod)"
have="$(go env GOVERSION)"
if [[ -n "$want" && "$have" != "$want" ]]; then
    echo "ci.sh: toolchain mismatch: go.mod pins $want, running $have" >&2
    exit 1
fi
go version

gate "build"
go build ./...

gate "build gate CLIs"
# Build the four gate binaries and the smoke daemon once into bin/ instead
# of `go run`-ing each gate: one compile apiece, and no path outside the
# checkout that concurrent runs could collide on.
mkdir -p bin
go build -o bin/ ./cmd/chopperlint ./cmd/chopperplan ./cmd/chopperverify ./cmd/chopperkey ./cmd/chopperd

gate "gofmt"
# Any file gofmt would rewrite fails the gate. gofmt walks directories, not
# packages, so the nested bench/ module is covered too.
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
    echo "ci.sh: gofmt -l reports unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

gate "vet"
go vet ./...

gate "chopperlint"
# Every rule family in one load, with findings on stderr and the sorted
# wire-JSON array kept as lint.json for CI dashboards (byte-stable, so it
# diffs across runs). The heap family's hotalloc gates hot-path allocation
# sites against the committed heapbudget.json: a new site in anything
# reachable from the wave/kernel/shuffle roots fails until audited with
# `chopperlint -write-budget`. TestHeapBudgetMatchesSweep pins the budget
# file to a fresh sweep, and cmd/chopperlint's TestOneRunReportsEveryFamily
# is the deliberate-break check proving one run catches a planted finding
# of each family.
bin/chopperlint -json ./... > lint.json

gate "chopperlint (self-analysis)"
# The linter and the symbolic extractor must hold themselves to their own
# rules; an explicit step so narrowing the sweep above can never silently
# exempt them. Fixture files under testdata/ are skipped by the loader.
bin/chopperlint ./internal/lint/... ./internal/plan/...

gate "test (shuffled)"
go test -shuffle=on ./...

gate "exact counts under GC pressure"
# The allocation, task-cost and bookkeeping pins count exact objects, so a
# pin that passes only when no collection lands in its window is a flake
# waiting to happen. GOGC=5 collects every few hundred kilobytes — the
# condition that once failed one such pin 13 times in 30 — and each pin
# runs 20 times: none may fail once.
GOGC=5 go test -count=20 -run 'Allocat|TaskCost|Bookkeeping' ./internal/exec ./internal/rdd ./internal/service ./internal/storage

gate "race"
go test -race ./internal/...

gate "race (parallel sweep)"
# The driver pool's contract — parallel sweeps byte-identical to sequential
# — is asserted by TestParallelMatchesSequential, the Tuner's side-by-side
# profiling grid by TestRunComparisonGridWidthInvariant and
# TestProfileRunsOverlapOnlyInJobs, the vanilla run RunComparison takes
# from that grid by TestRunComparisonReusesDefaultTrial (the root package,
# which the sweep above does not reach), chopperverify's sorted release of
# the grid's findings by TestReporterReleasesHeldFindingsSorted, and a
# compute worker's own kernel scratch by TestOwnedScratchBypassesPools,
# TestKernelScratchSequences (its pooled and owned replays run side by
# side) and TestRefMergeMatchesBoxedMerge (the reduce kernels reading arena
# blocks by reference, on the pools and on an owned Scratch); run them
# explicitly under the race detector so pool regressions fail loudly even
# if the package sweep above is ever narrowed.
go test -race -run 'TestParallelMatchesSequential|TestRunComparisonGridWidthInvariant|TestRunComparisonReusesDefaultTrial|TestProfileRunsOverlapOnlyInJobs|TestReporterReleasesHeldFindingsSorted|TestOwnedScratchBypassesPools|TestKernelScratchSequences|TestRefMergeMatchesBoxedMerge' -count=1 . ./cmd/chopperverify ./internal/experiments ./internal/rdd

gate "bit-exact kernels (GOARCH=386)"
# The built-ins' numeric kernels run independent sums side by side but keep
# every sum's own operation order, so their results are bit-identical to
# the scalar loops on any IEEE-754 target. Re-run the checksum, simulated-
# time and trace pins plus the scalar-loop oracle on a 32-bit target, so a
# rewritten kernel cannot drift across architectures. The shuffle kernels'
# and the shuffle manager's tests run there too: the int key→slot table,
# the pooled and the owned kernel scratch, where int is 32 bits. So do the
# engine's and the collector's: the int32 task ids, bucket counts and node
# indexes, and the arena headers the shuffle records copy, where int and
# pointers are 4 bytes.
GOARCH=386 go test -run 'Pinned|MatchScalar' ./internal/workloads
GOARCH=386 go test ./internal/rdd ./internal/shuffle ./internal/exec ./internal/metrics

gate "experiments -quick (byte oracle)"
# The reproduction's quick sweep must print exactly the committed output,
# byte for byte: an engine, cost-model or tuner change that moves any
# figure fails here at cmp's first differing byte. Regenerate
# testdata/experiments_quick.txt only for a change meant to move the
# numbers, and review its diff. The same bytes must come out on one core
# (GOMAXPROCS=1: the sweep's worker pool runs its jobs in sequence) and
# from a 386 build (no float kernel may drift across architectures).
go build -o bin/ ./cmd/experiments
bin/experiments -quick | cmp - testdata/experiments_quick.txt
GOMAXPROCS=1 bin/experiments -quick | cmp - testdata/experiments_quick.txt
GOARCH=386 go build -o bin/experiments-386 ./cmd/experiments
bin/experiments-386 -quick | cmp - testdata/experiments_quick.txt

gate "bench module (build + test)"
# bench/ is a nested module outside ./...: build and test it here so a
# signature change that breaks the BENCHMARK.json harness fails CI instead
# of the next benchmark run.
(cd bench && go build ./... && go test ./...)

gate "chopperd smoke"
# End-to-end daemon gate: spawn a real chopperd on an ephemeral port, train,
# survive a 64-way mixed burst with zero drops, SIGKILL and verify the
# journal replays to a byte-identical recommendation, then SIGTERM with a
# job in flight and verify the clean drain + snapshot restart.
go run ./cmd/chopperload -smoke -chopperd bin/chopperd

gate "chopperfleet smoke"
# Fleet deployment gate: spawn a real 2-shard fleet (two primaries plus a
# replica of shard 0) behind an in-process router, verify hashed write
# placement and the merged workload view, SIGKILL the replica mid-load with
# zero client-visible errors, advance the primary's journal while the
# replica is down, then restart it and verify it catches up from its last
# durable position to a byte-identical recommendation.
go run ./cmd/chopperload -fleet-smoke -chopperd bin/chopperd

gate "fuzz (5s)"
go test -run='^$' -fuzz=FuzzEngineMatchesOracle -fuzztime=5s ./internal/exec
go test -run='^$' -fuzz=FuzzPlacement -fuzztime=5s ./internal/exec
go test -run='^$' -fuzz=FuzzTypedFoldMatchesBoxed -fuzztime=5s ./internal/exec
go test -run='^$' -fuzz=FuzzKernelScratch -fuzztime=5s ./internal/rdd
go test -run='^$' -fuzz=FuzzCoGroupMatchesReference -fuzztime=5s ./internal/rdd
go test -run='^$' -fuzz=FuzzShuffleIndex -fuzztime=5s ./internal/shuffle
go test -run='^$' -fuzz=FuzzMemStoreMatchesModel -fuzztime=5s ./internal/storage
go test -run='^$' -fuzz=FuzzNearestMatchesScalar -fuzztime=5s ./internal/workloads
go test -run='^$' -fuzz=FuzzPlanInvariants -fuzztime=5s ./internal/plan/verify
go test -run='^$' -fuzz=FuzzSymbolicExtract -fuzztime=5s ./internal/plan/extract
go test -run='^$' -fuzz=FuzzLockContract -fuzztime=5s ./internal/lint
go test -run='^$' -fuzz=FuzzKeyFacts -fuzztime=5s ./internal/lint
go test -run='^$' -fuzz=FuzzHeapFacts -fuzztime=5s ./internal/lint
go test -run='^$' -fuzz=FuzzQueryGet -fuzztime=5s ./internal/service

gate "chopperplan"
# Static plan-drift gate: symbolically extract every workload's stage
# graphs from source, verify the plan-IR invariants on them, and diff them
# against the plans the scheduler actually submits.
bin/chopperplan -workload=all

gate "chopperkey (drift)"
# Key-fact drift gate: the statically inferred per-RDD key facts (keyed
# state, partitioner placement, scheme, co-partition grouping, dependency
# kinds) must match the lineage the runtime actually builds, job for job.
bin/chopperkey -workload=all

gate "chopperverify"
bin/chopperverify -workload=all

gate
echo "== gate wall times =="
printf '%s\n' "${gate_times[@]}"
echo "CI OK"
