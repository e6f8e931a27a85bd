#!/usr/bin/env bash
# CI gate: formatting, vet, build, the full test suite, a race-detector
# shard over the concurrency-heavy packages, and a short native-fuzzing
# smoke over internal/verify. Run from anywhere; operates on the
# repository root. FUZZTIME (default 10s) bounds each fuzz target.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME=${FUZZTIME:-10s}

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -count=10 (determinism-sensitive leaves, uncached) =="
# The solver stack and the sketch search (which feeds the sketch-cache
# and plan keys) promise the same bytes every run, and so does the
# topology's automorphism list, whose order decides which replicas the
# sketch search picks; so does the isomorphism table, whose colour-class
# order and seeded shuffles decide which mapping wins and so the bytes
# of every mapped sub-schedule. One cached or lucky pass cannot show
# that, ten uncached ones in a row can (about two minutes on 2 cores,
# most of it the solver, sketch and mapping equivalence checks).
go test -count=10 ./internal/lp ./internal/milp ./internal/solve ./internal/sketch ./internal/topology ./internal/isomorph

echo "== go test =="
go test ./...

echo "== cold digests and history independence under GOMAXPROCS 1, 4, 16 =="
# The pinned cold bytes must not depend on how many OS threads run the
# worker goroutines: two nondeterminism bugs showed only off the default
# setting. A plan on a long-lived engine must return those same cold
# bytes whatever was planned before it, on the paper's fabrics and on
# randomized ones in a shuffled order (about 10 s of test per setting on
# a 2-core box, plus the build). The flat assembly must build what the
# map-based reference builds, from every combination the pipeline makes
# at that setting. Candidates are built, and reductions' finalists
# finished, in per-worker buffers on as many OS threads as there are: the
# schedule must not depend on the Workers count at any setting. The
# engine shares its cached values with every concurrent plan, so none of
# them may be written, however the plans interleave. Each synthesis works
# in a pooled workspace the next one reuses, however many are in flight:
# nothing a synthesis returned may change with it. The solver census —
# exact solves, MILPs built, their nodes and pivots, on the cold matrix
# and on random fabrics — must not depend on the thread count either.
for procs in 1 4 16; do
    GOMAXPROCS=$procs go test ./internal/core ./internal/engine \
        -run 'TestColdScheduleDigests$|TestPlanAnswerIndependentOfHistory$|TestPlanAnswerIndependentOfRandomHistory$|TestAssemblyEquivalence$|FuzzAssemblyEquivalence$|TestSynthesizeDeterministicAcrossWorkers$|TestCachedValuesImmutable$|TestResultsOutliveTheWorkspace$|TestExactSolveProofCounters$' -count=1
done

echo "== go test -race (core/engine/isomorph/lp/lru/milp/obs/persist/serve/sim/sketch/solve/topology/verify shard) =="
go test -race ./internal/core/ ./internal/engine/ ./internal/isomorph/ ./internal/lp/ ./internal/lru/ ./internal/milp/ ./internal/obs/ ./internal/persist/ ./internal/serve/ ./internal/sim/ ./internal/sketch/ ./internal/solve/ ./internal/topology/ ./internal/verify/

echo "== fuzz smoke ($FUZZTIME per target) =="
go test ./internal/verify/ -run='^$' -fuzz='^FuzzValidate$' -fuzztime="$FUZZTIME"
go test ./internal/verify/ -run='^$' -fuzz='^FuzzSimParity$' -fuzztime="$FUZZTIME"
go test ./internal/serve/ -run='^$' -fuzz='^FuzzDecodeRequest$' -fuzztime="$FUZZTIME"
go test ./internal/serve/ -run='^$' -fuzz='^FuzzDecodeStream$' -fuzztime="$FUZZTIME"
go test ./internal/topology/ -run='^$' -fuzz='^FuzzDecodeDelta$' -fuzztime="$FUZZTIME"
go test ./internal/topology/ -run='^$' -fuzz='^FuzzApplyEquivalence$' -fuzztime="$FUZZTIME"
go test ./internal/solve/ -run='^$' -fuzz='^FuzzFlowBound$' -fuzztime="$FUZZTIME"
go test ./internal/solve/ -run='^$' -fuzz='^FuzzFlowQuotient$' -fuzztime="$FUZZTIME"
go test ./internal/solve/ -run='^$' -fuzz='^FuzzGreedyEquivalence$' -fuzztime="$FUZZTIME"
go test ./internal/lp/ -run='^$' -fuzz='^FuzzLPOracle$' -fuzztime="$FUZZTIME"
go test ./internal/persist/ -run='^$' -fuzz='^FuzzPersistDecode$' -fuzztime="$FUZZTIME"
go test ./internal/lru/ -run='^$' -fuzz='^FuzzLRUModel$' -fuzztime="$FUZZTIME"
go test ./internal/schedule/ -run='^$' -fuzz='^FuzzValidateEquivalence$' -fuzztime="$FUZZTIME"
go test ./internal/sim/ -run='^$' -fuzz='^FuzzServingOrder$' -fuzztime="$FUZZTIME"
go test ./internal/core/ -run='^$' -fuzz='^FuzzAssemblyEquivalence$' -fuzztime="$FUZZTIME"
go test ./internal/core/ -run='^$' -fuzz='^FuzzSynthesizeContract$' -fuzztime="$FUZZTIME"
go test ./internal/verify/ -run='^$' -fuzz='^FuzzBaselineOracle$' -fuzztime="$FUZZTIME"
go test ./internal/isomorph/ -run='^$' -fuzz='^FuzzCacheKeysStable$' -fuzztime="$FUZZTIME"
go test ./internal/isomorph/ -run='^$' -fuzz='^FuzzClassesEquivalence$' -fuzztime="$FUZZTIME"
go test ./internal/sketch/ -run='^$' -fuzz='^FuzzSearchEquivalence$' -fuzztime="$FUZZTIME"
go test ./internal/sketch/ -run='^$' -fuzz='^FuzzExpandAllToAllEquivalence$' -fuzztime="$FUZZTIME"

echo "== go benchmarks, one iteration each =="
# No test runs the Go benchmarks, so one that b.Fatal()s would rot unseen;
# a single -short iteration of each catches that (about 30 s with the
# compile).
go test -run '^$' -bench . -benchtime 1x -short ./...

echo "== bench smoke =="
# One round of the two smallest cases of every workload of the perf
# ledger (bench/README.md), every result oracle-checked: catches
# benchmark bit-rot and exercises engine, daemon and disk tier end to
# end. Timings from a smoke run mean nothing; the ledger is `go run ./bench`.
go run ./bench -smoke

echo "== telemetry smoke =="
# Boots the real daemon and asserts /metrics is well-formed (families
# present, every line parseable, no label drift), request ids resolve
# through the flight recorder, and the admin listener serves pprof.
scripts/metrics-smoke.sh

echo "CI checks passed."
