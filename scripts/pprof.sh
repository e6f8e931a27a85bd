#!/usr/bin/env bash
# Capture pprof profiles from a running syccl-serve admin listener, or
# from a Go benchmark (by default one of the engine's warm-plan ones).
#
#   scripts/pprof.sh                          # heap + goroutine snapshot
#   scripts/pprof.sh cpu 10                   # 10s CPU profile
#   ADMIN=http://127.0.0.1:6060 scripts/pprof.sh
#   scripts/pprof.sh bench                    # CPU + alloc profile of the recipe-warm plan
#   scripts/pprof.sh bench BenchmarkEngineWarmPlanFullPass   # ... of the full warm pass
#   scripts/pprof.sh bench BenchmarkStoreHitHandler ./internal/serve/   # ... of a benchmark in another package
#
# Profiles land in ./profiles/ stamped with the capture time; inspect
# with `go tool pprof <file>`.
set -euo pipefail

ADMIN=${ADMIN:-http://127.0.0.1:6060}
kind=${1:-snapshot}
seconds=${2:-10}

outdir=profiles
mkdir -p "$outdir"
stamp=$(date +%Y%m%d-%H%M%S)

case "$kind" in
snapshot)
    curl -fsS "$ADMIN/debug/pprof/heap" -o "$outdir/heap-$stamp.pb.gz"
    curl -fsS "$ADMIN/debug/pprof/goroutine" -o "$outdir/goroutine-$stamp.pb.gz"
    echo "wrote $outdir/heap-$stamp.pb.gz and $outdir/goroutine-$stamp.pb.gz"
    ;;
cpu)
    echo "profiling CPU for ${seconds}s..."
    curl -fsS "$ADMIN/debug/pprof/profile?seconds=$seconds" -o "$outdir/cpu-$stamp.pb.gz"
    echo "wrote $outdir/cpu-$stamp.pb.gz"
    ;;
trace)
    echo "tracing for ${seconds}s..."
    curl -fsS "$ADMIN/debug/pprof/trace?seconds=$seconds" -o "$outdir/trace-$stamp.out"
    echo "wrote $outdir/trace-$stamp.out (view with: go tool trace)"
    ;;
bench)
    name=${2:-BenchmarkEngineWarmPlan}
    pkg=${3:-./internal/engine/}
    bin=$outdir/$(basename "$pkg")-$stamp.test
    go test "$pkg" -run='^$' -bench="^$name\$" -benchtime=2s -benchmem \
        -o "$bin" \
        -cpuprofile "$outdir/cpu-$name-$stamp.pb.gz" -memprofile "$outdir/mem-$name-$stamp.pb.gz"
    echo "wrote $outdir/{cpu,mem}-$name-$stamp.pb.gz (inspect with: go tool pprof $bin <profile>)"
    ;;
*)
    echo "usage: scripts/pprof.sh [snapshot|cpu|trace] [seconds] | bench [benchmark] [package]" >&2
    exit 2
    ;;
esac
