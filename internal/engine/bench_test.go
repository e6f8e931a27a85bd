package engine

import (
	"context"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/topology"
)

// benchCase is the workload both benchmarks share, so warm-vs-cold is an
// apples-to-apples comparison of cache effect alone.
func benchCase() (*topology.Topology, *collective.Collective, core.Options) {
	top := topology.H800Small(2)
	return top, collective.AllGather(top.NumGPUs(), 1<<20), core.Options{}
}

// BenchmarkEngineColdPlan measures a full pipeline run: a fresh engine
// every iteration, so nothing is ever cached.
func BenchmarkEngineColdPlan(b *testing.B) {
	top, col, opts := benchCase()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(Options{}).Plan(context.Background(), top, col, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// warmEngine returns an engine primed past its warm fixed point (bounds
// and sketches are stored on a first plan's way out) for benchCase.
func warmEngine(b *testing.B) *Engine {
	top, col, opts := benchCase()
	eng := New(Options{})
	for pass := 0; pass < 2; pass++ {
		if _, err := eng.Plan(context.Background(), top, col, opts); err != nil {
			b.Fatal(err)
		}
		dropRecipes(eng) // so the second pass is a full one too
	}
	return eng
}

// BenchmarkEngineWarmPlan measures the recipe path: a repeated plan on a
// primed engine rebuilds last time's winner from its recipe.
func BenchmarkEngineWarmPlan(b *testing.B) {
	top, col, opts := benchCase()
	eng := warmEngine(b)
	if _, err := eng.Plan(context.Background(), top, col, opts); err != nil {
		b.Fatal(err) // records the recipe the loop replays
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Plan(context.Background(), top, col, opts)
		if err != nil || !res.Stats.Replayed {
			b.Fatalf("replayed %v, err %v", res != nil && res.Stats.Replayed, err)
		}
	}
}

// BenchmarkEngineWarmPlanFullPass measures what a plan costs when every
// cache is warm but the winner recipe is gone (a rebooted daemon, an
// evicted or stale recipe): all candidates are re-assembled from the
// caches, re-simulated, re-bounded and re-ranked.
func BenchmarkEngineWarmPlanFullPass(b *testing.B) {
	top, col, opts := benchCase()
	eng := warmEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dropRecipes(eng)
		res, err := eng.Plan(context.Background(), top, col, opts)
		if err != nil || res.Stats.Replayed || res.Stats.SolverCalls != 0 {
			b.Fatalf("result %+v, err %v", res, err)
		}
	}
}
