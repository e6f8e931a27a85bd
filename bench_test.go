// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7, Appendix C), one testing.B target per artifact, plus
// component micro-benchmarks. Each experiment benchmark runs the trimmed
// (Quick) sweep so `go test -bench=.` completes in reasonable time; the
// full-scale sweeps live behind `cmd/syccl-bench` without -quick.
package syccl_test

import (
	"context"
	"testing"
	"time"

	"syccl"
	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/experiments"
	"syccl/internal/nccl"
	"syccl/internal/obs"
	"syccl/internal/sim"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/teccl"
	"syccl/internal/topology"
)

func quickCfg() experiments.Config {
	return experiments.Config{
		Quick:       true,
		Sizes:       []float64{1 << 20, 256 << 20},
		TECCLBudget: 300 * time.Millisecond,
	}
}

func benchSeries(b *testing.B, f func(experiments.Config) (*experiments.PerfSeries, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s, err := f(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Rows) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFig14a: AllGather busbw, 16 A100 (NCCL/TECCL/SyCCL).
func BenchmarkFig14a(b *testing.B) { benchSeries(b, experiments.Fig14a) }

// BenchmarkFig14b: AllGather busbw, 32 A100.
func BenchmarkFig14b(b *testing.B) { benchSeries(b, experiments.Fig14b) }

// BenchmarkFig14c: ReduceScatter busbw, 16 A100.
func BenchmarkFig14c(b *testing.B) { benchSeries(b, experiments.Fig14c) }

// BenchmarkFig14d: AlltoAll busbw, 16 A100.
func BenchmarkFig14d(b *testing.B) { benchSeries(b, experiments.Fig14d) }

// BenchmarkFig15a: AllGather busbw, 64 H800.
func BenchmarkFig15a(b *testing.B) { benchSeries(b, experiments.Fig15a) }

// BenchmarkFig15b: AllGather busbw, 512 H800 (TECCL timed out in the
// paper and is skipped).
func BenchmarkFig15b(b *testing.B) {
	if testing.Short() {
		b.Skip("512-GPU sweep")
	}
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		cfg.Sizes = []float64{1 << 30}
		if _, err := experiments.Fig15b(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15c: AlltoAll busbw, 64 H800.
func BenchmarkFig15c(b *testing.B) { benchSeries(b, experiments.Fig15c) }

// BenchmarkFig16a: synthesis time, SyCCL vs TECCL, 16+32 A100.
func BenchmarkFig16a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16a(quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16b: SyCCL synthesis-time breakdown, 32 A100.
func BenchmarkFig16b(b *testing.B) {
	cfg := quickCfg()
	cfg.Sizes = []float64{1 << 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16b(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16c: synthesis time vs parallel solver instances.
func BenchmarkFig16c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16c(quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5: synthesis-time summary across scenarios.
func BenchmarkTable5(b *testing.B) {
	cfg := quickCfg()
	cfg.Sizes = []float64{1 << 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17a: pruning ablation (§4.1 prunings #1/#2).
func BenchmarkFig17a(b *testing.B) {
	cfg := quickCfg()
	cfg.Sizes = []float64{4 << 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig17a(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17b: AlltoAll stage-limit ablation (pruning #3).
func BenchmarkFig17b(b *testing.B) {
	cfg := quickCfg()
	cfg.Sizes = []float64{4 << 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig17b(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17c: E2 epoch-knob ablation.
func BenchmarkFig17c(b *testing.B) {
	cfg := quickCfg()
	cfg.Sizes = []float64{64 << 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig17c(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6: end-to-end training iteration times.
func BenchmarkTable6(b *testing.B) {
	cfg := quickCfg()
	cfg.TECCLBudget = 200 * time.Millisecond
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig21a: crafted vs NCCL vs SyCCL, 16 A100.
func BenchmarkFig21a(b *testing.B) { benchSeries(b, experiments.Fig21a) }

// BenchmarkFig21b: crafted vs NCCL vs SyCCL, 64 H800.
func BenchmarkFig21b(b *testing.B) { benchSeries(b, experiments.Fig21b) }

// BenchmarkFig22: improved crafted schedule vs SyCCL, 64 H800.
func BenchmarkFig22(b *testing.B) { benchSeries(b, experiments.Fig22) }

// --- Component micro-benchmarks ---

// BenchmarkSynthesizeAG16 measures one full SyCCL synthesis on the
// 16-GPU testbed at 64 MB.
func BenchmarkSynthesizeAG16(b *testing.B) {
	top := syccl.A100Clos(2)
	col := syccl.AllGather(16, float64(64<<20)/16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Synthesize(top, col, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures event throughput on a 64-GPU ring schedule.
func BenchmarkSimulator(b *testing.B) {
	top := topology.H800Rail(8)
	col := collective.AllGather(64, 1<<24)
	s, err := nccl.AllGather(top, col)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.Simulate(top, s, sim.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.Events), "events")
		}
	}
}

// BenchmarkSketchSearch measures the §4.1 enumeration on the 64-GPU rail
// topology.
func BenchmarkSketchSearch(b *testing.B) {
	top := topology.H800Rail(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := sketch.SearchBroadcast(context.Background(), top, 0, sketch.SearchOptions{}); len(out) == 0 {
			b.Fatal("no sketches")
		}
	}
}

// BenchmarkSubDemandExact measures the exact MILP engine on an 8-GPU
// broadcast sub-demand.
func BenchmarkSubDemandExact(b *testing.B) {
	d := &solve.Demand{NumGPUs: 8, Alpha: 0, Beta: 1,
		Pieces: []solve.Piece{{ID: 0, Bytes: 1, Srcs: []int{0}, Dsts: []int{1, 2, 3, 4, 5, 6, 7}}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve.Solve(d, solve.Options{Engine: solve.EngineExact, E: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTECCLGreedy measures one TECCL greedy pass on the 16-GPU
// testbed.
func BenchmarkTECCLGreedy(b *testing.B) {
	top := topology.A100Clos(2)
	col := collective.AllGather(16, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := teccl.Synthesize(top, col, teccl.Options{TimeBudget: time.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Flow-relaxation benchmarks ---

// flowBenchDemand builds an n-GPU AllGather sub-demand (piece i held by
// GPU i, needed everywhere else).
func flowBenchDemand(n int, bytes float64) *solve.Demand {
	d := &solve.Demand{NumGPUs: n, Alpha: topology.NVAlpha, Beta: 1e-9}
	for i := 0; i < n; i++ {
		p := solve.Piece{ID: i, Bytes: bytes, Srcs: []int{i}}
		for j := 0; j < n; j++ {
			if j != i {
				p.Dsts = append(p.Dsts, j)
			}
		}
		d.Pieces = append(d.Pieces, p)
	}
	return d
}

// BenchmarkFlowBound: the epoch-domain relaxation on an 8-GPU AllGather
// sub-demand — the LP the exact engine runs before building any MILP.
func BenchmarkFlowBound(b *testing.B) {
	d := flowBenchDemand(8, 1<<17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb, pivots, err := solve.FlowEpochBound(context.Background(), d, d.Alpha)
		if err != nil {
			b.Fatal(err)
		}
		if lb <= 0 {
			b.Fatal("no bound")
		}
		if i == 0 {
			b.ReportMetric(float64(pivots), "lp.pivots")
		}
	}
}

// BenchmarkOverGateSolve: EngineAuto on an 8-GPU AllGather sub-demand
// with one double-size piece — 448 binaries per epoch, over the exact
// engine's size gate, and uneven so no closed-form fast path fires —
// which it solves greedily.
func BenchmarkOverGateSolve(b *testing.B) {
	d := flowBenchDemand(8, 1<<17)
	d.Pieces[0].Bytes *= 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := solve.SolveCtx(context.Background(), d, solve.Options{E: 1, Engine: solve.EngineAuto})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(s.Epochs), "epochs")
		}
	}
}

// BenchmarkFlowPruneH800AG: one synthesis on the 64-GPU H800
// rail (1 MiB AllGather), reporting the bound-pruning internals: bounds
// evaluated, candidates pruned, and MILP builds avoided (flow-proved
// optimal at the greedy incumbent plus over-gate instances solved
// greedily instead of by an exact build).
func BenchmarkFlowPruneH800AG(b *testing.B) {
	top := topology.H800Rail(8)
	col := collective.AllGather(64, float64(1<<20)/64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		res, err := core.Synthesize(top, col, core.Options{Obs: rec})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.BoundsComputed), "bounds")
			b.ReportMetric(float64(res.Stats.PrunedLB), "pruned_lb")
			avoided := rec.CounterValue("solve.exact.flow_proved") + rec.CounterValue("solve.too_large")
			b.ReportMetric(avoided, "milp.avoided")
		}
	}
}
