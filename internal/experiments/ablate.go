package experiments

import (
	"fmt"
	"strings"
	"time"

	"syccl/internal/collective"
	"syccl/internal/metrics"
	"syccl/internal/sketch"
	"syccl/internal/topology"
)

// The §7.4 microbenchmark cluster: H800 servers scaled to 4 GPUs, 6
// servers.
func ablationTopology() *topology.Topology { return topology.H800Small(6) }

// PruneRow is one point of Fig 17a: synthesis time and busbw with the
// §4.1 pruning strategies toggled, next to what the prunings actually
// change — the run's core.Stats work counts, which repeat exactly where
// Synth is one noisy wall-clock sample.
type PruneRow struct {
	Bytes  float64
	P1, P2 bool // pruning #1 / #2 enabled
	Synth  time.Duration
	BusBW  float64
	// Sketches emitted by the search, combinations evaluated in the
	// coarse pass, and sub-demand solves executed.
	Sketches, Candidates, SolverCalls int
}

// Fig17a compares synthesis with and without prunings #1 (isomorphism
// dedupe) and #2 (cross-group consistency) on the scaled-down H800
// cluster.
func Fig17a(cfg Config) ([]PruneRow, error) {
	cfg = cfg.withDefaults()
	top := ablationTopology()
	n := top.NumGPUs()
	var out []PruneRow
	for _, size := range cfg.Sizes {
		for _, mode := range []struct{ p1, p2 bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
			col := collective.AllGather(n, size/float64(n))
			opts := cfg.coreOptions()
			opts.Search = sketch.SearchOptions{
				DisablePrune1: !mode.p1,
				DisablePrune2: !mode.p2,
				// With prunings off the space explodes; the paper's
				// runs also bound exploration, via solver timeouts.
				MaxSketches: 256,
			}
			start := time.Now()
			res, err := cfg.synthesizeCold(top, col, opts)
			if err != nil {
				return nil, err
			}
			out = append(out, PruneRow{
				Bytes: size, P1: mode.p1, P2: mode.p2,
				Synth:    time.Since(start),
				BusBW:    metrics.BusBandwidth(col.Kind, n, size, res.Time),
				Sketches: res.Stats.Sketches, Candidates: res.Stats.Candidates, SolverCalls: res.Stats.SolverCalls,
			})
		}
	}
	return out, nil
}

// FormatFig17a renders the pruning ablation.
func FormatFig17a(rows []PruneRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig17a: pruning ablation (24-GPU H800)\n%8s %8s %8s %12s %12s %9s %11s %7s\n",
		"size", "#1", "#2", "synth", "busbw GBps", "sketches", "candidates", "solves")
	onoff := func(v bool) string {
		if v {
			return "on"
		}
		return "off"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s %8s %8s %12s %12.1f %9d %11d %7d\n", SizeLabel(r.Bytes), onoff(r.P1), onoff(r.P2),
			r.Synth.Round(time.Millisecond), r.BusBW/1e9, r.Sketches, r.Candidates, r.SolverCalls)
	}
	return b.String()
}

// StageRow is one point of Fig 17b: the Alltoall stage limit (pruning #3).
type StageRow struct {
	Bytes  float64
	Stages int
	Synth  time.Duration
	BusBW  float64
}

// Fig17b sweeps the maximum stage count for AlltoAll synthesis,
// reproducing the observation that ≤3 stages lose nothing on this
// topology while slashing synthesis time versus a 10-stage bound.
func Fig17b(cfg Config) ([]StageRow, error) {
	cfg = cfg.withDefaults()
	top := ablationTopology()
	n := top.NumGPUs()
	stageLimits := []int{3, 5, 10}
	var out []StageRow
	for _, size := range cfg.Sizes {
		for _, limit := range stageLimits {
			col := collective.AlltoAll(n, size/float64(n*(n-1)))
			opts := cfg.coreOptions()
			opts.Search = sketch.SearchOptions{MaxStages: limit, MaxSketches: 128}
			start := time.Now()
			res, err := cfg.synthesizeCold(top, col, opts)
			if err != nil {
				return nil, err
			}
			out = append(out, StageRow{
				Bytes: size, Stages: limit,
				Synth: time.Since(start),
				BusBW: metrics.BusBandwidth(col.Kind, n, size, res.Time),
			})
		}
	}
	return out, nil
}

// FormatFig17b renders the stage-limit ablation.
func FormatFig17b(rows []StageRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig17b: AlltoAll stage limit (24-GPU H800)\n%8s %8s %12s %12s\n", "size", "stages", "synth", "busbw GBps")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s %8d %12s %12.1f\n", SizeLabel(r.Bytes), r.Stages,
			r.Synth.Round(time.Millisecond), r.BusBW/1e9)
	}
	return b.String()
}

// E2Row is one point of Fig 17c: the fine-pass epoch knob E2.
type E2Row struct {
	Bytes    float64
	E2       float64
	MaxSolve time.Duration // longest single sub-demand solve
	BusBW    float64
}

// Fig17c sweeps E2 ∈ {0.1, 0.2, 1}: smaller E2 means finer epochs,
// longer per-demand solves and (up to a point) better schedules —
// the accuracy/efficiency trade-off of §5.3/Appendix A.
func Fig17c(cfg Config) ([]E2Row, error) {
	cfg = cfg.withDefaults()
	top := ablationTopology()
	n := top.NumGPUs()
	var out []E2Row
	for _, size := range cfg.Sizes {
		for _, e2 := range []float64{0.1, 0.2, 1} {
			col := collective.AllGather(n, size/float64(n))
			opts := cfg.coreOptions()
			opts.E2 = e2
			res, err := cfg.synthesizeCold(top, col, opts)
			if err != nil {
				return nil, err
			}
			out = append(out, E2Row{
				Bytes: size, E2: e2,
				MaxSolve: res.Stats.MaxSolve,
				BusBW:    metrics.BusBandwidth(col.Kind, n, size, res.Time),
			})
		}
	}
	return out, nil
}

// FormatFig17c renders the E2 ablation.
func FormatFig17c(rows []E2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig17c: E2 epoch knob (24-GPU H800)\n%8s %8s %14s %12s\n", "size", "E2", "max solve", "busbw GBps")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s %8g %14s %12.1f\n", SizeLabel(r.Bytes), r.E2,
			r.MaxSolve.Round(time.Microsecond), r.BusBW/1e9)
	}
	return b.String()
}
