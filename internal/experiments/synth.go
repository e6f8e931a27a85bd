package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"syccl/internal/cli"
	"syccl/internal/collective"
	"syccl/internal/teccl"
	"syccl/internal/topology"
)

// SynthRow is one point of the synthesis-time comparison (Fig 16a).
type SynthRow struct {
	Bytes      float64
	SyCCL      time.Duration
	TECCL      time.Duration
	TECCLValid bool // false: timed out with no solution (512-GPU case)
}

// SynthSeries is a synthesis-time figure for one scenario.
type SynthSeries struct {
	ID, Title string
	Rows      []SynthRow
}

// Format renders the series.
func (s *SynthSeries) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n%8s %14s %14s %10s\n", s.ID, s.Title, "size", "SyCCL", "TECCL", "speedup")
	for _, r := range s.Rows {
		t := "timeout"
		sp := "-"
		if r.TECCLValid {
			t = r.TECCL.Round(time.Millisecond).String()
			if r.SyCCL > 0 {
				sp = fmt.Sprintf("%.0f×", float64(r.TECCL)/float64(r.SyCCL))
			}
		}
		fmt.Fprintf(&b, "%8s %14s %14s %10s\n", SizeLabel(r.Bytes), r.SyCCL.Round(time.Millisecond), t, sp)
	}
	return b.String()
}

// synthSweep measures synthesis wall-clock for SyCCL and TECCL.
func synthSweep(id, title string, top *topology.Topology, kind collective.Kind, cfg Config, withTECCL bool) (*SynthSeries, error) {
	cfg = cfg.withDefaults()
	n := top.NumGPUs()
	out := &SynthSeries{ID: id, Title: title}
	for _, size := range cfg.Sizes {
		col, err := cli.BuildCollective(kind.String(), n, size)
		if err != nil {
			return nil, err
		}
		row := SynthRow{Bytes: size}

		start := time.Now()
		if _, err := cfg.synthesizeCold(top, col, cfg.coreOptions()); err != nil {
			return nil, fmt.Errorf("%s: syccl %s: %w", id, SizeLabel(size), err)
		}
		row.SyCCL = time.Since(start)

		if withTECCL {
			tres, err := teccl.Synthesize(top, col, cfg.tecclOptions())
			if err == nil {
				row.TECCL = tres.Spent
				row.TECCLValid = true
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Fig16a: synthesis time of SyCCL vs TECCL for AllGather on 16 and 32
// A100 GPUs. Returns both series.
func Fig16a(cfg Config) ([]*SynthSeries, error) {
	s16, err := synthSweep("fig16a-16", "AllGather synthesis, 16 A100", topology.A100Clos(2), collective.KindAllGather, cfg, true)
	if err != nil {
		return nil, err
	}
	s32, err := synthSweep("fig16a-32", "AllGather synthesis, 32 A100", topology.A100Clos(4), collective.KindAllGather, cfg, true)
	if err != nil {
		return nil, err
	}
	return []*SynthSeries{s16, s32}, nil
}

// BreakdownRow is one point of Fig 16b: where SyCCL's synthesis time goes.
type BreakdownRow struct {
	Bytes   float64
	Kind    collective.Kind
	Search  time.Duration
	Combine time.Duration
	Solve1  time.Duration
	Solve2  time.Duration
}

// Fig16b: SyCCL synthesis-time breakdown for AllGather and AlltoAll on 32
// A100 GPUs.
func Fig16b(cfg Config) ([]BreakdownRow, error) {
	cfg = cfg.withDefaults()
	top := topology.A100Clos(4)
	var out []BreakdownRow
	for _, kind := range []collective.Kind{collective.KindAllGather, collective.KindAlltoAll} {
		for _, size := range cfg.Sizes {
			col, err := cli.BuildCollective(kind.String(), top.NumGPUs(), size)
			if err != nil {
				return nil, err
			}
			res, err := cfg.synthesizeCold(top, col, cfg.coreOptions())
			if err != nil {
				return nil, err
			}
			out = append(out, BreakdownRow{
				Bytes: size, Kind: kind,
				Search: res.Phases.Search, Combine: res.Phases.Combine,
				Solve1: res.Phases.Solve1, Solve2: res.Phases.Solve2,
			})
		}
	}
	return out, nil
}

// FormatBreakdown renders Fig 16b rows.
func FormatBreakdown(rows []BreakdownRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig16b: SyCCL synthesis breakdown (32 A100)\n%-10s %8s %10s %10s %10s %10s\n",
		"collective", "size", "search", "combine", "solve1", "solve2")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10v %8s %10s %10s %10s %10s\n", r.Kind, SizeLabel(r.Bytes),
			r.Search.Round(time.Microsecond), r.Combine.Round(time.Microsecond),
			r.Solve1.Round(time.Millisecond), r.Solve2.Round(time.Millisecond))
	}
	return b.String()
}

// WorkerRow is one point of Fig 16c: synthesis time vs parallel workers.
type WorkerRow struct {
	Workers int
	Bytes   float64
	SyCCL   time.Duration
}

// Fig16c: SyCCL synthesis time with varying parallel solver instances
// (the paper sweeps 1…192 on a 192-core server; on this machine the
// sweep exercises the machinery and EXPERIMENTS.md notes the single-core
// caveat).
func Fig16c(cfg Config) ([]WorkerRow, error) {
	cfg = cfg.withDefaults()
	top := topology.A100Clos(4)
	sizes := []float64{1 << 20, 16 << 20, 1 << 30}
	if cfg.Quick {
		sizes = []float64{16 << 20}
	}
	workers := []int{1, 2, 4, 8, 16, 32, 64, 128, 192}
	if cfg.Quick {
		workers = []int{1, 4, 16}
	}
	var out []WorkerRow
	for _, size := range sizes {
		for _, w := range workers {
			col := collective.AllGather(top.NumGPUs(), size/float64(top.NumGPUs()))
			start := time.Now()
			opts := cfg.coreOptions()
			opts.Workers = w
			if _, err := cfg.synthesizeCold(top, col, opts); err != nil {
				return nil, err
			}
			out = append(out, WorkerRow{Workers: w, Bytes: size, SyCCL: time.Since(start)})
		}
	}
	return out, nil
}

// Table5Row summarizes synthesis time for one scenario.
type Table5Row struct {
	Scenario   string
	TECCLMin   time.Duration
	TECCLMax   time.Duration
	TECCLMean  time.Duration
	SyCCLMin   time.Duration
	SyCCLMax   time.Duration
	SyCCLMean  time.Duration
	Speedup    float64 // mean TECCL / mean SyCCL
	TECCLValid bool
}

// Table5 reproduces the synthesis-time summary across scenarios. The
// 512-GPU TECCL row reports a timeout like the paper's.
func Table5(cfg Config) ([]Table5Row, error) {
	cfg = cfg.withDefaults()
	type scenario struct {
		name      string
		top       *topology.Topology
		kind      collective.Kind
		withTECCL bool
	}
	scenarios := []scenario{
		{"16 A100, AG", topology.A100Clos(2), collective.KindAllGather, true},
		{"16 A100, A2A", topology.A100Clos(2), collective.KindAlltoAll, true},
		{"32 A100, AG", topology.A100Clos(4), collective.KindAllGather, true},
		{"64 H800, AG", topology.H800Rail(8), collective.KindAllGather, true},
		{"64 H800, A2A", topology.H800Rail(8), collective.KindAlltoAll, true},
	}
	if !cfg.Quick {
		scenarios = append(scenarios, scenario{"512 H800, AG", topology.H800Rail(64), collective.KindAllGather, false})
	}
	var out []Table5Row
	for _, sc := range scenarios {
		sizes := cfg.Sizes
		if sc.top.NumGPUs() >= 512 {
			sizes = []float64{1 << 20, 256 << 20} // sampled: each point costs minutes
		}
		row := Table5Row{Scenario: sc.name, TECCLMin: math.MaxInt64, SyCCLMin: math.MaxInt64}
		var tSum, sSum time.Duration
		var tN, sN int
		for _, size := range sizes {
			col, err := cli.BuildCollective(sc.kind.String(), sc.top.NumGPUs(), size)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := cfg.synthesizeCold(sc.top, col, cfg.coreOptions()); err != nil {
				return nil, fmt.Errorf("table5 %s: %w", sc.name, err)
			}
			d := time.Since(start)
			row.SyCCLMin = minD(row.SyCCLMin, d)
			row.SyCCLMax = maxD(row.SyCCLMax, d)
			sSum += d
			sN++
			if sc.withTECCL {
				tres, err := teccl.Synthesize(sc.top, col, cfg.tecclOptions())
				if err == nil {
					row.TECCLMin = minD(row.TECCLMin, tres.Spent)
					row.TECCLMax = maxD(row.TECCLMax, tres.Spent)
					tSum += tres.Spent
					tN++
				}
			}
		}
		row.SyCCLMean = sSum / time.Duration(sN)
		if tN > 0 {
			row.TECCLMean = tSum / time.Duration(tN)
			row.TECCLValid = true
			row.Speedup = float64(row.TECCLMean) / float64(row.SyCCLMean)
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatTable5 renders Table 5.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: synthesis time (min/max/mean)\n%-14s %-28s %-28s %8s\n", "Scenario", "TECCL", "SyCCL", "Speedup")
	f := func(lo, hi, mean time.Duration, ok bool) string {
		if !ok {
			return "Time Out"
		}
		return fmt.Sprintf("%s/%s/%s", lo.Round(time.Millisecond), hi.Round(time.Millisecond), mean.Round(time.Millisecond))
	}
	for _, r := range rows {
		sp := "N/A"
		if r.TECCLValid {
			sp = fmt.Sprintf("%.0f×", r.Speedup)
		}
		fmt.Fprintf(&b, "%-14s %-28s %-28s %8s\n", r.Scenario,
			f(r.TECCLMin, r.TECCLMax, r.TECCLMean, r.TECCLValid),
			f(r.SyCCLMin, r.SyCCLMax, r.SyCCLMean, true), sp)
	}
	return b.String()
}

func minD(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

func maxD(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
