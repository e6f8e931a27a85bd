// Package experiments reproduces every table and figure of the paper's
// evaluation (§7, Appendix C). Each entry point regenerates the same
// rows/series the paper reports — busbw versus data size per system,
// synthesis-time comparisons, ablations, and end-to-end training times —
// using the reimplemented SyCCL, TECCL, and NCCL plus the α-β simulator.
//
// Absolute numbers come from this repository's simulator and solver, not
// the authors' testbed; EXPERIMENTS.md records the paper-vs-measured
// comparison. Shapes (who wins, by what factor, where the crossovers sit)
// are the reproduction target.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"syccl/internal/cli"
	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/engine"
	"syccl/internal/metrics"
	"syccl/internal/nccl"
	"syccl/internal/obs"
	"syccl/internal/sim"
	"syccl/internal/teccl"
	"syccl/internal/topology"
)

// Config controls experiment scale.
type Config struct {
	// Sizes overrides the data-size sweep (bytes). Nil uses the paper's
	// 1 KB … 4 GB doublings-by-4 ladder, trimmed in Quick mode.
	Sizes []float64
	// TECCLBudget is the per-case TECCL solve budget, standing in for
	// the paper's 10-hour Gurobi timeout (default 3s, 500ms in Quick).
	TECCLBudget time.Duration
	// Quick trims sweeps for fast runs (benchmarks, CI).
	Quick bool
	// Seed for randomized components.
	Seed int64
	// Workers for SyCCL's parallel solving (0 = GOMAXPROCS).
	Workers int
	// Obs optionally records every synthesis run in the experiment
	// (spans, counters) for Chrome-trace export. Nil disables recording.
	Obs *obs.Recorder
	// Engine optionally routes every SyCCL synthesis through a shared
	// long-lived planner, reusing sketch and sub-schedule caches across
	// the experiment's cases. Nil synthesizes each case independently.
	Engine *engine.Engine
	// Timeout bounds each SyCCL synthesis; on expiry the best schedule
	// found by then is used (anytime semantics). Zero disables the limit.
	Timeout time.Duration
}

// coreOptions builds the core.Options shared by every SyCCL run in an
// experiment; callers override the knob under study.
func (c Config) coreOptions() core.Options {
	return core.Options{Seed: c.Seed, Workers: c.Workers, Obs: c.Obs}
}

// synthesize runs one SyCCL case through the configured Engine (when one
// is wired) under the configured Timeout. The performance sweeps funnel
// through here so engine reuse and deadlines apply uniformly.
func (c Config) synthesize(top *topology.Topology, col *collective.Collective, opts core.Options) (*core.Result, error) {
	ctx := context.Background()
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	if c.Engine != nil {
		return c.Engine.Plan(ctx, top, col, opts)
	}
	return core.SynthesizeContext(ctx, top, col, opts)
}

// synthesizeCold is synthesize without the shared Engine. The
// synthesis-time figures and cache ablations (Figs 15–17, Table 5)
// measure the pipeline itself; serving their cases from a warm
// cross-request cache would report cache latency instead of solver work,
// so they always run cold.
func (c Config) synthesizeCold(top *topology.Topology, col *collective.Collective, opts core.Options) (*core.Result, error) {
	c.Engine = nil
	return c.synthesize(top, col, opts)
}

// tecclOptions builds the teccl.Options shared by every TECCL run.
func (c Config) tecclOptions() teccl.Options {
	return teccl.Options{TimeBudget: c.TECCLBudget, Seed: c.Seed, Rec: c.Obs}
}

func (c Config) withDefaults() Config {
	if c.TECCLBudget <= 0 {
		c.TECCLBudget = 3 * time.Second
		if c.Quick {
			c.TECCLBudget = 500 * time.Millisecond
		}
	}
	if len(c.Sizes) == 0 {
		c.Sizes = PaperSizes()
		if c.Quick {
			c.Sizes = []float64{16 << 10, 1 << 20, 64 << 20, 1 << 30}
		}
	}
	return c
}

// PaperSizes returns the x-axis of Figs 14/15/21/22: 1KB to 4GB in ×4
// steps.
func PaperSizes() []float64 {
	var out []float64
	for s := float64(1 << 10); s <= 4*float64(1<<30); s *= 4 {
		out = append(out, s)
	}
	return out
}

// SizeLabel renders a byte count the way the paper's axes do.
func SizeLabel(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%gG", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%gM", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%gK", b/(1<<10))
	default:
		return fmt.Sprintf("%gB", b)
	}
}

// PerfRow is one x-axis point of a busbw figure.
type PerfRow struct {
	Bytes float64
	// Busbw in bytes/second per system; NaN when the system has no
	// result (e.g. TECCL timeout at 512 GPUs).
	NCCL, TECCL, SyCCL, Crafted float64
	// Synthesis wall-clock per synthesizer.
	TECCLSynth, SyCCLSynth time.Duration
}

// PerfSeries is a complete figure.
type PerfSeries struct {
	ID    string // e.g. "fig14a"
	Title string
	GPUs  int
	Rows  []PerfRow
}

// Speedup returns max over rows of SyCCL/other − 1 (the paper's
// "improves busbw by up to X×" metric).
func (s *PerfSeries) Speedup(other func(PerfRow) float64) float64 {
	best := 0.0
	for _, r := range s.Rows {
		o := other(r)
		if o > 0 && !math.IsNaN(o) && r.SyCCL > 0 {
			if v := r.SyCCL/o - 1; v > best {
				best = v
			}
		}
	}
	return best
}

// Format renders the series as an aligned text table.
func (s *PerfSeries) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s (%d GPUs)\n", s.ID, s.Title, s.GPUs)
	fmt.Fprintf(&b, "%8s %12s %12s %12s", "size", "NCCL", "TECCL", "SyCCL")
	hasCrafted := false
	for _, r := range s.Rows {
		if !math.IsNaN(r.Crafted) && r.Crafted > 0 {
			hasCrafted = true
		}
	}
	if hasCrafted {
		fmt.Fprintf(&b, " %12s", "Crafted")
	}
	fmt.Fprintln(&b)
	gb := func(v float64) string {
		if math.IsNaN(v) || v <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", v/1e9)
	}
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%8s %12s %12s %12s", SizeLabel(r.Bytes), gb(r.NCCL), gb(r.TECCL), gb(r.SyCCL))
		if hasCrafted {
			fmt.Fprintf(&b, " %12s", gb(r.Crafted))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// perfSweep measures one figure: busbw per size per system.
func perfSweep(id, title string, top *topology.Topology, kind collective.Kind,
	cfg Config, withTECCL, withCrafted bool) (*PerfSeries, error) {

	cfg = cfg.withDefaults()
	n := top.NumGPUs()
	series := &PerfSeries{ID: id, Title: title, GPUs: n}
	for _, size := range cfg.Sizes {
		col, err := cli.BuildCollective(kind.String(), n, size)
		if err != nil {
			return nil, err
		}
		row := PerfRow{Bytes: size, TECCL: math.NaN(), Crafted: math.NaN()}

		// NCCL.
		_, t, err := nccl.Schedule(top, col, sim.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: nccl %s: %w", id, SizeLabel(size), err)
		}
		row.NCCL = metrics.BusBandwidth(kind, n, size, t)

		// SyCCL.
		start := time.Now()
		res, err := cfg.synthesize(top, col, cfg.coreOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: syccl %s: %w", id, SizeLabel(size), err)
		}
		row.SyCCLSynth = time.Since(start)
		row.SyCCL = metrics.BusBandwidth(kind, n, size, res.Time)

		// TECCL.
		if withTECCL {
			tres, err := teccl.Synthesize(top, col, cfg.tecclOptions())
			if err == nil {
				row.TECCL = metrics.BusBandwidth(kind, n, size, tres.Time)
				row.TECCLSynth = tres.Spent
			}
		}
		series.Rows = append(series.Rows, row)
	}
	_ = withCrafted
	return series, nil
}
