// Command bench is the repository's one performance ledger: four named
// workloads over the synthesizer, the engine and the serving daemon, six
// gated end-to-end metrics on each, and ~120 ungated per-layer metrics
// measured from outside the program. README.md is the glossary.
//
//	go run ./bench                                  # every workload, untraced then traced
//	go run ./bench -workload synth_cold -seed 1 -seconds 12 -trace 0
//	go run ./bench -workload serve_hit -trace 1    # per-layer metrics + Chrome trace
//	go run ./bench -smoke                          # seconds-long end-to-end check
//	go run ./bench -aa                             # A/A self-check of the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one named, united number of the ledger.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is one run of one workload: what the last stdout line carries.
type outcome struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	metrics   []metric
	wall      time.Duration
}

// result is the one JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadNames is the fixed order the ledger lists workloads in.
var workloadNames = []string{"synth_cold", "plan_warm", "serve_hit", "serve_churn"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "synth_cold":
		return &synthCold{}, nil
	case "plan_warm":
		return &planWarm{}, nil
	case "serve_hit":
		return &serveHit{}, nil
	case "serve_churn":
		return &serveChurn{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	smoke    bool
	tmp      string
	spec     *benchSpec
}

// setupRepeats is how many times set-up runs from scratch before the
// warm-up round; once more after the timed region, so that a burst at
// the start of the run cannot cover every sample. The fastest is setup_s.
const setupRepeats = 2

// runWorkload measures one workload once. Untraced it yields the six
// end-to-end metrics; traced it yields every per-layer metric and writes
// the Chrome trace.
func runWorkload(cfg config, out io.Writer) (*outcome, error) {
	start := time.Now()
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	defer w.close()
	tmp, err := os.MkdirTemp(cfg.tmp, "bench-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: cfg.seed, tmp: tmp, smoke: cfg.smoke}
	maxRounds := 0
	if cfg.smoke {
		maxRounds = 1
	}
	o := &outcome{workload: cfg.workload}
	if !cfg.trace {
		setup, err := timedSetup(w, e, setupRepeats)
		if err != nil {
			return nil, err
		}
		rs := measure(w, e, cfg.seconds, maxRounds)
		w.close()
		late, err := timedSetup(w, e, 1)
		if err != nil {
			return nil, err
		}
		setup = min(setup, late)
		o.attempted, o.failed, o.failures = rs.ops+rs.warmOps, rs.failed, rs.failures
		if o.metrics, err = named(cfg.spec.EndToEnd, endToEnd(setup, rs)); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# %s: %d rounds x %d cases in %.1fs, yardstick best %.3f ms median %.3f ms (nominal %g), host steal %.1f%%, raw op_ms %.6g\n",
			cfg.workload, rs.rounds, len(rs.cases), rs.elapsed.Seconds(), ms(bestOf(rs.speed.dur)), medianMS(rs.speed.dur), ms(yardNominal), rs.stealPct, rs.rawOpMS())
		for _, c := range rs.cases {
			fmt.Fprintf(out, "# %-44s normalized best %10.4f ms  raw best %10.4f ms  median %10.4f ms  n %d\n",
				c.name, rs.normBest(c), ms(bestOf(c.walls)), medianMS(c.walls), len(c.walls))
		}
	} else {
		if err := traced(w, e, cfg, maxRounds, o, out); err != nil {
			return nil, err
		}
	}
	o.wall = time.Since(start)
	return o, nil
}

// endToEnd derives the six gated metrics of a workload.
func endToEnd(setup time.Duration, rs *runStats) map[string]float64 {
	ops := float64(max(rs.ops, 1))
	busbw, vsNCCL := rs.quality()
	return map[string]float64{
		"setup_s":             setup.Seconds(),
		"op_ms":               rs.opMS(),
		"allocs_per_op":       float64(rs.mallocs) / ops,
		"kb_per_op":           float64(rs.allocBytes) / ops / 1024,
		"busbw_gbps":          busbw,
		"quality_vs_nccl_min": vsNCCL,
	}
}

// named lays computed values out in the order, and with the units,
// BENCHMARK.json lists them; a listed metric nothing computed reads 0. A
// value computed under a name the file does not list would be silently
// dropped, so that is an error.
func named(list []metricSpec, vals map[string]float64) ([]metric, error) {
	known := make(map[string]bool, len(list))
	out := make([]metric, 0, len(list))
	for _, m := range list {
		known[m.Name] = true
		out = append(out, metric{m.Name, vals[m.Name], m.Unit})
	}
	for name := range vals {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// printOutcome prints every metric by name with its unit, then the one
// JSON object the driver reads from the last line of standard output.
func printOutcome(o *outcome, out io.Writer) {
	for _, m := range o.metrics {
		fmt.Fprintf(out, "%-14s %-36s %16.6g %s\n", o.workload, m.name, m.value, m.unit)
	}
	for _, f := range o.failures {
		fmt.Fprintf(out, "%-14s FAILED %s\n", o.workload, f)
	}
	fmt.Fprintf(out, "%-14s ops_attempted %d ops_failed %d wall %.1fs\n", o.workload, o.attempted, o.failed, o.wall.Seconds())
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue, len(o.metrics))}
	for _, m := range o.metrics {
		r.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	line, err := json.Marshal(r)
	if err != nil {
		// Only a non-finite value can do this; the run is void.
		fmt.Fprintln(os.Stderr, "bench: result not encodable:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
}

// header prints the environment the numbers were taken in.
func header(cfg config, out io.Writer) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(out, "# syccl bench: commit %s %s nproc %d GOMAXPROCS %d seed %d seconds %g yardstick %.3f ms\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, cfg.seconds, ms(yardstick().run()))
}

func main() {
	var cfg config
	var trace int
	var aa bool
	var aaRuns int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four, untraced then traced)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the round shuffles and serve_churn's script")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the timed region (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1: traced run — per-layer metrics and a Chrome trace; 0: end-to-end metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace_<workload>.json)")
	flag.BoolVar(&cfg.smoke, "smoke", false, "one round of the two smallest cases per workload, traced and untraced")
	flag.BoolVar(&aa, "aa", false, "A/A self-check: two sets of -k full runs of this tree against the bounds")
	flag.IntVar(&aaRuns, "k", 3, "runs per set for -aa")
	flag.Parse()
	cfg.trace = trace != 0

	// One process, GOMAXPROCS = min(nproc, 4): the program's defaults
	// (Workers = GOMAXPROCS) then mean the same thing on every box up to
	// four cores. More Ps than CPUs would time the scheduler, not the code.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "bench: GOMAXPROCS %d exceeds nproc %d; refusing to measure\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		os.Exit(2)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg.spec = spec
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	// Everything the benchmark writes lives under .bench_build in the
	// working directory and is removed on exit, traces excepted.
	cfg.tmp = ".bench_build"
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if cfg.traceOut == "" && cfg.workload != "" {
		cfg.traceOut = filepath.Join(cfg.tmp, "trace_"+cfg.workload+".json")
	}

	switch {
	case aa:
		os.Exit(selfCheck(cfg, aaRuns, os.Stdout))
	case cfg.workload != "":
		header(cfg, os.Stdout)
		o, err := runWorkload(cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printOutcome(o, os.Stdout)
		if o.failed > 0 {
			os.Exit(1)
		}
	default:
		os.Exit(runAll(cfg, os.Stdout))
	}
}

// runAll is the default invocation: every workload untraced (the gated
// numbers), then traced (the per-layer table), sized to finish in under
// four minutes on two cores.
func runAll(cfg config, out io.Writer) int {
	header(cfg, out)
	code := 0
	for _, traceOn := range []bool{false, true} {
		for _, name := range workloadNames {
			c := cfg
			c.workload, c.trace = name, traceOn
			if traceOn {
				c.seconds = cfg.seconds / 2
				c.traceOut = filepath.Join(cfg.tmp, "trace_"+name+".json")
			}
			o, err := runWorkload(c, out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				continue
			}
			printOutcome(o, out)
			if o.failed > 0 {
				code = 1
			}
		}
	}
	return code
}
