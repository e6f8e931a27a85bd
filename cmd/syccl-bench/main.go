// Command syccl-bench regenerates the paper's evaluation tables and
// figures (§7, Appendix C). Each experiment prints the same rows/series
// the paper reports; EXPERIMENTS.md records the paper-vs-measured
// comparison.
//
// Usage:
//
//	syccl-bench -list
//	syccl-bench -run fig14a
//	syccl-bench -run all -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"syccl/internal/engine"
	"syccl/internal/experiments"
	"syccl/internal/obs"
)

type runner func(experiments.Config) (string, error)

func runners() map[string]runner {
	wrap := func(f func(experiments.Config) (*experiments.PerfSeries, error)) runner {
		return func(cfg experiments.Config) (string, error) {
			s, err := f(cfg)
			if err != nil {
				return "", err
			}
			out := s.Format()
			out += fmt.Sprintf("max speedup over NCCL: %.2f×", 1+s.Speedup(func(r experiments.PerfRow) float64 { return r.NCCL }))
			if sp := s.Speedup(func(r experiments.PerfRow) float64 { return r.TECCL }); sp > 0 {
				out += fmt.Sprintf(", over TECCL: %.2f×", 1+sp)
			}
			return out + "\n", nil
		}
	}
	return map[string]runner{
		"fig14a": wrap(experiments.Fig14a),
		"fig14b": wrap(experiments.Fig14b),
		"fig14c": wrap(experiments.Fig14c),
		"fig14d": wrap(experiments.Fig14d),
		"fig15a": wrap(experiments.Fig15a),
		"fig15b": wrap(experiments.Fig15b),
		"fig15c": wrap(experiments.Fig15c),
		"fig16a": func(cfg experiments.Config) (string, error) {
			series, err := experiments.Fig16a(cfg)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, s := range series {
				b.WriteString(s.Format())
			}
			return b.String(), nil
		},
		"fig16b": func(cfg experiments.Config) (string, error) {
			rows, err := experiments.Fig16b(cfg)
			if err != nil {
				return "", err
			}
			return experiments.FormatBreakdown(rows), nil
		},
		"fig16c": func(cfg experiments.Config) (string, error) {
			rows, err := experiments.Fig16c(cfg)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "fig16c: synthesis time vs parallel instances (single-core host: expect flat wall-clock)\n")
			fmt.Fprintf(&b, "%8s %8s %14s\n", "size", "workers", "synth")
			for _, r := range rows {
				fmt.Fprintf(&b, "%8s %8d %14s\n", experiments.SizeLabel(r.Bytes), r.Workers, r.SyCCL.Round(time.Millisecond))
			}
			return b.String(), nil
		},
		"table5": func(cfg experiments.Config) (string, error) {
			rows, err := experiments.Table5(cfg)
			if err != nil {
				return "", err
			}
			return experiments.FormatTable5(rows), nil
		},
		"fig17a": func(cfg experiments.Config) (string, error) {
			rows, err := experiments.Fig17a(cfg)
			if err != nil {
				return "", err
			}
			return experiments.FormatFig17a(rows), nil
		},
		"fig17b": func(cfg experiments.Config) (string, error) {
			rows, err := experiments.Fig17b(cfg)
			if err != nil {
				return "", err
			}
			return experiments.FormatFig17b(rows), nil
		},
		"fig17c": func(cfg experiments.Config) (string, error) {
			rows, err := experiments.Fig17c(cfg)
			if err != nil {
				return "", err
			}
			return experiments.FormatFig17c(rows), nil
		},
		"table6": func(cfg experiments.Config) (string, error) {
			rows, err := experiments.Table6(cfg)
			if err != nil {
				return "", err
			}
			return experiments.FormatTable6(rows), nil
		},
		"fig21a": wrap(experiments.Fig21a),
		"fig21b": wrap(experiments.Fig21b),
		"fig22":  wrap(experiments.Fig22),
	}
}

func main() {
	run := flag.String("run", "", "experiment id or 'all'")
	list := flag.Bool("list", false, "list experiments")
	quick := flag.Bool("quick", false, "trimmed sweeps for fast runs")
	budget := flag.Duration("teccl-budget", 0, "TECCL per-case budget (0: default)")
	timeout := flag.Duration("timeout", 0, "per-synthesis deadline; on expiry the best schedule found so far is used (0 = no limit)")
	seed := flag.Int64("seed", 0, "random seed")
	tracePath := flag.String("trace", "", "write a Chrome trace covering every synthesis run (open in Perfetto)")
	flag.Parse()

	all := runners()
	var ids []string
	for id := range all {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, id := range ids {
			fmt.Println(" ", id)
		}
		if *run == "" {
			fmt.Println("\nuse -run <id> or -run all")
		}
		return
	}

	cfg := experiments.Config{Quick: *quick, TECCLBudget: *budget, Seed: *seed, Timeout: *timeout}
	if *tracePath != "" {
		cfg.Obs = obs.NewRecorder()
	}
	// One engine across every experiment: repeated topologies and demand
	// shapes inside a sweep hit its caches instead of re-solving.
	cfg.Engine = engine.New(engine.Options{Obs: cfg.Obs})
	targets := ids
	if *run != "all" {
		if _, ok := all[*run]; !ok {
			fmt.Fprintf(os.Stderr, "syccl-bench: unknown experiment %q\n", *run)
			os.Exit(1)
		}
		targets = []string{*run}
	}
	for _, id := range targets {
		start := time.Now()
		out, err := all[id](cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "syccl-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "syccl-bench: %v\n", err)
			os.Exit(1)
		}
		if err := cfg.Obs.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "syccl-bench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "syccl-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace to %s (open at https://ui.perfetto.dev)\n", *tracePath)
	}
}
