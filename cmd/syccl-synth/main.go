// Command syccl-synth synthesizes a collective schedule with SyCCL (or a
// baseline) and reports predicted performance; optionally it writes the
// schedule as MSCCL-executor XML (§6) and a Chrome trace of the run.
//
// Usage:
//
//	syccl-synth -topo a100x16 -collective allgather -size 64M -out ag.xml
//	syccl-synth -topo h800x64 -collective alltoall -size 1G -system teccl
//	syccl-synth -topo dgx4 -coll allgather -trace run.json   # open in Perfetto
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"syccl/internal/cli"
	"syccl/internal/core"
	"syccl/internal/engine"
	"syccl/internal/metrics"
	"syccl/internal/mxml"
	"syccl/internal/nccl"
	"syccl/internal/obs"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/sketch"
	"syccl/internal/teccl"
	"syccl/internal/trace"
)

func main() {
	opts := cli.NewSynthFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "syccl-synth:", err)
		os.Exit(1)
	}

	top, col, err := opts.Resolve()
	if err != nil {
		fail(err)
	}
	if d := opts.ParsedDelta(); d != nil {
		fmt.Printf("delta %q applied to %s: synthesizing on degraded topology %s\n",
			d, opts.Base().Name, top.Name)
	}

	// Only pay for recording when an exporter will consume it.
	var rec *obs.Recorder
	if opts.TracePath != "" || opts.Summary {
		rec = obs.NewRecorder()
	}

	ctx := context.Background()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}

	var sched *schedule.Schedule
	var predicted float64
	start := time.Now()
	switch opts.System {
	case "syccl":
		eng := engine.New(engine.Options{Obs: rec})
		copts := core.Options{
			E1: opts.E1, E2: opts.E2, Workers: opts.Workers, Seed: opts.Seed,
			Obs:        rec,
			Search:     sketch.SearchOptions{Hint: opts.Hint()},
			StopWithin: opts.StopWithin / 100,
		}
		if opts.Stream {
			copts.OnIncumbent = func(inc core.Incumbent) {
				line := fmt.Sprintf("incumbent #%d: %.4gs source=%s", inc.Seq, inc.Time, inc.Source)
				if inc.Engine != "" {
					line += " engine=" + inc.Engine
				}
				if inc.Bound > 0 {
					line += fmt.Sprintf(" bound=%.4gs (%.1f%% above)", inc.Bound, 100*(inc.Time/inc.Bound-1))
				}
				fmt.Printf("%s (+%v)\n", line, time.Since(start).Round(time.Millisecond))
			}
		}
		res, err := eng.Plan(ctx, top, col, copts)
		if err != nil {
			fail(err)
		}
		sched, predicted = res.Schedule, res.Time
		fmt.Printf("phases: search=%v combine=%v solve1=%v solve2=%v (sketches=%d candidates=%d solves=%d cache-hits=%d cache-misses=%d)\n",
			res.Phases.Search.Round(time.Microsecond), res.Phases.Combine.Round(time.Microsecond),
			res.Phases.Solve1.Round(time.Millisecond), res.Phases.Solve2.Round(time.Millisecond),
			res.Stats.Sketches, res.Stats.Candidates, res.Stats.SolverCalls, res.Stats.CacheHits, res.Stats.CacheMisses)
		if res.Bound > 0 {
			fmt.Printf("bound: %.4gs on the forward schedule, gap %.3f\n", res.Bound, res.Time/res.Bound)
		}
		for _, e := range res.Stats.SolveErrors {
			fmt.Fprintln(os.Stderr, "syccl-synth: solver:", e)
		}
		if res.Stats.StoppedEarly {
			fmt.Printf("note: -stop-within %g%% satisfied; skipped the fine pass\n", opts.StopWithin)
		}
		if res.Partial {
			fmt.Printf("note: -timeout %v expired mid-synthesis; reporting the best schedule found so far\n", opts.Timeout)
		}
		if opts.Explain && res.Combination != nil {
			fmt.Print(res.Combination.DescribeCombination(top))
		}
	case "teccl":
		res, err := teccl.Synthesize(top, col, teccl.Options{TimeBudget: opts.Budget, Seed: opts.Seed, Rec: rec})
		if err != nil {
			fail(err)
		}
		sched, predicted = res.Schedule, res.Time
		fmt.Printf("teccl: %d greedy rounds within %v budget\n", res.Rounds, opts.Budget)
	case "nccl":
		sp := rec.StartSpan("nccl.schedule")
		so := sim.DefaultOptions()
		so.Rec = rec
		s, t, err := nccl.Schedule(top, col, so)
		sp.End()
		if err != nil {
			fail(err)
		}
		sched, predicted = s, t
	}
	synthTime := time.Since(start)

	bus := metrics.BusBandwidth(col.Kind, col.NumGPUs, metrics.DataBytes(col), predicted)
	fmt.Printf("%s %s on %s (%s): %d transfers, predicted %.3gs, busbw %.1f GBps, synthesized in %v\n",
		opts.System, col.Kind, top.Name, opts.Size, len(sched.Transfers), predicted, bus/1e9,
		synthTime.Round(time.Millisecond))

	if rec != nil {
		// Re-simulate the winning schedule so the trace also carries its
		// per-link timeline next to the synthesis spans.
		if res, err := sim.Simulate(top, sched, sim.DefaultOptions()); err == nil {
			trace.EmitChrome(rec, top, sched, res)
		}
	}
	if opts.Summary {
		fmt.Println()
		fmt.Print(rec.Summary())
	}
	if opts.TracePath != "" {
		f, err := os.Create(opts.TracePath)
		if err != nil {
			fail(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote Chrome trace to %s (open at https://ui.perfetto.dev)\n", opts.TracePath)
	}

	if opts.Out != "" {
		data, err := mxml.Marshal(sched, mxml.Params{Name: fmt.Sprintf("%s-%s-%s", opts.System, opts.Collective, opts.Size)})
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(opts.Out, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", opts.Out, len(data))
	}
}
