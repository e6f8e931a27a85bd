package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"syccl/internal/obs"
)

// tracedRoundCap bounds the traced segment: serve_hit runs thousands of
// rounds a second and every request leaves several spans.
const tracedRoundCap = 200

// traced is a -trace 1 run. It measures three things in one process:
//
//	① an untraced segment — the counters and phases the program already
//	  returns, latency shape, process figures;
//	② a traced segment — an obs.Recorder handed to the program through
//	  its public Options.Obs, every op wrapped in the benchmark's own
//	  spans; spans stay in memory until the Chrome trace is written at
//	  the end;
//	③ direct probes of single layers on inputs captured from the workload.
//
// End-to-end metrics never come from here: the driver takes them from
// the untraced (-trace 0) run.
func traced(w workload, e *env, cfg config, maxRounds int, o *outcome, out io.Writer) error {
	vals := map[string]float64{}

	// ① untraced.
	if _, err := timedSetup(w, e, 1); err != nil {
		return err
	}
	plain := measure(w, e, cfg.seconds*0.4, maxRounds)
	layerUntraced(vals, w, plain)
	w.close()

	// ② traced.
	rec := obs.NewRecorder()
	e.rec = rec
	if _, err := timedSetup(w, e, 1); err != nil {
		return err
	}
	limit := tracedRoundCap
	if maxRounds > 0 {
		limit = maxRounds
	}
	tr := measure(w, e, cfg.seconds*0.2, limit)
	e.rec = nil
	stats := layerTraced(vals, rec, tr)
	if a, b := plain.opMS(), tr.opMS(); a > 0 {
		vals["trace.overhead_ratio"] = b / a
	}

	// ③ probes, while the workload's fixtures and schedules are live.
	p := &prober{slice: time.Duration(cfg.seconds * 0.2 / 24 * float64(time.Second)), out: vals}
	if cfg.smoke {
		p.slice = time.Millisecond
	}
	if err := w.probes(p, e.tmp); err != nil {
		return fmt.Errorf("%s: probes: %w", w.name(), err)
	}
	w.close()
	runtime.GC()
	// Whatever the workload started must be gone by now.
	vals["proc.goroutines_end"] = float64(runtime.NumGoroutine())
	vals["proc.peak_rss_mb"] = peakRSSMB()

	if cfg.traceOut != "" {
		if err := writeTrace(rec, cfg.traceOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "# %s: Chrome trace in %s (%d spans)\n", w.name(), cfg.traceOut, len(rec.Spans()))
	}
	printSpanTable(out, w.name(), stats, tr.rounds)

	o.attempted = plain.ops + plain.warmOps + tr.ops + tr.warmOps
	o.failed = plain.failed + tr.failed
	o.failures = append(plain.failures, tr.failures...)
	var err error
	if o.metrics, err = named(cfg.spec.PerLayer, vals); err != nil {
		return err
	}
	fmt.Fprintf(out, "# %s: untraced %d rounds, traced %d rounds x %d cases\n", w.name(), plain.rounds, tr.rounds, len(tr.cases))
	return nil
}

func writeTrace(rec *obs.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerUntraced fills the source-① metrics: what the program already
// returns, read from outside on the untraced segment.
func layerUntraced(v map[string]float64, w workload, rs *runStats) {
	rounds := float64(max(rs.rounds, 1))
	ops := float64(max(rs.ops, 1))

	// core: phases and stats of each case's fastest round, summed over
	// the cases — Fig 16b's split for the whole workload.
	var phaseSum, wallSum time.Duration
	var hits, misses int
	for _, c := range rs.cases {
		ph, st := c.best.phases, c.best.stats
		if ph.Total() == 0 && st.Candidates == 0 {
			continue // a serve op: core's result stays inside the daemon
		}
		v["core.search_ms"] += ms(ph.Search)
		v["core.combine_ms"] += ms(ph.Combine)
		v["core.solve1_ms"] += ms(ph.Solve1)
		v["core.solve2_ms"] += ms(ph.Solve2)
		v["core.solver_calls"] += float64(st.SolverCalls)
		v["core.iso_hits"] += float64(st.CacheHits)
		v["core.candidates"] += float64(st.Candidates)
		v["core.refined"] += float64(st.Refined)
		v["core.bounds_computed"] += float64(st.BoundsComputed)
		v["core.pruned_lb"] += float64(st.PrunedLB)
		v["core.max_solve_ms"] = max(v["core.max_solve_ms"], ms(st.MaxSolve))
		hits, misses = hits+st.CacheHits, misses+st.CacheMisses
		phaseSum += ph.Total()
		wallSum += c.best.wall
	}
	if hits+misses > 0 {
		v["core.iso_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if wallSum > 0 {
		v["core.phase_coverage_ratio"] = float64(phaseSum) / float64(wallSum)
	}

	// engine / serve / persist: counter growth over the timed region,
	// per round so that runs of different length compare.
	for name := range rs.after {
		switch name {
		case "persist.entries", "persist.bytes":
			v[name] = rs.after[name] // levels, not flows
		case "serve.replan_reused_subs", "serve.replan_total_subs":
		default:
			v[name] = rs.delta(name) / rounds
		}
	}
	if h, m := rs.delta("engine.solve_hits"), rs.delta("engine.solve_misses"); h+m > 0 {
		v["engine.hit_ratio"] = h / (h + m)
	}
	if t := rs.delta("serve.replan_total_subs"); t > 0 {
		v["serve.replan_reuse_ratio"] = rs.delta("serve.replan_reused_subs") / t
	}

	// serve: throughput of the one closed-loop client, per-class bests
	// (geomean over the class's cases of each case's fastest round).
	classBest := map[string][]float64{}
	var bytes, served float64
	for _, c := range rs.cases {
		if c.best.class == "" {
			continue
		}
		classBest[c.best.class] = append(classBest[c.best.class], ms(c.best.wall))
		if c.best.bytes > 0 {
			bytes += float64(c.best.bytes)
			served++
		}
	}
	if len(classBest) > 0 {
		v["serve.req_per_s"] = ops / rs.elapsed.Seconds()
	}
	for class, name := range map[string]string{
		"cold": "serve.cold_ms", "rewarm": "serve.rewarm_ms", "replan": "serve.replan_ms",
		"stream": "serve.ttfi_ms", "restored": "serve.restored_hit_ms",
		"hit_small": "serve.hit_small_ms", "hit_sched": "serve.hit_sched_ms",
	} {
		if xs := classBest[class]; len(xs) > 0 {
			v[name] = geomean(xs)
		}
	}
	if served > 0 {
		v["serve.resp_bytes"] = bytes / served
	}
	for name, x := range w.extras() {
		v[name] = x
	}

	// Latency shape: the median and the highest percentile with at least
	// ten samples beyond it — reported, never gated (medians moved 15 %
	// between identical runs on this box).
	walls := rs.allWalls()
	v["lat.op_ms"], v["lat.raw_op_ms"] = rs.opMS(), rs.rawOpMS()
	v["lat.p50_ms"] = median(walls)
	v["lat.tail_pct"], v["lat.tail_ms"] = tail(walls)
	v["lat.samples"] = float64(len(walls))
	if len(classBest) == 0 { // synthesis ops carry no serve class
		for _, c := range rs.cases {
			v["case."+metricName(c.name)+".ms"] = ms(bestOf(c.walls))
		}
	}

	// proc.
	v["proc.cpu_ms_per_op"] = ms(rs.cpu) / ops
	v["proc.heap_inuse_peak_mb"] = float64(rs.heapInusePeak) / (1 << 20)
	v["proc.gc_cycles"] = float64(rs.gcCycles)
	v["proc.gc_pause_ms"] = ms(rs.gcPause)
	v["proc.calib_ms"] = ms(bestOf(rs.speed.dur))
	v["proc.calib_p50_ms"] = medianMS(rs.speed.dur)
	v["proc.steal_pct"] = rs.stealPct
}

// layerTraced fills the source-② metrics from the recorder: span totals
// and counter growth inside the timed region, per round. It returns the
// per-name span table.
func layerTraced(v map[string]float64, rec *obs.Recorder, rs *runStats) []spanStat {
	rounds := float64(max(rs.rounds, 1))
	all := rec.Spans()
	var from, to time.Duration
	for _, s := range all {
		if s.Name == timedSpan {
			from, to = s.Start, s.End
		}
	}
	stats := selfTimes(window(all, from, to))
	byName := map[string]spanStat{}
	for _, st := range stats {
		byName[st.name] = st
	}
	perRound := func(name string) float64 { return ms(byName[name].total) / rounds }
	count := func(name string) float64 { return (rs.obsAfter[name] - rs.obsBefore[name]) / rounds }

	v["core.candidate_ms"] = perRound("candidate")
	if syn := byName["synthesize"]; syn.total > 0 {
		v["core.unattributed_ratio"] = float64(syn.self) / float64(syn.total)
	}
	v["sketch.search_ms"] = perRound("sketch.search")
	v["sketch.nodes"] = count("sketch.nodes")
	v["sketch.emitted"] = count("sketch.emitted")
	v["solve.subdemand_ms"] = perRound("solve.subdemand")
	v["solve.subdemand_count"] = float64(byName["solve.subdemand"].count) / rounds
	v["solve.flow_ms"] = perRound("solve.flow")
	v["solve.bound_ms"] = perRound("solve.bound")
	v["solve.greedy_count"] = count("solve.greedy")
	v["solve.exact_count"] = count("solve.exact")
	v["solve.flow_count"] = count("solve.flow")
	v["solve.rotation_count"] = count("solve.rotation")
	v["solve.flow_proved"] = count("solve.exact.flow_proved")
	v["solve.horizons_skipped"] = count("solve.exact.horizons_skipped")
	v["milp.nodes"] = count("milp.nodes")
	v["lp.pivots"] = count("lp.pivots")
	v["sim.simulate_ms"] = perRound("sim.simulate")
	v["sim.simulate_count"] = float64(byName["sim.simulate"].count) / rounds
	v["sim.events"] = count("sim.events")
	return stats
}

// printSpanTable prints the per-layer table of the traced segment: per
// span name, calls, total and self time per round.
func printSpanTable(out io.Writer, workload string, stats []spanStat, rounds int) {
	r := float64(max(rounds, 1))
	sort.Slice(stats, func(a, b int) bool { return stats[a].self > stats[b].self })
	fmt.Fprintf(out, "# %s: span self time per round (duration minus what its children cover)\n", workload)
	fmt.Fprintf(out, "# %-22s %10s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, st := range stats {
		fmt.Fprintf(out, "# %-22s %10.1f %12.3f %12.3f\n", st.name, float64(st.count)/r, ms(st.total)/r, ms(st.self)/r)
	}
}
