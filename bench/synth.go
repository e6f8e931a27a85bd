package main

import (
	"context"
	"fmt"
	"time"

	"syccl/internal/core"
	"syccl/internal/engine"
	"syccl/internal/obs"
	"syccl/internal/schedule"
	"syccl/internal/verify"
)

// synthColdCases is the paper's Fig 14-16 grid minus the 512-GPU sweep
// (26 s per op — too long to repeat). README.md says why each is here.
var synthColdCases = []string{
	"server8:broadcast:64M",
	"a100x16:broadcast:1M",
	"a100x16:allgather:1M",
	"a100x16:reducescatter:64M",
	"a100x16:allreduce:64M",
	"a100x16:alltoall:64M",
	"h800small:allgather:1M",
	"h800x64:allgather:64M",
	"h800x64:alltoall:64M",
}

// planWarmCases is the synth_cold list with two trivially small fabrics
// in place of the two broadcasts, so per-plan overhead shows next to the
// per-transfer cost of the 64-GPU cases.
var planWarmCases = []string{
	"dgx4:allgather:1M",
	"server8:allgather:1M",
	"a100x16:allgather:1M",
	"a100x16:reducescatter:64M",
	"a100x16:allreduce:64M",
	"a100x16:alltoall:64M",
	"h800small:allgather:1M",
	"h800x64:allgather:64M",
	"h800x64:alltoall:64M",
}

// caseSet is the part the two synthesis workloads share: fixtures with
// NCCL baselines, unshuffled-order exemption, no per-round work.
type caseSet struct {
	fx  []*fixture
	rec *obs.Recorder
	// scheds keeps each case's oracle-checked schedule for the probes.
	scheds []*schedule.Schedule
}

func (c *caseSet) build(e *env, specs []string, smokeSpecs []string) error {
	if e.smoke {
		specs = smokeSpecs
	}
	fx, err := newFixtures(specs)
	if err != nil {
		return err
	}
	for _, f := range fx {
		if err := f.baseline(); err != nil {
			return err
		}
	}
	c.fx, c.rec, c.scheds = fx, e.rec, make([]*schedule.Schedule, len(fx))
	return nil
}

func (c *caseSet) caseNames() []string {
	out := make([]string, len(c.fx))
	for i, f := range c.fx {
		out[i] = f.spec
	}
	return out
}

func (c *caseSet) ordered() bool              { return false }
func (c *caseSet) manySamples() bool          { return false }
func (c *caseSet) beginRound() error          { return nil }
func (c *caseSet) endRound() error            { return nil }
func (c *caseSet) fixtureOf(i int) *fixture   { return c.fx[i] }
func (c *caseSet) extras() map[string]float64 { return nil }

// resultSample turns a synthesis result into a sample, refusing anytime
// (Partial) results: the workloads set no deadline, so one is a failure.
func resultSample(res *core.Result, wall time.Duration) (sample, error) {
	if res.Partial {
		return sample{}, fmt.Errorf("result is Partial")
	}
	return sample{
		wall:    wall,
		simTime: res.Time,
		digest:  scheduleDigest(res.Time, res.Schedule),
		sched:   res.Schedule,
		phases:  res.Phases,
		stats:   res.Stats,
	}, nil
}

// synthCold is one-shot synthesis with nothing cached: lp, milp, solve,
// sketch, sim and core do all the work and engine, serve, persist none.
type synthCold struct{ caseSet }

func (w *synthCold) name() string { return "synth_cold" }

func (w *synthCold) setup(e *env) error {
	return w.build(e, synthColdCases, []string{"a100x16:broadcast:1M", "a100x16:allgather:1M"})
}

func (w *synthCold) run(i int, _ *obs.Span) (sample, error) {
	f := w.fx[i]
	start := time.Now()
	res, err := core.Synthesize(f.top, f.col, core.Options{Obs: w.rec})
	wall := time.Since(start)
	if err != nil {
		return sample{}, err
	}
	return resultSample(res, wall)
}

func (w *synthCold) check(i int, s sample) error {
	w.scheds[i] = s.sched
	return verify.CheckSchedule(w.fx[i].col, s.sched)
}

// probes: synth_cold is where the solver stack runs, so it is probed
// on the sub-demands its own cases produce.
func (w *synthCold) probes(p *prober, _ string) error {
	corpus, err := captureCorpus(w.fx)
	if err != nil {
		return err
	}
	probeSolvers(p, w.fx, corpus)
	probeSim(p, w.fx, w.scheds)
	probeCommon(p, w.fx, w.scheds)
	return nil
}

func (w *synthCold) counters() map[string]float64 { return nil }
func (w *synthCold) audit(*runStats)              {}
func (w *synthCold) close()                       {}

// planWarm replays plans on one long-lived engine primed in set-up: zero
// solver work, so engine lookups/clones and core's assemble / mirror /
// validate / simulate are all there is. A solver speed-up must not move it.
type planWarm struct {
	caseSet
	eng *engine.Engine
}

func (w *planWarm) name() string { return "plan_warm" }

func (w *planWarm) setup(e *env) error {
	if err := w.build(e, planWarmCases, []string{"dgx4:allgather:1M", "server8:allgather:1M"}); err != nil {
		return err
	}
	w.eng = engine.New(engine.Options{Obs: e.rec})
	// Two passes: the first solves, the second reaches the warm fixed
	// point (bounds and sketches a first plan only stored on its way out).
	for pass := 0; pass < 2; pass++ {
		for _, f := range w.fx {
			if _, err := w.eng.Plan(context.Background(), f.top, f.col, core.Options{}); err != nil {
				return fmt.Errorf("prime %s: %w", f.spec, err)
			}
		}
	}
	return nil
}

func (w *planWarm) run(i int, _ *obs.Span) (sample, error) {
	f := w.fx[i]
	start := time.Now()
	res, err := w.eng.Plan(context.Background(), f.top, f.col, core.Options{Obs: w.rec})
	wall := time.Since(start)
	if err != nil {
		return sample{}, err
	}
	if res.Stats.SolverCalls != 0 {
		return sample{}, fmt.Errorf("warm plan made %d solver calls", res.Stats.SolverCalls)
	}
	return resultSample(res, wall)
}

// check holds the warm plan to its cold one: byte-identical schedule,
// and that schedule passes the oracle.
func (w *planWarm) check(i int, s sample) error {
	f := w.fx[i]
	cold, err := core.Synthesize(f.top, f.col, core.Options{})
	if err != nil {
		return fmt.Errorf("cold reference: %w", err)
	}
	if d := scheduleDigest(cold.Time, cold.Schedule); d != s.digest {
		return fmt.Errorf("warm plan differs from the cold one (digest %016x vs %016x)", s.digest, d)
	}
	w.scheds[i] = s.sched
	return verify.CheckSchedule(f.col, s.sched)
}

// probes: with no solver to hide behind, the simulator and the keying
// every lookup pays are what a warm plan is made of.
func (w *planWarm) probes(p *prober, _ string) error {
	corpus, err := captureCorpus(w.fx[:min(len(w.fx), 4)])
	if err != nil {
		return err
	}
	probeSim(p, w.fx, w.scheds)
	probeKeys(p, w.fx, corpus)
	probeCommon(p, w.fx, w.scheds)
	return nil
}

func (w *planWarm) counters() map[string]float64 { return engineCounters(w.eng.Stats()) }

func (w *planWarm) audit(rs *runStats) {
	if n := rs.delta("engine.solve_misses"); n != 0 {
		rs.fail("plan_warm: %g solve-cache misses on a primed engine", n)
	}
}

func (w *planWarm) close() { w.eng = nil }

// engineCounters names the engine.Stats fields the ledger reports.
func engineCounters(st engine.Stats) map[string]float64 {
	return map[string]float64{
		"engine.plans":              float64(st.Plans),
		"engine.solve_hits":         float64(st.SolveHits),
		"engine.exact_hits":         float64(st.ExactHits),
		"engine.iso_hits":           float64(st.IsoHits),
		"engine.solve_misses":       float64(st.SolveMisses),
		"engine.sketch_hits":        float64(st.SketchHits),
		"engine.bound_hits":         float64(st.BoundHits),
		"engine.evictions":          float64(st.Evictions),
		"engine.persist_hits":       float64(st.PersistHits),
		"engine.persist_misses":     float64(st.PersistMisses),
		"engine.replans":            float64(st.Replans),
		"engine.replan_reused":      float64(st.ReplanReused),
		"engine.replan_invalidated": float64(st.ReplanInvalidated),
	}
}
