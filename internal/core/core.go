// Package core implements the SyCCL synthesizer: the two-phase pipeline
// of Fig 6 that explores sketches (§4), synthesizes sub-schedules with the
// epoch solver (§5.1), merges them into complete schedules, ranks them
// with the α-β simulator (§5.2), and accelerates everything with two-step
// synthesis, isomorphism caching, and parallel solving (§5.3).
package core

import (
	"runtime"
	"strconv"
	"time"

	"syccl/internal/obs"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/sketch"
	"syccl/internal/solve"
)

// The §5.3 candidate filter and the combination cap, fixed at the
// paper's evaluation setup (§7.1).
const (
	// r1 is the relative-performance filter after the coarse pass: drop
	// candidates more than r1 worse than the best.
	r1 = 0.20
	// r2 caps the candidates refined in the fine pass.
	r2 = 8
	// maxCombos caps the ranked sketches expanded into combinations; at
	// most 2·maxCombos combinations (before the pipelined splits) reach
	// the coarse pass.
	maxCombos = 12
)

// Options configures a synthesis run. The defaults match the paper's
// evaluation setup (§7.1): E1=3.0, E2=0.5.
type Options struct {
	// E1 is the coarse-pass epoch knob, E2 the fine-pass one.
	E1, E2 float64
	// Workers bounds the synthesis-level parallelism: candidate
	// assembly/simulation and sub-demand solving all fan out over this
	// many goroutines (default GOMAXPROCS). Results are deterministic
	// for any value.
	Workers int
	// Search configures sketch exploration: pruning toggles and stage
	// limits (the Fig 17 ablations), and the optional TACCL-style sketch
	// hint (Search.Hint), validated against the topology before search.
	Search sketch.SearchOptions
	// Seed steers nothing: no part of the pipeline is randomized. It
	// stays keyed (Fingerprint, and solve.Options.Seed in every solve
	// key) because the benchmark's stream requests set a fresh seed to
	// get a never-seen cold plan.
	Seed int64
	// Sim configures the ranking simulator.
	Sim sim.Options
	// Obs optionally records the run: hierarchical spans over every
	// pipeline phase, solver and cache counters, and per-candidate
	// timings, exportable as a Chrome trace (internal/obs). Nil disables
	// all instrumentation at zero cost.
	Obs *obs.Recorder
	// SolveCache optionally serves sub-demand solutions across synthesis
	// requests (internal/engine owns the implementation). Nil disables
	// cross-request reuse; the per-run isomorphism batching is unaffected.
	SolveCache SolveCache
	// SketchCache optionally serves sketch-search results across requests,
	// keyed by topology fingerprint. Nil disables reuse.
	SketchCache SketchCache
	// OnIncumbent, when non-nil, receives every incumbent the pipeline
	// publishes: a fully validated schedule for the requested collective
	// that strictly beats every previously published one. Calls are
	// serialized (never concurrent) but may come from worker goroutines,
	// so the callback must be fast and must not call back into the
	// synthesizer. The stream is opportunistic — which intermediate
	// incumbents appear can vary run to run with Workers — but each
	// published Time strictly decreases, and the synthesis result itself
	// stays byte-identical: publication never influences candidate
	// selection. No final event is emitted; the returned Result is the
	// final incumbent (its Time is ≤ the last published one).
	OnIncumbent func(Incumbent)
	// StopWithin, when positive, enables early termination at the
	// coarse/fine boundary: if the coarse incumbent's simulated time is
	// within StopWithin (relative, e.g. 0.05 = 5%) of its flow lower
	// bound, the fine pass is skipped and the coarse schedule returned
	// with Stats.StoppedEarly set. The check runs at a deterministic
	// pipeline boundary, so results remain byte-identical across Workers.
	StopWithin float64
	// Recipe, when non-nil, names the winner a previous identical request
	// arrived at (Result.Recipe; internal/engine keeps them per plan key).
	// The pipeline then rebuilds that one candidate from the recipe's own
	// sub-schedules instead of searching, and falls back to the full pass
	// when the recipe turns out stale — see Recipe. Either way the
	// schedule is the one the full pass returns.
	Recipe *Recipe
}

// Incumbent is one published best-so-far schedule: a complete, validated
// schedule for the requested collective together with its provenance.
// Streamed through Options.OnIncumbent.
type Incumbent struct {
	// Schedule is fully validated against the requested collective (for
	// mirrored and AllReduce collectives it is the finished mirrored or
	// concatenated schedule, not the internal forward one).
	Schedule *schedule.Schedule
	// Time is the simulator-predicted completion time in seconds;
	// strictly decreasing across the published stream.
	Time float64
	// Bound is the best known flow lower bound for the plan at publish
	// time (0 until bounds are computed).
	Bound float64
	// Source names the pipeline stage that produced the schedule:
	// "direct" (routed one-to-one), "coarse", "ring" (injected NCCL
	// ring), or "fine".
	Source string
	// Engine is the sub-demand engine of the producing pass ("greedy"
	// for the coarse pass, "auto" for the fine one), or "" where no
	// solver ran.
	Engine string
	// Combination is the sketch combination behind the schedule (nil for
	// injected or routed schedules, and for mirrored/concatenated
	// collectives where the forward combination applied). It may be
	// shared with an engine cache: read-only.
	Combination *sketch.Combination
	// Seq numbers the stream from 1.
	Seq int
}

// SolveCache is a cross-request store of solved sub-schedules. The
// pipeline looks up and stores isomorphism-class representatives only,
// and stores only what the solver returned for that very demand, so
// every entry is a solver output. Lookup must return, verbatim, what
// Store stored for this very demand under the given solve-option
// signature, and nil on a miss — never a solution remapped from another
// (isomorphic) demand: a hit is then exactly what solving would give,
// which makes warm re-plans bit-identical and a cached plan the cold
// plan, whatever was planned before. A sub-schedule is read-only once
// solved: Store may keep s itself and Lookup may return it to any number
// of callers, none of which writes it. Implementations must be safe for
// concurrent use and must not retain the demand after either call
// returns.
type SolveCache interface {
	Lookup(d *solve.Demand, optsSig string) *solve.SubSchedule
	Store(d *solve.Demand, optsSig string, s *solve.SubSchedule)
}

// SketchCache is a cross-request store of sketch-search results. Lookup
// reports a hit with ok=true (an empty sketch list is a valid cached
// result). Sketches are read-only once searched: Store may keep the
// slice itself and Lookup may return it to any number of callers, none
// of which writes it or its sketches. Implementations must be safe for
// concurrent use.
type SketchCache interface {
	Lookup(key string) (sketches []*sketch.Sketch, ok bool)
	Store(key string, sketches []*sketch.Sketch)
}

func (o Options) withDefaults() Options {
	if o.E1 <= 0 {
		o.E1 = 3.0
	}
	if o.E2 <= 0 {
		o.E2 = 0.5
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Sim.IsZero() {
		o.Sim = sim.DefaultOptions()
	}
	// Fan the recorder out to the sub-systems that accept one, unless the
	// caller wired its own.
	if o.Obs != nil {
		if o.Sim.Rec == nil {
			o.Sim.Rec = o.Obs
		}
		if o.Search.Rec == nil {
			o.Search.Rec = o.Obs
		}
	}
	return o
}

// Fingerprint renders every option that steers synthesis at its
// defaulted value: options that run identically render identically, and
// options that may run differently never do. engine.PlanKey keys plans
// by it.
// Left out are the fields that cannot change the schedule: Workers
// (schedules are byte-identical across worker counts), Obs, Sim.Rec,
// Search.Rec and OnIncumbent (observation), the two caches (wiring),
// and Recipe (a replay returns the full pass's bytes or runs it).
func (o Options) Fingerprint() string {
	o = o.withDefaults()
	b := make([]byte, 0, 192)
	b = strconv.AppendFloat(append(b, "e1="...), o.E1, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, "|e2="...), o.E2, 'g', -1, 64)
	b = strconv.AppendInt(append(b, "|seed="...), o.Seed, 10)
	b = strconv.AppendFloat(append(b, "|sw="...), o.StopWithin, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, "|sim="...), o.Sim.BlockBytes, 'g', -1, 64)
	b = strconv.AppendInt(append(b, '/'), int64(o.Sim.MaxBlocks), 10)
	b = append(append(b, "|search="...), o.Search.Fingerprint()...)
	return string(b)
}

// Phases records where synthesis time went (Fig 16b).
type Phases struct {
	Search  time.Duration // sketch exploration (§4.1)
	Combine time.Duration // replication + integration (§4.2/4.3)
	Solve1  time.Duration // coarse-pass sub-schedule synthesis
	Solve2  time.Duration // fine-pass sub-schedule synthesis
}

// Total sums all phases.
func (p Phases) Total() time.Duration { return p.Search + p.Combine + p.Solve1 + p.Solve2 }

// Stats reports synthesis internals.
type Stats struct {
	Sketches    int // sketches emitted by the search
	Candidates  int // combinations evaluated in the coarse pass
	Refined     int // combinations refined in the fine pass
	SolverCalls int // sub-demand solves actually executed
	CacheHits   int // sub-demands served by isomorphism mapping
	CacheMisses int // sub-demands that fell through to a solver call
	// CrossCacheHits counts the cells of class representatives the
	// cross-request solve cache (the engine's memory/persist tiers)
	// served, or on a replay the cells the recipe carried; replan reuse
	// accounting reads it.
	CrossCacheHits int
	MaxSolve       time.Duration // longest single sub-demand solve (Fig 17c)
	// BoundsComputed is 1 when the coarse incumbent's flow lower bound
	// (Result.Bound) was computed, else 0. PrunedLB is always 0: the
	// bound prunes no candidates; the field stays for the bench
	// ledger's core.pruned_lb row.
	BoundsComputed int
	PrunedLB       int
	// StoppedEarly reports that Options.StopWithin fired: the coarse
	// incumbent was within the configured gap of its flow lower bound,
	// so the fine pass was skipped. The result is complete (not
	// Partial) — the knob trades potential fine-pass improvement for
	// latency, deterministically.
	StoppedEarly bool
	// SolveErrors carries the distinct solver error messages behind
	// failed candidates, in deterministic order, so a failing solve is
	// diagnosable instead of silently dropping candidates.
	SolveErrors []string
	// Replayed reports that the result was rebuilt from Options.Recipe:
	// one candidate assembled from the recipe's sub-schedules,
	// re-simulated and re-validated, with no search, bounds, ranking or
	// cache lookup. Candidates is 1 and CrossCacheHits the number of
	// cells.
	Replayed bool
}

// Result is a synthesized schedule with its predicted performance.
type Result struct {
	Schedule *schedule.Schedule
	// Time is the simulator-predicted completion time in seconds.
	Time float64
	// Bound is the flow lower bound the pipeline computed for its coarse
	// incumbent (the one StopWithin compares against), in
	// seconds: no schedule realizing that combination can run faster
	// under the simulator. It bounds the forward schedule — the
	// AllGather phase of an AllReduce, the one-to-all inverse of a
	// Reduce or Gather — and is 0 when none was computed: a replay, a
	// routed one-to-one transfer, a run that stopped before the bound
	// pass, an injected incumbent with no combination (the ring), or a
	// cancelled bound LP.
	Bound float64
	// Combination is the winning sketch combination (nil for mirrored
	// or concatenated schedules where the forward combination applied).
	// It may be shared with an engine cache and with other plans'
	// results: read-only, sketches included.
	Combination *sketch.Combination
	Phases      Phases
	Stats       Stats
	// Partial marks an anytime result: the context was cancelled or its
	// deadline expired mid-synthesis, and Schedule is the best fully
	// validated candidate found by then rather than the full pipeline's
	// choice. Partial schedules are still complete, correct schedules.
	Partial bool
	// Recipe records how the winner was made, for Options.Recipe of a
	// later identical request. Set only on complete results of the sketch
	// pipeline (nil when Partial, and for routed one-to-one transfers).
	// Shared and read-only, as Combination.
	Recipe *Recipe
}

// passSolver is what a pass hands the sub-demand solver (the caller adds
// the per-solve Span); its Fingerprint is the signature the pass's
// sub-schedules are cached under. The coarse pass trades accuracy for
// speed twice over — large epochs (E1) and the greedy engine: it only
// ranks candidates. The fine pass refines the survivors with EngineAuto:
// exact MILP under the flow-bound horizon floor, and greedy for
// instances over the MILP size gate.
func (o Options) passSolver(fine bool) solve.Options {
	if fine {
		return solve.Options{E: o.E2, Engine: solve.EngineAuto, Seed: o.Seed}
	}
	return solve.Options{E: o.E1, Engine: solve.EngineGreedy, Seed: o.Seed}
}
