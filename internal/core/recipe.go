package core

import (
	"math"
	"time"

	"syccl/internal/collective"
	"syccl/internal/nccl"
	"syccl/internal/obs"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// Recipe records how a completed pipeline made its winner: not the
// schedule, but the combination and the per-cell sub-schedules it was
// assembled from. The determinism contract says an identical request
// arrives at the same winner, so a caller that kept the recipe
// (internal/engine, per plan key) hands it back through Options.Recipe
// and the pipeline assembles, simulates, validates and finishes that one
// candidate instead of searching, bounding and ranking all of them.
//
// A recipe is a hint, never an answer. It does not depend on any cache,
// and everything a replay returns has been re-simulated and re-validated;
// if any step fails or the rebuilt schedule does not match the
// self-check, the recipe is stale and the full pass runs — same bytes,
// slower.
//
// A recipe is read-only once made: the engine keeps the pointer it is
// given and hands it to every replay, and a replay's Result carries it
// (and its Combination) on to the caller.
type Recipe struct {
	// Combination is the winning sketch combination; nil when the
	// injected NCCL ring won.
	Combination *sketch.Combination
	// Subs are the winner's sub-schedules, one per cell of the
	// combination's assembly, in cell order. Cells with one demand share
	// one pointer; nothing may write to them.
	Subs []*solve.SubSchedule
	// Source is the pass that produced the winner: "coarse", "fine" or
	// "ring". Engine is that pass's sub-demand engine ("" for the ring);
	// both are provenance for the incumbent a replay publishes.
	Source string
	Engine string
	// Ranks are the finished schedule's transfer Orders after the
	// pipeline re-keyed them into arrival order (readyOrder), one per
	// transfer; nil when the winner kept its assembled Orders. A replay
	// applies them instead of simulating to find them again.
	Ranks []int32
	// TimeBits (the finished schedule's simulated time, as
	// math.Float64bits: the result's Time) and Transfers (the forward
	// schedule's transfer count) are the self-check a replay must
	// reproduce.
	TimeBits  uint64
	Transfers int
}

// replay rebuilds the recipe's winner under one "replay" span, or returns
// nil when the recipe is stale. Like the other cheap finishing work it
// ignores cancellation and runs to completion, so its result is never
// Partial. pub receives one incumbent, the winner, with its original
// provenance.
func replay(top *topology.Topology, col *collective.Collective, opts Options, ws *workspace, parent *obs.Span, pub *publisher, fin finisher) *Result {
	t0 := time.Now()
	span := parent.Child("replay")
	span.SetStr("source", opts.Recipe.Source)
	res := rebuild(top, col, opts, ws, pub, fin)
	if res == nil {
		span.SetStr("outcome", "stale")
		span.End()
		return nil
	}
	span.SetInt("cells", int64(res.Stats.CrossCacheHits))
	span.End()
	// Booked to the pass the winner came from, so the phases still add
	// up to the run.
	if opts.Recipe.Source == "fine" {
		res.Phases.Solve2 = time.Since(t0)
	} else {
		res.Phases.Solve1 = time.Since(t0)
	}
	return res
}

// rebuild is the replay proper: assemble the recipe's combination from
// its sub-schedules (or rebuild the ring), finish it, re-key it by the
// recipe's ranks, simulate once, compare with the self-check, validate.
// Any deviation returns nil. It works in ws as the full pass does: the
// forward schedule is new memory only when it is the result.
func rebuild(top *topology.Topology, col *collective.Collective, opts Options, ws *workspace, pub *publisher, fin finisher) *Result {
	rc := opts.Recipe
	var sched *schedule.Schedule
	var err error
	switch {
	case rc.Source == "ring" && col.Kind == collective.KindAllGather:
		if sched, err = nccl.AllGatherInto(ws.ringBuffer(), top, col); err != nil {
			return nil
		}
	case rc.Combination != nil && (rc.Source == "coarse" || rc.Source == "fine"):
		a, err := newAssembly(&ws.slabs[0], top, col, rc.Combination)
		if err != nil || len(rc.Subs) != len(a.cells) {
			return nil
		}
		if fin.shape == nil {
			sched, err = ws.buildNew(a, rc.Subs)
		} else {
			sched, err = a.build(&ws.bufs[0], rc.Subs)
		}
		if err != nil {
			return nil
		}
	default:
		return nil
	}
	if len(sched.Transfers) != rc.Transfers {
		return nil
	}

	// Everything out is made of was built here, so the ranks are applied
	// in place.
	out := sched
	if fin.shape != nil {
		out = fin.shape(nil, sched)
	}
	if rc.Ranks != nil {
		if len(rc.Ranks) != len(out.Transfers) {
			return nil
		}
		applyRanks(out, rc.Ranks)
	}
	t, err := sim.Time(top, out, opts.Sim)
	if err != nil || math.Float64bits(t) != rc.TimeBits || fin.check(sched, out) != nil {
		return nil
	}
	// A forward collective's finished schedule is sched itself. Any other
	// is validated in what sched was finished into, so sched is validated
	// here as at every exit of the full pass.
	if out != sched && validateForward(sched, col) != nil {
		return nil
	}
	if out == sched && rc.Source == "ring" {
		ws.detachRing()
	}
	pub.publishFinal(out, t, rc.Source, rc.Engine, rc.Combination)

	res := &Result{Schedule: out, Time: t, Combination: rc.Combination, Recipe: rc}
	res.Stats.Replayed = true
	res.Stats.Candidates = 1
	res.Stats.CrossCacheHits = len(rc.Subs)
	return res
}
