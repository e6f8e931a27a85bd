package core

import (
	"context"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/isomorph"
	"syccl/internal/obs"
	"syccl/internal/sketch"
	"syccl/internal/topology"
)

// TestCandidateBoundSound: the flow bound on the winning combination
// never exceeds the winner's own simulated time — the property that makes
// pruning against the incumbent's achieved time conservative.
func TestCandidateBoundSound(t *testing.T) {
	cases := []struct {
		top *collective.Collective
		t   *topology.Topology
	}{
		{collective.AllGather(16, 1<<20), topology.A100Clos(2)},
		{collective.Broadcast(16, 0, 1<<22), topology.A100Clos(2)},
		{collective.AllGather(topology.H800Small(2).NumGPUs(), 4<<10), topology.H800Small(2)},
		{collective.AlltoAll(topology.H800Small(2).NumGPUs(), 1<<16), topology.H800Small(2)},
	}
	for _, c := range cases {
		res := synth(t, c.t, c.top, Options{Seed: 11})
		if res.Combination == nil {
			continue // injected fixed schedule won; no combination to bound
		}
		tab := isomorph.NewTable()
		cand := assembleAll(c.t, c.top, []*sketch.Combination{res.Combination}, tab, Options{}, nil)
		lb := candidateTimeBound(c.t, cand[0], demandTimeBounds(context.Background(), tab, cand, Options{}, nil))
		if lb > res.Time*(1+1e-9) {
			t.Errorf("%v on %s: bound %g exceeds achieved simulated time %g",
				c.top.Kind, c.t.Name, lb, res.Time)
		}
	}
}

// TestPruningPreservesSchedule: bound pruning only removes candidates
// that cannot win the fine pass, and which candidates it removes is fixed
// at a deterministic pipeline boundary, so the schedule is byte-identical
// across Workers counts.
func TestPruningPreservesSchedule(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.Broadcast(top.NumGPUs(), 0, 1<<20)
	var refFP string
	for _, workers := range []int{1, 2, 8} {
		res := synth(t, top, col, Options{Seed: 7, Workers: workers})
		fp := scheduleFingerprint(res)
		if refFP == "" {
			refFP = fp
			continue
		}
		if fp != refFP {
			t.Errorf("workers=%d: schedule differs under bound pruning", workers)
		}
	}
}

// TestOverGateDeterministicAcrossWorkers: on a100x16:allgather:1M the
// fine pass solves over-gate sub-demands greedily, and the schedule
// keeps the cross-worker determinism contract.
func TestOverGateDeterministicAcrossWorkers(t *testing.T) {
	top, col := digestCase(t, "a100x16:allgather:1M")
	var ref coldDigest
	for _, workers := range []int{1, 2, 8} {
		rec := obs.NewRecorder()
		res := synth(t, top, col, Options{Seed: 7, Workers: workers, Obs: rec})
		if n := rec.CounterValue("solve.too_large"); n == 0 {
			t.Fatalf("workers=%d: the fine pass never met an over-gate sub-demand", workers)
		}
		got := digestOf(res)
		if workers == 1 {
			ref = got
			continue
		}
		if got != ref {
			t.Errorf("workers=%d: %+v, workers=1 gave %+v", workers, got, ref)
		}
	}
}

// TestSolverExactSurfacesTooLarge: the merged AllGather cells of a
// 16-GPU Clos are over the exact engine's size gate; the fine pass solves
// them greedily, so no candidate is lost to a solver error.
func TestSolverExactSurfacesTooLarge(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	rec := obs.NewRecorder()
	res := synth(t, top, col, Options{Seed: 1, Obs: rec})
	if err := res.Schedule.Validate(col); err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.SolveErrors) != 0 {
		t.Errorf("solver failures surfaced: %q", res.Stats.SolveErrors)
	}
	if rec.CounterValue("solve.too_large") == 0 {
		t.Error("no sub-demand was over the size gate")
	}
}

// TestBoundStatsPopulated: candidate bounds are evaluated whenever the
// pruning pass runs (more than one surviving candidate).
func TestBoundStatsPopulated(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.Broadcast(top.NumGPUs(), 0, 1<<20)
	res := synth(t, top, col, Options{Seed: 2})
	if res.Stats.BoundsComputed == 0 {
		t.Errorf("no bounds computed: %+v", res.Stats)
	}
}
