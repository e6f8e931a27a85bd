package core

import (
	"context"
	"strings"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/isomorph"
	"syccl/internal/sketch"
	"syccl/internal/topology"
)

// TestSolverModesProduceValidSchedules: every -solver mode yields a
// complete, validated schedule on every collective shape — exact may drop
// oversized candidates and flow rounds a relaxation, but the pipeline's
// output contract is mode-independent.
func TestSolverModesProduceValidSchedules(t *testing.T) {
	top := topology.H800Small(2)
	n := top.NumGPUs()
	cols := []*collective.Collective{
		collective.AllGather(n, 1<<20),
		collective.Broadcast(n, 0, 1<<20),
		collective.AlltoAll(n, 1<<18),
	}
	for _, mode := range []SolverMode{SolverAuto, SolverExact, SolverFlow} {
		for _, col := range cols {
			res := synth(t, top, col, Options{Seed: 3, SolverMode: mode})
			if err := res.Schedule.Validate(col); err != nil {
				t.Errorf("%v/%v: %v", mode, col.Kind, err)
			}
		}
	}
}

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
// that cannot win the fine pass, so SolverAuto (pruning on) and
// SolverAuto with pruning effectively disabled must produce byte-identical
// schedules. SolverExact also disables pruning but additionally swaps the
// fine engine, so the comparison here pins the pruning step alone via the
// deterministic fingerprint across Workers counts.
func TestPruningPreservesSchedule(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.Broadcast(top.NumGPUs(), 0, 1<<20)
	var refFP string
	for _, workers := range []int{1, 2, 8} {
		res := synth(t, top, col, Options{Seed: 7, Workers: workers, SolverMode: SolverAuto})
		fp := scheduleFingerprint(res)
		if refFP == "" {
			refFP = fp
			continue
		}
		if fp != refFP {
			t.Errorf("workers=%d: schedule differs under SolverAuto pruning", workers)
		}
	}
}

// TestSolverFlowDeterministicAcrossWorkers: the flow backend (LP-guided
// rounding) keeps the cross-worker determinism contract.
func TestSolverFlowDeterministicAcrossWorkers(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	var refFP string
	for _, workers := range []int{1, 2, 8} {
		res := synth(t, top, col, Options{Seed: 7, Workers: workers, SolverMode: SolverFlow})
		fp := scheduleFingerprint(res)
		if refFP == "" {
			refFP = fp
			continue
		}
		if fp != refFP {
			t.Errorf("workers=%d: flow-mode schedule differs", workers)
		}
	}
}

// TestSolverExactSurfacesTooLarge: with the flow fallback disabled, the
// merged AllGather cells of a 16-GPU Clos blow the MaxBinaries gate; the
// run must still succeed from smaller candidates while reporting the
// rejected solves with their binary counts.
func TestSolverExactSurfacesTooLarge(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	res := synth(t, top, col, Options{Seed: 1, SolverMode: SolverExact})
	if err := res.Schedule.Validate(col); err != nil {
		t.Fatal(err)
	}
	if res.Stats.TooLarge == 0 {
		t.Fatalf("expected MaxBinaries rejections, stats = %+v", res.Stats)
	}
	if len(res.Stats.SolveErrors) == 0 {
		t.Fatal("TooLarge counted but no SolveErrors surfaced")
	}
	for _, e := range res.Stats.SolveErrors {
		if !strings.Contains(e, "binaries") || !strings.Contains(e, "MaxBinaries") {
			t.Errorf("error lacks binary-count detail: %q", e)
		}
	}
	// The same run under auto reroutes those instances to the flow
	// backend: nothing too large, nothing lost.
	auto := synth(t, top, col, Options{Seed: 1, SolverMode: SolverAuto})
	if auto.Stats.TooLarge != 0 || len(auto.Stats.SolveErrors) != 0 {
		t.Errorf("auto mode surfaced solver failures: %+v", auto.Stats)
	}
	if auto.Time > res.Time*(1+1e-9) {
		t.Errorf("auto (flow fallback) worse than exact-with-drops: %g > %g", auto.Time, res.Time)
	}
}

// TestParseSolverMode covers the CLI parsing contract.
func TestParseSolverMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want SolverMode
	}{{"", SolverAuto}, {"auto", SolverAuto}, {"exact", SolverExact}, {"flow", SolverFlow}} {
		got, err := ParseSolverMode(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSolverMode(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseSolverMode("simulated-annealing"); err == nil {
		t.Error("bad mode accepted")
	}
	if SolverFlow.String() != "flow" || SolverAuto.String() != "auto" || SolverExact.String() != "exact" {
		t.Error("SolverMode.String mismatch")
	}
}

// TestBoundStatsPopulated: candidate bounds are evaluated whenever the
// pruning pass runs (auto mode with more than one surviving candidate).
func TestBoundStatsPopulated(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.Broadcast(top.NumGPUs(), 0, 1<<20)
	res := synth(t, top, col, Options{Seed: 2})
	if res.Stats.BoundsComputed == 0 {
		t.Errorf("no bounds computed: %+v", res.Stats)
	}
	exact := synth(t, top, col, Options{Seed: 2, SolverMode: SolverExact})
	if exact.Stats.BoundsComputed != 0 || exact.Stats.PrunedLB != 0 {
		t.Errorf("exact mode ran the bound pass: %+v", exact.Stats)
	}
}
