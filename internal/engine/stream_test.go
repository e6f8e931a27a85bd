package engine

import (
	"context"
	"reflect"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/sketch"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// TestPlanStreamInvariants is the stream contract at the engine layer:
// every streamed incumbent is valid and strictly improving, and the
// returned result — the final incumbent — is byte-identical to a Plan of
// the same request without a callback on a fresh engine.
func TestPlanStreamInvariants(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)

	var events []core.Incumbent
	opts := quickOpts()
	opts.OnIncumbent = func(inc core.Incumbent) { events = append(events, inc) }
	streamed, err := New(Options{}).Plan(context.Background(), top, col, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("stream emitted no incumbents")
	}
	prev := 0.0
	for i, inc := range events {
		if inc.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, inc.Seq)
		}
		if i > 0 && inc.Time >= prev {
			t.Errorf("stream not strictly improving: event %d time %v after %v", i, inc.Time, prev)
		}
		prev = inc.Time
		if err := verify.CheckSchedule(col, inc.Schedule); err != nil {
			t.Errorf("streamed incumbent %d invalid: %v", i, err)
		}
		if inc.Source == "" {
			t.Errorf("event %d has no source", i)
		}
	}
	if streamed.Time > prev {
		t.Errorf("final result time %v worse than last streamed incumbent %v", streamed.Time, prev)
	}

	plain, err := New(Options{}).Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Time != plain.Time || !reflect.DeepEqual(streamed.Schedule, plain.Schedule) {
		t.Fatal("streamed final result differs from plain Plan")
	}
}

// A hint filters the sketch search, not the sub-demand solver, so a
// hinted plan shares sub-schedules with unhinted ones: on an engine
// warmed by an unhinted plan it records solve hits, and still returns
// exactly what a cold hinted synthesis does. The sketch key carries the
// hint, so the unhinted sketch set is never served.
func TestHintedPlanSharesMemorySolves(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	hinted := quickOpts()
	hinted.Search.Hint = &sketch.Hint{Family: sketch.FamilyTree}
	if PlanKey(top, col, hinted) == PlanKey(top, col, quickOpts()) {
		t.Fatal("hinted and unhinted requests share a PlanKey")
	}
	cold, err := core.Synthesize(top, col, hinted)
	if err != nil {
		t.Fatal(err)
	}

	eng := New(Options{})
	mustPlan(t, eng, top, col, quickOpts())
	before := eng.Stats()
	sameResult(t, "hinted plan after an unhinted one", mustPlan(t, eng, top, col, hinted), cold)
	if st := eng.Stats(); st.SolveHits == before.SolveHits || st.SketchHits != before.SketchHits {
		t.Fatalf("hinted plan after an unhinted one: before %+v, after %+v", before, st)
	}

	// The hinted plan's own entries are cached too: an identical hinted
	// re-plan replays warm.
	again := mustPlan(t, eng, top, col, hinted)
	if again.Stats.SolverCalls != 0 {
		t.Fatalf("warm hinted plan executed %d solver calls", again.Stats.SolverCalls)
	}
	sameResult(t, "warm hinted plan", again, cold)
}

// The sharing holds across the persist tier too: after a reboot, a
// hinted plan replays sub-schedules an unhinted plan wrote to disk.
func TestHintedPlanSharesPersistedSolves(t *testing.T) {
	dir := t.TempDir()
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	hinted := quickOpts()
	hinted.Search.Hint = &sketch.Hint{Family: sketch.FamilyTree}
	cold, err := core.Synthesize(top, col, hinted)
	if err != nil {
		t.Fatal(err)
	}

	mustPlan(t, New(Options{Persist: openPersist(t, dir)}), top, col, quickOpts())
	eng := New(Options{Persist: openPersist(t, dir)})
	sameResult(t, "hinted plan after a reboot", mustPlan(t, eng, top, col, hinted), cold)
	if st := eng.Stats(); st.PersistHits == 0 {
		t.Fatalf("hinted plan replayed nothing from the unhinted corpus: %+v", st)
	}
}
