package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"syccl/internal/collective"
	"syccl/internal/schedule"
	"syccl/internal/sketch"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// collectIncumbents runs SynthesizeContext with a recording callback.
func collectIncumbents(t *testing.T, top *topology.Topology, col *collective.Collective, opts Options) (*Result, []Incumbent) {
	t.Helper()
	var incs []Incumbent
	opts.OnIncumbent = func(inc Incumbent) { incs = append(incs, inc) }
	res, err := Synthesize(top, col, opts)
	if err != nil {
		t.Fatalf("streaming synthesize: %v", err)
	}
	return res, incs
}

// checkIncumbentInvariants asserts the publication contract: seq counts
// from 1, times strictly decrease, every incumbent passes the
// chunk-replay oracle, and the last incumbent is the returned result.
func checkIncumbentInvariants(t *testing.T, col *collective.Collective, res *Result, incs []Incumbent) {
	t.Helper()
	if len(incs) == 0 {
		t.Fatal("no incumbents published")
	}
	for i, inc := range incs {
		if inc.Seq != i+1 {
			t.Fatalf("incumbent %d has seq %d", i, inc.Seq)
		}
		if i > 0 && inc.Time >= incs[i-1].Time {
			t.Fatalf("incumbent stream not strictly improving: #%d %g after %g", i+1, inc.Time, incs[i-1].Time)
		}
		if inc.Bound > 0 && inc.Time < inc.Bound*(1-1e-9) {
			t.Fatalf("incumbent #%d beats its own lower bound: %g < %g", i+1, inc.Time, inc.Bound)
		}
		if err := verify.CheckSchedule(col, inc.Schedule); err != nil {
			t.Fatalf("incumbent #%d (%s/%s) fails the oracle: %v", i+1, inc.Source, inc.Engine, err)
		}
	}
	last := incs[len(incs)-1]
	if last.Time != res.Time {
		t.Fatalf("final incumbent %g != result %g", last.Time, res.Time)
	}
	if !reflect.DeepEqual(last.Schedule, res.Schedule) {
		t.Fatal("final incumbent schedule differs from the returned result")
	}
}

// TestIncumbentStreamMetamorphic is the randomized differential gate for
// the publisher refactor: across random topologies and all nine
// collective kinds, the incumbent stream is strictly improving, every
// published schedule passes the chunk-replay oracle, and attaching the
// stream changes nothing — the plain Synthesize result is bit-for-bit
// the streamed run's final incumbent.
func TestIncumbentStreamMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(20250808))
	for iter := 0; iter < 9; iter++ {
		top := verify.RandomTopology(rng)
		kind := verify.AllKinds[iter%len(verify.AllKinds)]
		col := verify.RandomCollective(rng, kind, top.NumGPUs())
		opts := Options{Seed: int64(iter), Workers: 1 + iter%3}

		res, incs := collectIncumbents(t, top, col, opts)
		checkIncumbentInvariants(t, col, res, incs)

		plain, err := Synthesize(top, col, opts)
		if err != nil {
			t.Fatalf("iter %d (%v on %s): plain synthesize: %v", iter, kind, top.Name, err)
		}
		if plain.Time != res.Time {
			t.Fatalf("iter %d (%v on %s): streaming changed the result time: %g vs %g",
				iter, kind, top.Name, res.Time, plain.Time)
		}
		if !reflect.DeepEqual(plain.Schedule, res.Schedule) {
			t.Fatalf("iter %d (%v on %s): streaming changed the schedule", iter, kind, top.Name)
		}
	}
}

// TestAllReduceWinnerByConcatenatedTime pins the non-monotone-transform
// case: on the tree-hinted A100 Clos AllReduce, the candidate with the
// best AllGather-phase time finishes into a worse concatenated
// ReduceScatter+AllGather schedule than a rival. The pipeline must rank
// finalists by the concatenated time — the one the caller sees and the
// one the incumbent stream's improvement gate is stated over — so the
// final result can never be worse than a published incumbent.
func TestAllReduceWinnerByConcatenatedTime(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.AllReduce(top.NumGPUs(), 64<<20)
	hint, err := sketch.ParseHint("family=tree")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 1, Search: sketch.SearchOptions{Hint: hint}}

	res, incs := collectIncumbents(t, top, col, opts)
	checkIncumbentInvariants(t, col, res, incs)
	for i, inc := range incs {
		if res.Time > inc.Time {
			t.Fatalf("result %g worse than incumbent #%d at %g", res.Time, i+1, inc.Time)
		}
	}
}

// TestStopWithinStopsEarly: with a generous StopWithin threshold the
// pipeline settles for the coarse incumbent once it is within range of
// the flow bound — StoppedEarly is set, the result is not Partial, still
// passes the oracle, and is deterministic across runs. A full run of the
// same demand can only be at least as good.
func TestStopWithinStopsEarly(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	opts := Options{Workers: 1, StopWithin: 10}

	res, incs := collectIncumbents(t, top, col, opts)
	if !res.Stats.StoppedEarly {
		t.Fatal("StopWithin 1000% never fired")
	}
	if res.Partial {
		t.Fatal("early stop reported as Partial")
	}
	checkIncumbentInvariants(t, col, res, incs)

	again, err := Synthesize(top, col, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Time != res.Time || !reflect.DeepEqual(again.Schedule, res.Schedule) {
		t.Fatal("StopWithin run not deterministic")
	}

	full, err := Synthesize(top, col, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.StoppedEarly {
		t.Fatal("StoppedEarly set without StopWithin")
	}
	if full.Time > res.Time {
		t.Fatalf("full pipeline worse than early stop: %g > %g", full.Time, res.Time)
	}
}

// TestNoFinalistFinishesIsAnError: when the transform rejects every
// finalist — a mirror that never validates, a concatenation that never
// simulates — the pipeline has no caller-visible schedule, and says so
// with the first transform error. It used to hand back the forward-best
// schedule for the callers to re-finish without validating it.
func TestNoFinalistFinishesIsAnError(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	refuse := errors.New("transform refuses")
	failing := func(*schedule.Buffer, *schedule.Schedule, float64) (*schedule.Schedule, float64, error) {
		return nil, 0, refuse
	}
	same := func(_ *schedule.Buffer, s *schedule.Schedule) *schedule.Schedule { return s }
	res, err := synthesizeForward(context.Background(), top, col, Options{}.withDefaults(), nil, nil, finisher{finish: failing, shape: same})
	if !errors.Is(err, refuse) {
		t.Errorf("err = %v, want the transform's error", err)
	}
	if res != nil {
		t.Error("a schedule came back although no finalist finished")
	}
}

// TestPickWinnerRanking: pickWinner finishes every finalist, ranks by
// finished time and checks down the ranking, so its winner is the fastest
// finalist that finishes and passes — first in order on a tie — and the
// check runs once when that is the fastest. A forward collective's
// finalists are ranked on their recorded times, unfinished.
func TestPickWinnerRanking(t *testing.T) {
	// Finalist i's schedule has i+1 GPUs, so the finisher can tell them
	// apart; finishing scales the time by 10.
	finalists := func(times ...float64) []*candidate {
		out := make([]*candidate, len(times))
		for i, tm := range times {
			out[i] = &candidate{fixed: &schedule.Schedule{NumGPUs: i + 1}, time: tm}
		}
		return out
	}
	finish := func(_ *schedule.Buffer, s *schedule.Schedule, tm float64) (*schedule.Schedule, float64, error) {
		return s, 10 * tm, nil
	}
	same := func(_ *schedule.Buffer, s *schedule.Schedule) *schedule.Schedule { return s }
	refuse := func(idx ...int) func(_, out *schedule.Schedule) error {
		return func(_, out *schedule.Schedule) error {
			for _, i := range idx {
				if out.NumGPUs == i+1 {
					return fmt.Errorf("finalist %d refused", i)
				}
			}
			return nil
		}
	}

	t.Run("fastest fails its check, the next wins", func(t *testing.T) {
		pool := finalists(3, 1, 2, 2)
		best, fwd, out, tm, err := pickWinner(pool, finisher{finish: finish, shape: same, check: refuse(1)}, new(workspace).fit(2))
		if err != nil || best != pool[2] || fwd != pool[2].fixed || out != pool[2].fixed || tm != 20 {
			t.Fatalf("winner %v (time %g, err %v), want finalist 2 at 20", best, tm, err)
		}
	})

	t.Run("none passes: the first finalist's error", func(t *testing.T) {
		pool := finalists(3, 1, 2)
		finishFirstFails := func(dst *schedule.Buffer, s *schedule.Schedule, tm float64) (*schedule.Schedule, float64, error) {
			if s == pool[0].fixed {
				return nil, 0, errors.New("finalist 0 does not finish")
			}
			return finish(dst, s, tm)
		}
		for _, c := range []struct {
			fin  finisher
			want string
		}{
			{finisher{finish: finish, shape: same, check: refuse(0, 1, 2)}, "finalist 0 refused"},
			{finisher{finish: finishFirstFails, shape: same, check: refuse(1, 2)}, "finalist 0 does not finish"},
		} {
			best, _, _, _, err := pickWinner(pool, c.fin, new(workspace).fit(2))
			if best != nil || err == nil || err.Error() != c.want {
				t.Errorf("winner %v, err %v; want no winner and %q", best, err, c.want)
			}
		}
	})

	t.Run("one check when the fastest passes", func(t *testing.T) {
		pool := finalists(3, 1, 2, 1)
		checks := 0
		count := func(_, _ *schedule.Schedule) error { checks++; return nil }
		best, _, _, tm, err := pickWinner(pool, finisher{finish: finish, shape: same, check: count}, new(workspace).fit(1))
		if err != nil || best != pool[1] || tm != 10 {
			t.Fatalf("winner %v (time %g, err %v), want finalist 1 at 10", best, tm, err)
		}
		if checks != 1 {
			t.Errorf("%d checks, want 1", checks)
		}
	})

	t.Run("forward: the recorded times, unfinished", func(t *testing.T) {
		pool := finalists(3, 1, 2, 1)
		unfinished := func(dst *schedule.Buffer, s *schedule.Schedule, tm float64) (*schedule.Schedule, float64, error) {
			t.Error("a forward finalist was finished")
			return finish(dst, s, tm)
		}
		best, fwd, out, tm, err := pickWinner(pool, finisher{finish: unfinished, check: refuse(1)}, new(workspace).fit(2))
		if err != nil || best != pool[3] || fwd != out || out != pool[3].fixed || tm != 1 {
			t.Fatalf("winner %v (time %g, err %v), want finalist 3 at 1", best, tm, err)
		}
	})
}

// lateTimer is a context past its deadline whose timer has not fired:
// Done is open and Err nil, as while every P runs pipeline work.
type lateTimer struct{ context.Context }

func (lateTimer) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestDeadlineReadOffTheClock: the pipeline reads its deadline off the
// clock, so a deadline whose timer has not fired still stops it before
// any solve — the run ends in context.DeadlineExceeded, not in a
// candidate finished after its deadline.
func TestDeadlineReadOffTheClock(t *testing.T) {
	top, col := digestCase(t, "a100x16:alltoall:64M")
	res, err := SynthesizeContext(lateTimer{context.Background()}, top, col, Options{})
	if !errors.Is(err, context.DeadlineExceeded) || res != nil {
		t.Fatalf("got result %v, error %v; want context.DeadlineExceeded", res != nil, err)
	}
}
