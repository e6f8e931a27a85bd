package lp

import (
	"context"
	"math"
	"testing"
)

// textbookProblem is the TestTextbookMax LP: max 3x+5y (via negation)
// with optimum (2,6).
func textbookProblem() *Problem {
	p := NewProblem(2)
	p.SetObjective(0, -3)
	p.SetObjective(1, -5)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 2}}, LE, 12)
	p.AddConstraint([]Term{{0, 3}, {1, 2}}, LE, 18)
	return p
}

func TestSolveCtxCancelledReturnsIterLimit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := textbookProblem().SolveCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusIterLimit {
		t.Fatalf("status %v, want StatusIterLimit", s.Status)
	}
}

func TestSolveCtxUncancelledMatchesSolve(t *testing.T) {
	want, err := textbookProblem().Solve()
	if err != nil {
		t.Fatal(err)
	}
	got, err := textbookProblem().SolveCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || !approx(got.Objective, want.Objective, 1e-9) {
		t.Fatalf("SolveCtx(Background) = %v obj %g, Solve = %v obj %g",
			got.Status, got.Objective, want.Status, want.Objective)
	}
}

// countingCtx is a context that is never done but reports itself
// cancelled, counting how often the pivot loop asks.
type countingCtx struct {
	context.Context
	polls int
}

func (c *countingCtx) Done() <-chan struct{} { return make(chan struct{}) }
func (c *countingCtx) Err() error            { c.polls++; return context.Canceled }

// TestCancelPolledInPivotLoop: a context that turns cancelled after the
// solve started is seen by the pivot loop, which abandons the solve with
// StatusIterLimit instead of running to optimality.
func TestCancelPolledInPivotLoop(t *testing.T) {
	ctx := &countingCtx{Context: context.Background()}
	s, err := textbookProblem().SolveCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusIterLimit {
		t.Fatalf("status %v, want StatusIterLimit", s.Status)
	}
	if ctx.polls == 0 {
		t.Fatal("context never polled")
	}
}

// TestSolveCtxPivotCap: a cap of k pivots stops the solve after exactly
// k pivots with StatusIterLimit, for every k below the pivots the solve
// needs; a cap of at least those pivots gives the uncapped answer bit for
// bit (at k equal to them the pricing pass after the last pivot sees the
// optimum).
func TestSolveCtxPivotCap(t *testing.T) {
	p := benchProblem(40, 36, 7)
	want, err := p.Solve()
	if err != nil || want.Status != StatusOptimal {
		t.Fatalf("uncapped: %v %+v", err, want)
	}
	for k := 1; k <= want.Iters+1; k++ {
		got, err := p.SolveCtx(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		if k < want.Iters {
			if got.Status != StatusIterLimit || got.Iters != k {
				t.Fatalf("cap %d: %v after %d pivots, want iteration-limit after %d", k, got.Status, got.Iters, k)
			}
			continue
		}
		if got.Status != want.Status || got.Iters != want.Iters ||
			math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("cap %d: %v after %d pivots, objective %g; uncapped %v after %d, %g",
				k, got.Status, got.Iters, got.Objective, want.Status, want.Iters, want.Objective)
		}
	}
}
