package milp

import (
	"context"
	"math"
	"testing"

	"syccl/internal/lp"
)

// cancelKnapsack is the TestKnapsack instance (optimum 21 at x0+x2+x3).
func cancelKnapsack() *Problem {
	values := []float64{10, 13, 7, 4}
	weights := []float64{3, 4, 2, 1}
	p := NewProblem(4)
	terms := []lp.Term{}
	for i := 0; i < 4; i++ {
		p.SetBinary(i)
		p.LP.SetObjective(i, -values[i])
		terms = append(terms, lp.Term{Var: i, Coeff: weights[i]})
	}
	p.LP.AddConstraint(terms, lp.LE, 6)
	return p
}

// TestSolveCtxCancelledNoIncumbent: cancellation before any node resolves
// behaves like an expired deadline — StatusUnknown, not an error.
func TestSolveCtxCancelledNoIncumbent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := SolveCtx(ctx, cancelKnapsack(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusUnknown {
		t.Fatalf("status %v, want StatusUnknown", s.Status)
	}
}

// pollCtx reports Canceled once Err has been polled a fixed number of
// times, landing the cancellation at a reproducible point of the search.
type pollCtx struct {
	context.Context
	left int
}

func (c *pollCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func (c *pollCtx) Done() <-chan struct{} { return make(chan struct{}) }

// TestSolveCtxCancelledKeepsIncumbent: a search cancelled after it found
// an incumbent but before proving it optimal must return that incumbent
// as StatusFeasible (anytime result) rather than discarding it. The
// cancellation point walks forward one poll at a time until it lands
// after the first incumbent.
func TestSolveCtxCancelledKeepsIncumbent(t *testing.T) {
	p, opt := hardKnapsack(18, 54321)
	for polls := 1; ; polls++ {
		s, err := SolveCtx(&pollCtx{Context: context.Background(), left: polls}, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Status == StatusUnknown {
			continue // cancelled before the first incumbent
		}
		if s.Status != StatusFeasible {
			t.Fatalf("%d polls: status %v before any cancelled search kept an incumbent", polls, s.Status)
		}
		if !p.LP.Feasible(s.X, 1e-6) || !integral(p, s.X) {
			t.Fatalf("%d polls: kept incumbent %v is not an integral feasible point", polls, s.X)
		}
		if s.Objective < opt-1e-6 || s.Bound > s.Objective+1e-6 {
			t.Fatalf("%d polls: objective %g bound %g around optimum %g", polls, s.Objective, s.Bound, opt)
		}
		return
	}
}

func TestSolveCtxBackgroundMatchesSolve(t *testing.T) {
	want, err := Solve(cancelKnapsack(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveCtx(context.Background(), cancelKnapsack(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || !approx(got.Objective, want.Objective, 1e-9) {
		t.Fatalf("SolveCtx = %v obj %g, Solve = %v obj %g",
			got.Status, got.Objective, want.Status, want.Objective)
	}
}

// integral reports whether every integer variable of x is integral.
func integral(p *Problem, x []float64) bool {
	for i, isInt := range p.Integer {
		if isInt && math.Abs(x[i]-math.Round(x[i])) > intTol {
			return false
		}
	}
	return true
}
