package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestReSolveMatchesFresh: warm-started re-solves under randomized bound
// changes agree — status, objective, and feasibility — with a cold solve
// of the same tightened problem: the dual-simplex repair of one tableau
// held to the two-phase primal simplex on a fresh one. Both run on the
// same engine; TestLPMatchesVertexEnumeration is the independent oracle.
func TestReSolveMatchesFresh(t *testing.T) {
	for _, seed := range []uint64{3, 11, 29} {
		p := benchProblem(24, 20, seed)
		n := p.NumVars()
		tab, err := NewTableau(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.Solve(); err != nil {
			t.Fatal(err)
		}
		lo := make([]float64, n)
		hi := make([]float64, n)
		for j := 0; j < n; j++ {
			lo[j], hi[j] = p.Bounds(j)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for step := 0; step < 40; step++ {
			v := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				hi[v] = lo[v] + (hi[v]-lo[v])*rng.Float64()
			case 1:
				lo[v] = lo[v] + (hi[v]-lo[v])*rng.Float64()
			default:
				lo[v], hi[v] = p.Bounds(v) // relax back to the base box
			}
			warm, err := tab.ReSolve(lo, hi)
			if err != nil {
				t.Fatalf("seed %d step %d: ReSolve: %v", seed, step, err)
			}
			fresh := p.Clone()
			for j := 0; j < n; j++ {
				fresh.SetBounds(j, lo[j], hi[j])
			}
			cold, err := fresh.Solve()
			if err != nil {
				t.Fatalf("seed %d step %d: cold solve: %v", seed, step, err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("seed %d step %d: warm status %v, cold %v", seed, step, warm.Status, cold.Status)
			}
			if warm.Status != StatusOptimal {
				continue
			}
			if !approx(warm.Objective, cold.Objective, 1e-6) {
				t.Fatalf("seed %d step %d: warm objective %g, cold %g", seed, step, warm.Objective, cold.Objective)
			}
			if !fresh.Feasible(warm.X, 1e-6) {
				t.Fatalf("seed %d step %d: warm solution infeasible in fresh problem", seed, step)
			}
		}
	}
}

// TestReSolveDegenerateCycling re-solves Beale's cycling example through
// the warm-start path: every bound patch lands on a degenerate vertex, so
// this guards the anti-cycling rule in the dual/primal repair loop.
func TestReSolveDegenerateCycling(t *testing.T) {
	p := NewProblem(4)
	p.SetObjective(0, -0.75)
	p.SetObjective(1, 150)
	p.SetObjective(2, -0.02)
	p.SetObjective(3, 6)
	p.AddConstraint([]Term{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddConstraint([]Term{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddConstraint([]Term{{2, 1}}, LE, 1)

	tab, err := NewTableau(p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := tab.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if base.Status != StatusOptimal || !approx(base.Objective, -0.05, 1e-6) {
		t.Fatalf("base solve: status %v objective %g, want optimal -0.05", base.Status, base.Objective)
	}

	n := p.NumVars()
	lo := make([]float64, n)
	hi := make([]float64, n)
	reset := func() {
		for j := 0; j < n; j++ {
			lo[j], hi[j] = p.Bounds(j)
		}
	}
	steps := []func(){
		func() { hi[2] = 0.5 },                     // cut the binding x3 bound in half
		func() { hi[2] = 0 },                       // pin x3 at zero (fully degenerate)
		func() { reset(); lo[2] = 1 },              // force x3 to its constraint limit
		func() { reset(); hi[0], hi[3] = 0.02, 0 }, // squeeze two variables at once
		func() { reset() },                         // relax back to the base box
	}
	reset()
	for i, mutate := range steps {
		mutate()
		warm, err := tab.ReSolve(lo, hi)
		if err != nil {
			t.Fatalf("step %d: ReSolve: %v", i, err)
		}
		fresh := p.Clone()
		for j := 0; j < n; j++ {
			fresh.SetBounds(j, lo[j], hi[j])
		}
		cold, err := fresh.Solve()
		if err != nil {
			t.Fatalf("step %d: cold solve: %v", i, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("step %d: warm status %v, cold %v", i, warm.Status, cold.Status)
		}
		if warm.Status == StatusOptimal && !approx(warm.Objective, cold.Objective, 1e-6) {
			t.Fatalf("step %d: warm objective %g, cold %g", i, warm.Objective, cold.Objective)
		}
	}
}

// TestReSolveEmptyBox: crossing bounds make the node trivially infeasible
// without touching the simplex machinery.
func TestReSolveEmptyBox(t *testing.T) {
	p := benchProblem(10, 8, 5)
	n := p.NumVars()
	tab, err := NewTableau(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Solve(); err != nil {
		t.Fatal(err)
	}
	lo := make([]float64, n)
	hi := make([]float64, n)
	for j := 0; j < n; j++ {
		lo[j], hi[j] = p.Bounds(j)
	}
	lo[3], hi[3] = 4, 2
	sol, err := tab.ReSolve(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	// And the tableau stays reusable afterwards.
	for j := 0; j < n; j++ {
		lo[j], hi[j] = p.Bounds(j)
	}
	sol, err = tab.ReSolve(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v after recovery, want optimal", sol.Status)
	}
}

// TestReSolveInfiniteUpper exercises the +Inf→finite→+Inf upper-bound
// transitions of the patch path.
func TestReSolveInfiniteUpper(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, -1) // maximize x0
	p.SetObjective(1, -1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 10)
	tab, err := NewTableau(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Solve(); err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	cases := []struct {
		lo, hi [2]float64
		want   float64
	}{
		{[2]float64{0, 0}, [2]float64{3, inf}, -10}, // x0≤3, x1 free above
		{[2]float64{0, 0}, [2]float64{3, 4}, -7},
		{[2]float64{0, 0}, [2]float64{inf, inf}, -10},
		{[2]float64{2, 0}, [2]float64{2, inf}, -10}, // x0 fixed at 2
	}
	for i, c := range cases {
		sol, err := tab.ReSolve(c.lo[:], c.hi[:])
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if sol.Status != StatusOptimal || !approx(sol.Objective, c.want, 1e-6) {
			t.Fatalf("case %d: status %v objective %g, want optimal %g", i, sol.Status, sol.Objective, c.want)
		}
	}
}

// TestReSolveIterLimit: a capped call stops at the cap on the warm path
// and its cold retry alike, reports every pivot it spent, and hands the
// node back with ErrWarmStart; lifting the cap restores the full solve.
func TestReSolveIterLimit(t *testing.T) {
	p := benchProblem(24, 20, 3)
	n := p.NumVars()
	tab, err := NewTableau(p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := tab.Solve()
	if err != nil || base.Status != StatusOptimal || base.Iters < 4 {
		t.Fatalf("base solve: %v %+v", err, base)
	}
	lo := make([]float64, n)
	hi := make([]float64, n)
	for j := 0; j < n; j++ {
		lo[j], hi[j] = p.Bounds(j)
		if base.X[j] > lo[j]+1e-6 {
			hi[j] = lo[j] + (base.X[j]-lo[j])/2 // cut every active variable
		}
	}
	want, err := tab.ReSolve(lo, hi)
	if err != nil || want.Iters < 2 {
		t.Fatalf("uncapped ReSolve: %v %+v", err, want)
	}
	if _, err := tab.Solve(); err != nil { // back to the base basis
		t.Fatal(err)
	}
	tab.SetIterLimit(1)
	got, err := tab.ReSolve(lo, hi)
	if err != ErrWarmStart || got == nil || got.Status != StatusIterLimit || got.Iters != 1 {
		t.Fatalf("capped at 1: %v %+v, want ErrWarmStart after exactly 1 pivot", err, got)
	}
	tab.SetIterLimit(0)
	if _, err := tab.Solve(); err != nil {
		t.Fatal(err)
	}
	again, err := tab.ReSolve(lo, hi)
	if err != nil || again.Status != want.Status || again.Iters != want.Iters ||
		math.Float64bits(again.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("cap lifted: %v %+v, want %+v", err, again, want)
	}
}
