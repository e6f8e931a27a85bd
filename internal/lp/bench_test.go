package lp

import "testing"

// benchProblem builds a dense-ish LP with a mix of operators so the
// standard form carries slack, surplus, and artificial columns — the
// shape phase-2 column-limited pivoting targets.
func benchProblem(vars, rows int, seed uint64) *Problem {
	s := seed
	next := func(n int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(n))
	}
	p := NewProblem(vars)
	for i := 0; i < vars; i++ {
		p.SetObjective(i, float64(1+next(9)))
		p.SetBounds(i, 0, float64(5+next(20)))
	}
	for r := 0; r < rows; r++ {
		terms := make([]Term, 0, vars/3)
		sum := 0.0
		for i := 0; i < vars; i++ {
			if next(3) == 0 {
				c := float64(1 + next(5))
				terms = append(terms, Term{Var: i, Coeff: c})
				sum += c
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: r % vars, Coeff: 1})
			sum = 1
		}
		switch r % 3 {
		case 0:
			p.AddConstraint(terms, LE, sum*3)
		case 1:
			p.AddConstraint(terms, GE, sum/2)
		default:
			p.AddConstraint(terms, EQ, sum)
		}
	}
	return p
}

// BenchmarkLPSolve measures a cold two-phase solve on a mixed-operator
// LP (artificials present, so phase 1 runs).
func BenchmarkLPSolve(b *testing.B) {
	p := benchProblem(40, 36, 7)
	var pivots int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve()
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
		pivots = sol.Iters
	}
	b.ReportMetric(float64(pivots), "lp.pivots")
}
