package lp

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// oracleTol is the feasibility tolerance of the vertex-enumeration oracle.
const oracleTol = 1e-7

// hyperplane is the set gᵀx = h.
type hyperplane struct {
	g []float64
	h float64
}

// bestVertex returns the least cᵀx over p's feasible vertices: the points
// where n hyperplanes with independent normals meet, taken from p's rows
// and finite bounds — plus extra, when given, which every point must lie
// on. found is false when no such point is feasible.
func bestVertex(p *Problem, extra *hyperplane) (best float64, found bool) {
	n := p.numVars
	unit := func(j int, h float64) hyperplane {
		g := make([]float64, n)
		g[j] = 1
		return hyperplane{g, h}
	}
	var planes []hyperplane
	for _, con := range p.constraints {
		g := make([]float64, n)
		for _, tm := range con.Terms {
			g[tm.Var] += tm.Coeff
		}
		planes = append(planes, hyperplane{g, con.RHS})
	}
	for j := 0; j < n; j++ {
		planes = append(planes, unit(j, p.lo[j]))
		if !math.IsInf(p.hi[j], 1) {
			planes = append(planes, unit(j, p.hi[j]))
		}
	}
	k := n
	var sys []hyperplane
	if extra != nil {
		k--
		sys = append(sys, *extra)
	}
	fixed := len(sys)
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	x := make([]float64, n)
	for mask := 0; mask < 1<<len(planes); mask++ {
		if bits.OnesCount(uint(mask)) != k {
			continue
		}
		sys = sys[:fixed]
		for i, hp := range planes {
			if mask&(1<<i) != 0 {
				sys = append(sys, hp)
			}
		}
		if !solveSquare(sys, a, x) || !p.Feasible(x, oracleTol) {
			continue
		}
		v := 0.0
		for j, c := range p.c {
			v += c * x[j]
		}
		if !found || v < best {
			best, found = v, true
		}
	}
	return best, found
}

// solveSquare solves the n×n system gᵢᵀx = hᵢ into x by Gaussian
// elimination with partial pivoting, using a (n rows of n+1) as scratch;
// it returns false when the system is singular.
func solveSquare(sys []hyperplane, a [][]float64, x []float64) bool {
	n := len(sys)
	for i, hp := range sys {
		copy(a[i], hp.g)
		a[i][n] = hp.h
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-9 {
			return false
		}
		a[col], a[piv] = a[piv], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for j := col; j <= n; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		v := a[i][n]
		for j := i + 1; j < n; j++ {
			v -= a[i][j] * x[j]
		}
		x[i] = v / a[i][i]
	}
	return true
}

// vertexOracle solves p by brute force, with no simplex involved. Every
// variable has a finite lower bound, so the feasible set contains no line
// and, when nonempty, has a vertex: no feasible vertex means infeasible.
// The program is unbounded exactly when its recession cone — the rows
// made homogeneous, d ≥ 0, d_j = 0 where hi_j is finite — holds a
// direction of negative cost; that cone is pointed, so one shows up among
// the vertices of its slice Σd = 1. Otherwise the best vertex is optimal.
func vertexOracle(p *Problem) (Status, float64) {
	best, ok := bestVertex(p, nil)
	if !ok {
		return StatusInfeasible, 0
	}
	n := p.numVars
	cone := NewProblem(n)
	copy(cone.c, p.c)
	ones := make([]float64, n)
	for j := 0; j < n; j++ {
		ones[j] = 1
		if !math.IsInf(p.hi[j], 1) {
			cone.SetBounds(j, 0, 0)
		}
	}
	for _, con := range p.constraints {
		cone.AddConstraint(con.Terms, con.Op, 0)
	}
	if ray, ok := bestVertex(cone, &hyperplane{ones, 1}); ok && ray < -oracleTol {
		return StatusUnbounded, 0
	}
	return StatusOptimal, best
}

// oracleProblem draws a small program from next (next(k) ∈ [0, k)): up to
// four variables with shifted lower bounds, some fixed, some without an
// upper bound; up to four LE/GE/EQ rows drawn around a point of the box,
// so most programs are feasible. Row 0's right-hand side goes negative
// once shifted by the lower bounds, so the tableau flips its sense.
func oracleProblem(next func(int) int) *Problem {
	n, m := 1+next(4), 1+next(4)
	p := NewProblem(n)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		lo := []float64{0, 0, 1, 2.5}[next(4)]
		hi := lo // fixed
		switch next(4) {
		case 0:
		case 1:
			hi = math.Inf(1)
		default:
			hi = lo + float64(1+next(6))/2
		}
		p.SetBounds(j, lo, hi)
		p.SetObjective(j, float64(next(7)-3))
		span := hi - lo
		if math.IsInf(span, 1) {
			span = 1
		}
		x0[j] = lo + span*float64(next(3))/2
	}
	for i := 0; i < m; i++ {
		var terms []Term
		var atX0, atLo float64
		for j := 0; j < n; j++ {
			if a := float64(next(7) - 3); a != 0 {
				terms = append(terms, Term{Var: j, Coeff: a})
				atX0 += a * x0[j]
				atLo += a * p.lo[j]
			}
		}
		op := Op(next(3))
		rhs := atX0
		switch op {
		case LE:
			rhs += float64(next(3))
		case GE:
			rhs -= float64(next(3))
		}
		if i == 0 {
			rhs = atLo - float64(1+next(3))
		}
		p.AddConstraint(terms, op, rhs)
	}
	return p
}

// tightenBounds shrinks one variable's box, as a branch-and-bound node
// does: it lowers the cap (capping an infinite one), raises the floor, or
// fixes the variable, by none, half or all of the box's span.
func tightenBounds(next func(int) int, lo, hi []float64) {
	v := next(len(lo))
	span := hi[v] - lo[v]
	if math.IsInf(span, 1) {
		span = float64(next(4))
	}
	f := float64(next(3)) / 2
	switch next(3) {
	case 0:
		hi[v] = lo[v] + span*(1-f)
	case 1:
		lo[v] += span * f
	default:
		lo[v] += span * f
		hi[v] = lo[v]
	}
}

// holdToOracle checks a solve of p against vertexOracle: same status and,
// at an optimum, the same objective (1e-6 relative) at a feasible point.
// It returns the oracle's status.
func holdToOracle(t *testing.T, what string, p *Problem, sol *Solution) Status {
	t.Helper()
	st, obj := vertexOracle(p)
	describe := func() string {
		return fmt.Sprintf("c=%v lo=%v hi=%v rows=%v", p.c, p.lo, p.hi, p.constraints)
	}
	if sol.Status != st {
		t.Fatalf("%s: status %v, oracle %v\n%s", what, sol.Status, st, describe())
	}
	if st != StatusOptimal {
		return st
	}
	if math.Abs(sol.Objective-obj) > 1e-6*math.Max(1, math.Abs(obj)) {
		t.Fatalf("%s: objective %g, oracle %g\n%s", what, sol.Objective, obj, describe())
	}
	if !p.Feasible(sol.X, 1e-6) {
		t.Fatalf("%s: x = %v is infeasible\n%s", what, sol.X, describe())
	}
	return st
}

// checkLPOracle draws a program and a chain of bound tightenings from
// next, and holds Problem.Solve on the program and on each tightened
// copy along the chain to vertexOracle. It returns the oracle's
// statuses, the base program's first.
func checkLPOracle(t *testing.T, next func(int) int) []Status {
	t.Helper()
	p := oracleProblem(next)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	seen := []Status{holdToOracle(t, "Solve", p, sol)}
	lo := append([]float64(nil), p.lo...)
	hi := append([]float64(nil), p.hi...)
	for step := 0; step < 4; step++ {
		tightenBounds(next, lo, hi)
		q := p.Clone()
		for j := range lo {
			q.SetBounds(j, lo[j], hi[j])
		}
		sol, err := q.Solve()
		if err != nil {
			t.Fatalf("tightening %d: %v", step, err)
		}
		seen = append(seen, holdToOracle(t, fmt.Sprintf("tightening %d", step), q, sol))
	}
	return seen
}

// TestLPMatchesVertexEnumeration holds the two-phase simplex to an oracle
// that shares none of its code: brute-force vertex enumeration over
// random small boxed programs and chains of bound tightenings of them.
func TestLPMatchesVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	count := map[Status]int{}
	for trial := 0; trial < 2000; trial++ {
		for _, st := range checkLPOracle(t, rng.Intn) {
			count[st]++
		}
	}
	t.Logf("oracle verdicts: %v", count)
	for _, st := range []Status{StatusOptimal, StatusInfeasible, StatusUnbounded} {
		if count[st] < 100 {
			t.Errorf("only %d %v solves checked: the generator no longer covers that verdict (%v)", count[st], st, count)
		}
	}
}

// FuzzLPOracle is TestLPMatchesVertexEnumeration with the fuzzer choosing
// every coefficient, bound and tightening; an exhausted input reads as 0.
func FuzzLPOracle(f *testing.F) {
	f.Add([]byte{}) // one fixed variable, an infeasible row
	// Optimal at every step of the chain.
	f.Add([]byte{8, 10, 4, 0, 10, 9, 3, 7, 11, 0, 11, 9, 4, 8, 3, 1, 10, 0, 1, 6, 10, 11, 6, 8, 5, 9, 1, 5, 0, 1, 11, 7, 7, 5, 1, 4, 1, 0, 9, 4})
	// Optimal until the last two tightenings empty the feasible set.
	f.Add([]byte{8, 2, 0, 10, 5, 8, 3, 0, 7, 4, 7, 5, 11, 7, 4, 8, 5, 7, 6, 3, 6, 9, 6, 2, 4, 11, 0, 6, 3, 1, 9, 5, 8, 10, 8, 10, 7, 1, 6, 4})
	// Unbounded until a tightening caps the ray: optimal from step 1 on.
	f.Add([]byte{8, 4, 5, 1, 8, 0, 11, 1, 4, 9, 3, 8, 9, 4, 0, 5, 3, 8, 0, 4, 0, 11, 5, 0, 10, 2, 7, 7, 11, 8, 0, 9, 1, 9, 1, 1, 4, 7, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLPOracle(t, func(k int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % k
		})
	})
}
