package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// Classic textbook LP:
//
//	max 3x + 5y  s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0
//
// optimum (2,6) with value 36.
func TestTextbookMax(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, -3) // maximize via negation
	p.SetObjective(1, -5)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 2}}, LE, 12)
	p.AddConstraint([]Term{{0, 3}, {1, 2}}, LE, 18)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusOptimal {
		t.Fatalf("status %v", s.Status)
	}
	if !approx(s.Objective, -36, 1e-6) {
		t.Errorf("objective %g, want -36", s.Objective)
	}
	if !approx(s.X[0], 2, 1e-6) || !approx(s.X[1], 6, 1e-6) {
		t.Errorf("x = %v, want (2,6)", s.X)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + 2y s.t. x + y = 10, x - y = 2 → x=6, y=4, obj 14.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 2)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 10)
	p.AddConstraint([]Term{{0, 1}, {1, -1}}, EQ, 2)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusOptimal || !approx(s.Objective, 14, 1e-6) {
		t.Fatalf("got %v obj %g", s.Status, s.Objective)
	}
}

func TestGEConstraints(t *testing.T) {
	// min 2x + 3y s.t. x + y ≥ 10, x ≥ 3 → x=10-... optimum at y=0, x=10? obj:
	// x=10,y=0 → 20; x=3,y=7 → 27. So (10,0), obj 20.
	p := NewProblem(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, 3)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 10)
	p.AddConstraint([]Term{{0, 1}}, GE, 3)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusOptimal || !approx(s.Objective, 20, 1e-6) {
		t.Fatalf("got %v obj %g x=%v", s.Status, s.Objective, s.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.AddConstraint([]Term{{0, 1}}, GE, 10)
	p.AddConstraint([]Term{{0, 1}}, LE, 5)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, -1) // maximize x with no upper limit
	p.AddConstraint([]Term{{0, 1}}, GE, 0)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusUnbounded {
		t.Fatalf("status %v, want unbounded", s.Status)
	}
}

func TestVariableBounds(t *testing.T) {
	// min -x with x ≤ 7.5 via bounds.
	p := NewProblem(1)
	p.SetObjective(0, -1)
	p.SetBounds(0, 0, 7.5)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusOptimal || !approx(s.X[0], 7.5, 1e-6) {
		t.Fatalf("x = %v (%v)", s.X, s.Status)
	}
}

func TestShiftedLowerBounds(t *testing.T) {
	// min x + y with x ≥ 2, y in [3, 5], x + y ≥ 6 → (3,3) or (2,4): obj 6.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.SetBounds(0, 2, math.Inf(1))
	p.SetBounds(1, 3, 5)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 6)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusOptimal || !approx(s.Objective, 6, 1e-6) {
		t.Fatalf("obj %g (%v) x=%v", s.Objective, s.Status, s.X)
	}
	if s.X[0] < 2-1e-9 || s.X[1] < 3-1e-9 {
		t.Errorf("bounds violated: %v", s.X)
	}
}

func TestEmptyBoundsError(t *testing.T) {
	p := NewProblem(1)
	p.SetBounds(0, 5, 4)
	if _, err := p.Solve(); err == nil {
		t.Error("accepted empty bounds")
	}
}

func TestDegenerateCycling(t *testing.T) {
	// Beale's classic cycling example (degenerate without anti-cycling).
	// min -0.75x1 + 150x2 - 0.02x3 + 6x4
	// s.t. 0.25x1 - 60x2 - 0.04x3 + 9x4 ≤ 0
	//      0.5x1 - 90x2 - 0.02x3 + 3x4 ≤ 0
	//      x3 ≤ 1
	// Optimum: obj -0.05 at x = (0.04?,...) — known optimum value −1/20.
	p := NewProblem(4)
	p.SetObjective(0, -0.75)
	p.SetObjective(1, 150)
	p.SetObjective(2, -0.02)
	p.SetObjective(3, 6)
	p.AddConstraint([]Term{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddConstraint([]Term{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddConstraint([]Term{{2, 1}}, LE, 1)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusOptimal {
		t.Fatalf("status %v after %d iters", s.Status, s.Iters)
	}
	if !approx(s.Objective, -0.05, 1e-6) {
		t.Errorf("objective %g, want -0.05", s.Objective)
	}
}

func TestTransportationProblem(t *testing.T) {
	// 2 suppliers (cap 20, 30) → 3 consumers (demand 10, 25, 15), costs:
	//   s0: 2 4 5
	//   s1: 3 1 7
	// Optimal: s0→c0:10, s0→c2:10(?) — compute: supply 50 = demand 50.
	// LP optimum known to be 2·10+1·25+5·10+7·5 = ... verify by solver
	// against brute force on the transportation polytope instead: check
	// feasibility and that objective ≤ a few random feasible points.
	cost := []float64{2, 4, 5, 3, 1, 7}
	supply := []float64{20, 30}
	demand := []float64{10, 25, 15}
	p := NewProblem(6)
	for i, c := range cost {
		p.SetObjective(i, c)
	}
	for s := 0; s < 2; s++ {
		terms := []Term{}
		for c := 0; c < 3; c++ {
			terms = append(terms, Term{s*3 + c, 1})
		}
		p.AddConstraint(terms, LE, supply[s])
	}
	for c := 0; c < 3; c++ {
		terms := []Term{{c, 1}, {3 + c, 1}}
		p.AddConstraint(terms, EQ, demand[c])
	}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusOptimal {
		t.Fatalf("status %v", s.Status)
	}
	if !p.Feasible(s.X, 1e-6) {
		t.Fatalf("solution infeasible: %v", s.X)
	}
	// Brute-force-verified optimum: s0→c0 5, s0→c2 15, s1→c0 5, s1→c1 25:
	// 10 + 75 + 15 + 25 = 125.
	if !approx(s.Objective, 125, 1e-6) {
		t.Errorf("objective %g, want 125", s.Objective)
	}
}

// Property test: on random feasible LPs (constraints built around a known
// interior point), the solver's optimum is never worse than any random
// feasible point.
func TestRandomLPOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		m := 2 + rng.Intn(5)
		// Interior point z in [1,2]^n.
		z := make([]float64, n)
		for i := range z {
			z[i] = 1 + rng.Float64()
		}
		p := NewProblem(n)
		for i := 0; i < n; i++ {
			p.SetObjective(i, rng.NormFloat64())
			p.SetBounds(i, 0, 10)
		}
		for k := 0; k < m; k++ {
			terms := make([]Term, n)
			lhs := 0.0
			for i := 0; i < n; i++ {
				c := rng.NormFloat64()
				terms[i] = Term{i, c}
				lhs += c * z[i]
			}
			p.AddConstraint(terms, LE, lhs+rng.Float64()) // z strictly feasible
		}
		s, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		if !p.Feasible(s.X, 1e-6) {
			t.Fatalf("trial %d: optimum infeasible", trial)
		}
		if s.Objective > evaluate(p, z)+1e-6 {
			t.Errorf("trial %d: solver obj %g worse than feasible point %g", trial, s.Objective, evaluate(p, z))
		}
		// A few random feasible perturbations toward z must not beat it.
		for probe := 0; probe < 10; probe++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = z[i] * rng.Float64()
			}
			if p.Feasible(x, 0) && evaluate(p, x) < s.Objective-1e-6 {
				t.Errorf("trial %d: point %v beats solver: %g < %g", trial, x, evaluate(p, x), s.Objective)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 5)
	q := p.Clone()
	q.SetBounds(0, 2, 3)
	q.SetObjective(1, 9)
	if lo, _ := p.Bounds(0); lo != 0 {
		t.Error("Clone shares bounds")
	}
	if p.c[1] != 0 {
		t.Error("Clone shares objective")
	}
}

func TestFeasibleChecks(t *testing.T) {
	p := NewProblem(2)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 4)
	p.SetBounds(0, 0, 3)
	if !p.Feasible([]float64{1, 3}, 1e-9) {
		t.Error("rejected feasible point")
	}
	if p.Feasible([]float64{4, 0}, 1e-9) {
		t.Error("accepted bound violation")
	}
	if p.Feasible([]float64{1, 1}, 1e-9) {
		t.Error("accepted equality violation")
	}
	if p.Feasible([]float64{1}, 1e-9) {
		t.Error("accepted wrong dimension")
	}
}

func TestOpString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("Op strings wrong")
	}
}

// buildTableauReference is the builder buildTableau replaced, kept
// verbatim (minus the construction-time snapshot, which no longer
// exists): a dense row per constraint, normalized, then copied into the
// flat matrix. TestBuildTableauEquivalence holds the direct-fill builder
// to it bit for bit.
func buildTableauReference(p *Problem, resolvable bool) (*Tableau, error) {
	// Shifted rows: substitute x = lo + x'.
	type row struct {
		coeffs []float64
		op     Op
		rhs    float64
	}
	var rows []row
	for _, con := range p.constraints {
		r := row{coeffs: make([]float64, p.numVars), op: con.Op, rhs: con.RHS}
		for _, t := range con.Terms {
			r.coeffs[t.Var] += t.Coeff
			r.rhs -= t.Coeff * p.lo[t.Var]
		}
		rows = append(rows, r)
	}
	if !resolvable {
		for i := 0; i < p.numVars; i++ {
			if math.IsInf(p.hi[i], 1) {
				continue
			}
			r := row{coeffs: make([]float64, p.numVars), op: LE, rhs: p.hi[i] - p.lo[i]}
			r.coeffs[i] = 1
			rows = append(rows, r)
		}
	}
	// Normalize to rhs ≥ 0.
	for i := range rows {
		if rows[i].rhs < 0 {
			for j := range rows[i].coeffs {
				rows[i].coeffs[j] = -rows[i].coeffs[j]
			}
			rows[i].rhs = -rows[i].rhs
			switch rows[i].op {
			case LE:
				rows[i].op = GE
			case GE:
				rows[i].op = LE
			}
		}
	}

	m := len(rows)
	numSlack := 0
	numArt := 0
	for _, r := range rows {
		switch r.op {
		case LE:
			numSlack++
		case GE:
			numSlack++ // surplus
			numArt++
		case EQ:
			numArt++
		}
	}
	t := &Tableau{
		m: m, n: p.numVars,
		totalCols: p.numVars + numSlack + numArt,
		numArt:    numArt,
		artStart:  p.numVars + numSlack,
		basis:     make([]int, m),
		rhs:       make([]float64, m),
		maxIters:  20000 + 50*(m+p.numVars),
		numVars:   p.numVars,
		c:         append([]float64(nil), p.c...),
		lo0:       append([]float64(nil), p.lo...),
		hi0:       append([]float64(nil), p.hi...),
	}
	t.a = make([]float64, m*t.totalCols)
	slack := p.numVars
	art := t.artStart
	for i, r := range rows {
		ri := t.row(i)
		copy(ri, r.coeffs)
		t.rhs[i] = r.rhs
		switch r.op {
		case LE:
			ri[slack] = 1
			t.basis[i] = slack
			slack++
		case GE:
			ri[slack] = -1
			slack++
			ri[art] = 1
			t.basis[i] = art
			art++
		case EQ:
			ri[art] = 1
			t.basis[i] = art
			art++
		}
	}

	t.obj = make([]float64, t.totalCols)
	for i := 0; i < p.numVars; i++ {
		t.obj[i] = p.c[i]
		t.objShift += p.c[i] * p.lo[i]
	}

	t.objRow = make([]float64, t.totalCols+1)
	t.phase1 = make([]float64, t.totalCols)
	t.xbuf = make([]float64, t.totalCols)

	if resolvable {
		t.resolvable = true
		t.colLo = make([]float64, t.totalCols)
		t.colUp = make([]float64, t.totalCols)
		t.atUpper = make([]bool, t.totalCols)
		t.basicRow = make([]int, t.totalCols)
		for j := range t.colUp {
			t.colUp[j] = math.Inf(1)
		}
		for i := 0; i < p.numVars; i++ {
			ub := p.hi[i] - p.lo[i]
			if ub < 0 {
				ub = 0
			}
			t.colUp[i] = ub
		}
		for j := range t.basicRow {
			t.basicRow[j] = -1
		}
		for i, b := range t.basis {
			t.basicRow[b] = i
		}
	}
	return t, nil
}

// flowShapeProblem is solve.flowLP's relaxation for `pieces` broadcast
// pieces over n GPUs (lp cannot import solve): fixed and unit-lower
// bounds, EQ / GE / LE rows, a shared makespan variable.
func flowShapeProblem(n, pieces int) *Problem {
	yVar := func(k, i int) int { return k*2*n + i }
	zVar := func(k, i int) int { return k*2*n + n + i }
	tVar := pieces * 2 * n
	p := NewProblem(tVar + 1)
	p.SetObjective(tVar, 1)
	for k := 0; k < pieces; k++ {
		src := k % n
		var conserve, originate []Term
		for i := 0; i < n; i++ {
			p.SetBounds(yVar(k, i), 0, float64(n-1))
			if i == src {
				p.SetBounds(zVar(k, i), 0, 0)
				originate = append(originate, Term{Var: yVar(k, i), Coeff: 1})
			} else {
				p.SetBounds(zVar(k, i), 1, 1)
				p.AddConstraint([]Term{{Var: yVar(k, i), Coeff: 1}, {Var: zVar(k, i), Coeff: -float64(n - 1)}}, LE, 0)
			}
			conserve = append(conserve, Term{Var: zVar(k, i), Coeff: 1}, Term{Var: yVar(k, i), Coeff: -1})
		}
		p.AddConstraint(conserve, EQ, 0)
		p.AddConstraint(originate, GE, 1)
	}
	for i := 0; i < n; i++ {
		var egress, ingress []Term
		for k := 0; k < pieces; k++ {
			egress = append(egress, Term{Var: yVar(k, i), Coeff: 1.5})
			ingress = append(ingress, Term{Var: zVar(k, i), Coeff: 1.5})
		}
		p.AddConstraint(append(egress, Term{Var: tVar, Coeff: -1}), LE, 0)
		p.AddConstraint(append(ingress, Term{Var: tVar, Coeff: -1}), LE, 0)
	}
	return p
}

// scheduleShapeProblem is the shape of the epoch MILP's relaxation: 0/1
// boxes, some variables fixed by shifted bounds, assignment equalities,
// precedence and capacity rows, and a variable repeated inside one row.
func scheduleShapeProblem() *Problem {
	p := benchProblem(30, 24, 11)
	for i := 0; i < 30; i++ {
		switch i % 5 {
		case 0:
			p.SetBounds(i, 0, 1)
		case 1:
			p.SetBounds(i, 1, 1)
		case 2:
			p.SetBounds(i, 2, math.Inf(1))
		}
	}
	p.AddConstraint([]Term{{Var: 3, Coeff: 1}, {Var: 4, Coeff: -2}, {Var: 3, Coeff: 0.5}}, GE, -4)
	p.AddConstraint([]Term{{Var: 1, Coeff: 1}, {Var: 6, Coeff: 1}}, LE, 1) // rhs goes negative under the shift
	return p
}

// TestBuildTableauEquivalence: writing terms straight into the flat
// matrix, and refilling from the rows instead of restoring a snapshot,
// gives the layout the dense-row builder gave — matrix, rhs, basis and
// bounds bit for bit (signed zeros included) — and so the same pivots
// and the same solution, on a first solve and on a repeated one.
func TestBuildTableauEquivalence(t *testing.T) {
	sameFloats := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %g (bits %x), reference %g (%x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	sameLayout := func(what string, got, want *Tableau) {
		t.Helper()
		if got.m != want.m || got.totalCols != want.totalCols || got.artStart != want.artStart || got.numArt != want.numArt || got.maxIters != want.maxIters {
			t.Fatalf("%s: shape %d×%d art %d+%d, reference %d×%d art %d+%d", what,
				got.m, got.totalCols, got.artStart, got.numArt, want.m, want.totalCols, want.artStart, want.numArt)
		}
		sameFloats(what+" a", got.a, want.a)
		sameFloats(what+" rhs", got.rhs, want.rhs)
		sameFloats(what+" obj", got.obj, want.obj)
		sameFloats(what+" colLo", got.colLo, want.colLo)
		sameFloats(what+" colUp", got.colUp, want.colUp)
		for i := range want.basis {
			if got.basis[i] != want.basis[i] {
				t.Fatalf("%s: basis[%d] = %d, reference %d", what, i, got.basis[i], want.basis[i])
			}
		}
		for j := range want.basicRow {
			if got.basicRow[j] != want.basicRow[j] || got.atUpper[j] != want.atUpper[j] {
				t.Fatalf("%s: column %d state differs", what, j)
			}
		}
	}
	sameSolution := func(what string, got, want *Solution) {
		t.Helper()
		if got.Status != want.Status || got.Iters != want.Iters ||
			math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("%s: %v after %d pivots, objective %g; reference %v after %d, %g", what,
				got.Status, got.Iters, got.Objective, want.Status, want.Iters, want.Objective)
		}
		sameFloats(what+" X", got.X, want.X)
	}
	for name, p := range map[string]*Problem{
		"BenchmarkLPSolve": benchProblem(40, 36, 7),
		"flow":             flowShapeProblem(6, 5),
		"schedule-MILP":    scheduleShapeProblem(),
	} {
		for _, resolvable := range []bool{false, true} {
			what := fmt.Sprintf("%s resolvable=%v", name, resolvable)
			got, err := buildTableau(p, resolvable)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want, _ := buildTableauReference(p, resolvable)
			sameLayout(what, got, want)
			gs, _ := got.Solve()
			ws, _ := want.Solve()
			sameSolution(what, gs, ws)
			if !resolvable {
				continue
			}
			// A second cold solve starts from the refilled construction
			// state: same layout as a fresh reference, same answer.
			got.restore()
			fresh, _ := buildTableauReference(p, true)
			sameLayout(what+" refilled", got, fresh)
			again, _ := got.Solve()
			sameSolution(what+" second solve", again, ws)
		}
	}
}

// evaluate returns cᵀx for the problem's objective at the given point.
func evaluate(p *Problem, x []float64) float64 {
	var v float64
	for i, c := range p.c {
		v += c * x[i]
	}
	return v
}
