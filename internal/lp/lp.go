// Package lp implements a linear-programming solver: a two-phase primal
// simplex over a dense bounded-variable tableau, with Bland's rule for
// anti-cycling.
//
// It is the foundation of the MILP solver (package milp) that SyCCL and
// the TECCL baseline use to synthesize sub-schedules (§5.1, Appendix A),
// and it solves the flow relaxations behind the reported lower bounds.
// Problems are stated in general form:
//
//	minimize    cᵀx
//	subject to  aᵢᵀx (≤|=|≥) bᵢ
//	            lo ≤ x ≤ hi
//
// The solver targets the modest problem sizes produced by SyCCL's
// symmetry decomposition (hundreds of variables). Variable bounds live on
// the tableau's columns, not in extra rows: the tableau has one row per
// constraint and nonbasic variables rest at their lower or upper bound.
// Every solve is cold: a tableau is built from the Problem, solved once
// and dropped.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // ≤
	GE           // ≥
	EQ           // =
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "?"
	}
}

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var   int
	Coeff float64
}

// Constraint is aᵀx op rhs.
type Constraint struct {
	Terms []Term
	Op    Op
	RHS   float64
}

// Status classifies a solve outcome.
type Status int

// Solve statuses.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return "unknown"
	}
}

// Problem is a linear program under construction.
type Problem struct {
	numVars     int
	c           []float64
	lo, hi      []float64
	constraints []Constraint
}

// NewProblem creates a problem with n variables, default bounds [0, +inf)
// and zero objective.
func NewProblem(n int) *Problem {
	p := &Problem{numVars: n, c: make([]float64, n), lo: make([]float64, n), hi: make([]float64, n)}
	for i := range p.hi {
		p.hi[i] = math.Inf(1)
	}
	return p
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return p.numVars }

// SetObjective sets the coefficient of variable i in the minimized
// objective.
func (p *Problem) SetObjective(i int, coeff float64) { p.c[i] = coeff }

// SetBounds sets lo ≤ x_i ≤ hi.
func (p *Problem) SetBounds(i int, lo, hi float64) {
	p.lo[i] = lo
	p.hi[i] = hi
}

// Bounds returns the bounds of variable i.
func (p *Problem) Bounds(i int) (lo, hi float64) { return p.lo[i], p.hi[i] }

// AddConstraint appends aᵀx op rhs and returns its index. Terms with the
// same variable are summed.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) int {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.numVars {
			panic(fmt.Sprintf("lp: constraint references variable %d of %d", t.Var, p.numVars))
		}
	}
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.constraints = append(p.constraints, Constraint{Terms: cp, Op: op, RHS: rhs})
	return len(p.constraints) - 1
}

// Clone returns a deep copy (used by branch-and-bound to tighten bounds).
func (p *Problem) Clone() *Problem {
	q := &Problem{
		numVars: p.numVars,
		c:       append([]float64(nil), p.c...),
		lo:      append([]float64(nil), p.lo...),
		hi:      append([]float64(nil), p.hi...),
	}
	q.constraints = make([]Constraint, len(p.constraints))
	for i, con := range p.constraints {
		q.constraints[i] = Constraint{Terms: append([]Term(nil), con.Terms...), Op: con.Op, RHS: con.RHS}
	}
	return q
}

// Solution is a solve result.
type Solution struct {
	Status    Status
	X         []float64 // variable values (original space)
	Objective float64
	Iters     int
}

const (
	tol      = 1e-9
	pivotTol = 1e-9
)

// Solve runs two-phase primal simplex and returns the solution. The X and
// Objective fields are meaningful only when Status is StatusOptimal.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveCtx(context.Background(), 0)
}

// SolveCtx is Solve under a context and a pivot cap. The pivot loops poll
// the context every cancelCheckMask+1 pivots, and a cancelled solve
// returns with StatusIterLimit (never a partial basis presented as
// optimal). maxPivots > 0 caps the solve's pivots below the size-derived
// cap: a solve that reaches it stops with StatusIterLimit and Iters equal
// to the cap, even when its last pivot reached the optimum (no pricing
// pass is left to see it).
func (p *Problem) SolveCtx(ctx context.Context, maxPivots int) (*Solution, error) {
	t, err := newTableau(p)
	if err != nil {
		return nil, err
	}
	if maxPivots > 0 && maxPivots < t.maxIters {
		t.maxIters = maxPivots
	}
	if ctx != nil && ctx.Done() != nil {
		t.ctx = ctx
	}
	return t.solve(), nil
}

// tableau is the standard-form expansion of a Problem with variables
// shifted to x' = x - lo and slack/surplus/artificial columns appended,
// one row per constraint. The coefficient matrix is one flat backing
// array (row-major) for cache locality.
//
// Variable bounds are attributes of the columns: in shifted space every
// column's lower bound is 0, structural column i's upper bound is
// hi_i - lo_i (colUp) and slack/surplus/artificial columns are unbounded.
// Nonbasic columns rest at one of their bounds (atUpper), and rhs holds
// the *values* of the basic variables.
type tableau struct {
	m         int       // constraint rows
	a         []float64 // m × totalCols coefficient matrix, flat row-major
	rhs       []float64 // values of the basic variables
	obj       []float64 // phase-2 objective over all columns
	objShift  float64   // constant from the lo-shift
	basis     []int     // basic column per row
	totalCols int
	numVars   int
	numArt    int
	artStart  int
	iters     int
	maxIters  int       // pivot cap: size-derived, or the caller's tighter one
	lo        []float64 // the problem's lower bounds: the shift origin

	colUp    []float64
	atUpper  []bool    // nonbasic column rests at its upper bound
	basicRow []int     // row a column is basic in, -1 if nonbasic
	objRow   []float64 // reduced costs of the phase being solved

	// ctx, when set, is polled every cancelCheckMask+1 pivots by the
	// pivot loop; a cancelled context abandons the solve with
	// StatusIterLimit. Callers (branch-and-bound under a context) treat
	// that exactly like an iteration-limit node: drop it and report the
	// proved bound.
	ctx context.Context
}

// cancelCheckMask throttles cancellation polls: pivots are O(m·width)
// dense row operations, so checking every 64th keeps the overhead
// unmeasurable while bounding the post-cancel grace to 64 pivots.
const cancelCheckMask = 63

// cancelled reports whether the context has been cancelled, checking
// only every cancelCheckMask+1 iterations.
func (t *tableau) cancelled() bool {
	return t.ctx != nil && t.iters&cancelCheckMask == 0 && t.ctx.Err() != nil
}

// newTableau builds the tableau of a problem: one row per constraint,
// with the variable bounds on the columns, every nonbasic column at its
// lower bound (0), so the basic values are exactly the normalized rhs.
func newTableau(p *Problem) (*tableau, error) {
	for i := 0; i < p.numVars; i++ {
		if p.lo[i] > p.hi[i]+tol {
			return nil, fmt.Errorf("lp: variable %d has empty bounds [%g,%g]", i, p.lo[i], p.hi[i])
		}
		if math.IsInf(p.lo[i], -1) {
			return nil, errors.New("lp: free (lower-unbounded) variables are not supported")
		}
	}

	t := &tableau{numVars: p.numVars, lo: p.lo}
	t.m = len(p.constraints)
	numSlack := 0
	for i := range p.constraints {
		switch _, op, _, _ := t.rowSpec(&p.constraints[i]); op {
		case LE:
			numSlack++
		case GE:
			numSlack++ // surplus
			t.numArt++
		case EQ:
			t.numArt++
		}
	}
	t.artStart = p.numVars + numSlack
	t.totalCols = t.artStart + t.numArt
	t.maxIters = 20000 + 50*(t.m+p.numVars)
	t.basis = make([]int, t.m)
	t.rhs = make([]float64, t.m)
	t.a = make([]float64, t.m*t.totalCols)
	t.fill(p.constraints)

	t.obj = make([]float64, t.totalCols)
	for i := 0; i < p.numVars; i++ {
		t.obj[i] = p.c[i]
		t.objShift += p.c[i] * p.lo[i]
	}

	t.objRow = make([]float64, t.totalCols)
	t.colUp = make([]float64, t.totalCols)
	t.atUpper = make([]bool, t.totalCols)
	t.basicRow = make([]int, t.totalCols)
	for j := range t.colUp {
		t.colUp[j] = math.Inf(1)
		t.basicRow[j] = -1
	}
	for i := 0; i < p.numVars; i++ {
		ub := p.hi[i] - p.lo[i]
		if ub < 0 {
			ub = 0 // within tol by the bounds check above
		}
		t.colUp[i] = ub
	}
	for i, b := range t.basis {
		t.basicRow[b] = i
	}
	return t, nil
}

// rowSpec returns a constraint as a row of the standard form: its terms
// over the shifted variables x' = x - lo, and its sense and right-hand
// side normalized to rhs ≥ 0 — neg reports that the row's coefficients
// change sign for that.
func (t *tableau) rowSpec(con *Constraint) (terms []Term, op Op, rhs float64, neg bool) {
	terms, op, rhs = con.Terms, con.Op, con.RHS
	for _, tm := range terms {
		rhs -= tm.Coeff * t.lo[tm.Var]
	}
	if rhs < 0 {
		neg, rhs = true, -rhs
		switch op {
		case LE:
			op = GE
		case GE:
			op = LE
		}
	}
	return terms, op, rhs, neg
}

// fill writes the matrix, right-hand side and slack / artificial starting
// basis into a zeroed t.a, straight from the rows.
func (t *tableau) fill(cons []Constraint) {
	slack, art := t.numVars, t.artStart
	for i := range cons {
		terms, op, rhs, neg := t.rowSpec(&cons[i])
		ri := t.row(i)
		for _, tm := range terms {
			ri[tm.Var] += tm.Coeff // terms on one variable sum
		}
		if neg {
			for j := range ri[:t.numVars] {
				ri[j] = -ri[j]
			}
		}
		t.rhs[i] = rhs
		switch op {
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
}

func (t *tableau) row(i int) []float64 {
	return t.a[i*t.totalCols : (i+1)*t.totalCols]
}

// loadObjective fills t.objRow with the reduced costs cost[j] - Σ_i
// costB[i]·a[i][j] for j < width.
func (t *tableau) loadObjective(cost []float64, width int) {
	out := t.objRow
	copy(out[:width], cost[:width])
	for i := 0; i < t.m; i++ {
		cb := cost[t.basis[i]]
		if cb == 0 {
			continue
		}
		r := t.row(i)
		for j := 0; j < width; j++ {
			out[j] -= cb * r[j]
		}
	}
}

// colVal returns the resting value of nonbasic column j.
func (t *tableau) colVal(j int) float64 {
	if t.atUpper[j] {
		return t.colUp[j]
	}
	return 0
}

// elim performs the row elimination of a pivot on (row, col) over the
// coefficient matrix and objective row only — the pivot loop updates rhs
// (basic values) separately, before elimination, using the pre-pivot
// column. The caller updates basis/basicRow.
func (t *tableau) elim(row, col, width int) {
	objRow := t.objRow
	pr := t.row(row)
	inv := 1 / pr[col]
	for j := 0; j < width; j++ {
		pr[j] *= inv
	}
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		ri := t.row(i)
		f := ri[col]
		if f == 0 {
			continue
		}
		for j := 0; j < width; j++ {
			ri[j] -= f * pr[j]
		}
	}
	if f := objRow[col]; f != 0 {
		for j := 0; j < width; j++ {
			objRow[j] -= f * pr[j]
		}
	}
}

// iterate runs bounded-variable primal simplex: entering candidates are
// nonbasic columns < colLimit whose reduced cost improves from their
// resting bound; the ratio test may end in a bound flip (the entering
// column runs to its opposite bound without a basis change). Returns
// StatusOptimal, StatusUnbounded or StatusIterLimit.
func (t *tableau) iterate(colLimit, width int) Status {
	objRow := t.objRow
	noProgress := 0
	for ; ; t.iters++ {
		if t.cancelled() {
			return StatusIterLimit
		}
		col := -1
		var dir float64
		if noProgress < 40 {
			best := tol
			for j := 0; j < colLimit; j++ {
				if t.basicRow[j] >= 0 || t.colUp[j] <= tol {
					continue
				}
				d := objRow[j]
				if !t.atUpper[j] {
					if -d > best {
						best = -d
						col = j
						dir = 1
					}
				} else if d > best {
					best = d
					col = j
					dir = -1
				}
			}
		} else {
			for j := 0; j < colLimit; j++ {
				if t.basicRow[j] >= 0 || t.colUp[j] <= tol {
					continue
				}
				if !t.atUpper[j] && objRow[j] < -tol {
					col, dir = j, 1
					break
				}
				if t.atUpper[j] && objRow[j] > tol {
					col, dir = j, -1
					break
				}
			}
		}
		if col < 0 {
			return StatusOptimal
		}
		// The cap is checked after pricing, so a solve whose last allowed
		// pivot reached the optimum reports it.
		if t.iters >= t.maxIters {
			return StatusIterLimit
		}
		// Ratio test: how far can the entering column move before a basic
		// variable hits one of its bounds, or the entering column hits its
		// own opposite bound (a bound flip — cheaper than a pivot, so it
		// wins ties). Bland tie-break on basis index among rows.
		bestD := t.colUp[col]
		leaveRow := -1
		leaveUpper := false
		for i := 0; i < t.m; i++ {
			w := t.a[i*t.totalCols+col]
			g := dir * w
			bi := t.basis[i]
			if g > pivotTol {
				d := t.rhs[i] / g
				if d < bestD-tol || (d < bestD+tol && leaveRow >= 0 && bi < t.basis[leaveRow]) {
					bestD, leaveRow, leaveUpper = d, i, false
				}
			} else if g < -pivotTol {
				up := t.colUp[bi]
				if !math.IsInf(up, 1) {
					d := (up - t.rhs[i]) / -g
					if d < bestD-tol || (d < bestD+tol && leaveRow >= 0 && bi < t.basis[leaveRow]) {
						bestD, leaveRow, leaveUpper = d, i, true
					}
				}
			}
		}
		if math.IsInf(bestD, 1) {
			return StatusUnbounded
		}
		move := dir * bestD
		if leaveRow < 0 {
			// Bound flip: the entering column runs to its other bound.
			for i := 0; i < t.m; i++ {
				w := t.a[i*t.totalCols+col]
				if w != 0 {
					t.rhs[i] -= move * w
				}
			}
			t.atUpper[col] = !t.atUpper[col]
		} else {
			newVal := t.colVal(col) + move
			for i := 0; i < t.m; i++ {
				if i == leaveRow {
					continue
				}
				w := t.a[i*t.totalCols+col]
				if w != 0 {
					t.rhs[i] -= move * w
				}
			}
			leaving := t.basis[leaveRow]
			t.basicRow[leaving] = -1
			t.atUpper[leaving] = leaveUpper
			t.elim(leaveRow, col, width)
			t.basis[leaveRow] = col
			t.basicRow[col] = leaveRow
			t.rhs[leaveRow] = newVal
		}
		// The objective moved by |reduced cost|·bestD, so a positive step
		// is progress; degenerate steps trip Bland's rule.
		if bestD > tol {
			noProgress = 0
		} else {
			noProgress++
		}
	}
}

// twoPhase runs the bounded-variable solve: phase 1 over the artificial
// sum, artificial drive-out, then phase 2.
func (t *tableau) twoPhase() Status {
	if t.numArt > 0 {
		phase1 := make([]float64, t.totalCols)
		for j := t.artStart; j < t.totalCols; j++ {
			phase1[j] = 1
		}
		t.loadObjective(phase1, t.totalCols)
		st := t.iterate(t.totalCols, t.totalCols)
		if st != StatusOptimal {
			return st
		}
		// Artificials rest nonbasic at 0, so their sum is over basic ones.
		art := 0.0
		for i := 0; i < t.m; i++ {
			if t.basis[i] >= t.artStart {
				art += math.Abs(t.rhs[i])
			}
		}
		if art > 1e-6 {
			return StatusInfeasible
		}
		// Drive remaining artificials out of the basis where possible.
		// The artificial's value is ~0, so this is a representation swap
		// at an unchanged point: the entering column keeps its resting
		// value, which becomes the new basic value.
		for i := 0; i < t.m; i++ {
			if t.basis[i] < t.artStart {
				continue
			}
			ri := t.row(i)
			for j := 0; j < t.artStart; j++ {
				if t.basicRow[j] < 0 && math.Abs(ri[j]) > 1e-7 {
					leaving := t.basis[i]
					t.basicRow[leaving] = -1
					t.atUpper[leaving] = false
					newVal := t.colVal(j)
					t.elim(i, j, t.artStart)
					t.basis[i] = j
					t.basicRow[j] = i
					t.rhs[i] = newVal
					break
				}
			}
			// A redundant row keeps its (zero-valued) artificial.
		}
	}

	// Phase 2 never reads the artificial block again, so pivots and the
	// objective row stop updating it.
	t.loadObjective(t.obj, t.artStart)
	return t.iterate(t.artStart, t.artStart)
}

// solve runs the two-phase solve and reads out its result.
func (t *tableau) solve() *Solution {
	if st := t.twoPhase(); st != StatusOptimal {
		return &Solution{Status: st, Iters: t.iters}
	}
	return t.extract()
}

// extract reads the solution out of an optimal bounded-variable basis.
func (t *tableau) extract() *Solution {
	sol := &Solution{Iters: t.iters}
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.artStart && math.Abs(t.rhs[i]) > 1e-6 {
			// Artificial stuck basic at nonzero value: infeasible.
			sol.Status = StatusInfeasible
			return sol
		}
	}
	sol.X = make([]float64, t.numVars)
	obj := t.objShift
	for i := 0; i < t.numVars; i++ {
		var v float64
		if r := t.basicRow[i]; r >= 0 {
			v = t.rhs[r]
		} else {
			v = t.colVal(i)
		}
		sol.X[i] = v + t.lo[i]
		obj += t.obj[i] * v
	}
	sol.Objective = obj
	sol.Status = StatusOptimal
	return sol
}

// Feasible reports whether x satisfies all constraints and bounds within
// tolerance eps.
func (p *Problem) Feasible(x []float64, eps float64) bool {
	if len(x) != p.numVars {
		return false
	}
	for i := range x {
		if x[i] < p.lo[i]-eps || x[i] > p.hi[i]+eps {
			return false
		}
	}
	for _, con := range p.constraints {
		var lhs float64
		for _, t := range con.Terms {
			lhs += t.Coeff * x[t.Var]
		}
		switch con.Op {
		case LE:
			if lhs > con.RHS+eps {
				return false
			}
		case GE:
			if lhs < con.RHS-eps {
				return false
			}
		case EQ:
			if math.Abs(lhs-con.RHS) > eps {
				return false
			}
		}
	}
	return true
}
