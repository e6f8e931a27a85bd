// Package lp implements a linear-programming solver: a two-phase primal
// simplex over a dense tableau, with Bland's rule for anti-cycling and a
// dual-simplex warm-start path for re-solving under changed variable
// bounds.
//
// It is the foundation of the MILP solver (package milp) that SyCCL and
// the TECCL baseline use to synthesize sub-schedules (§5.1, Appendix A).
// Problems are stated in general form:
//
//	minimize    cᵀx
//	subject to  aᵢᵀx (≤|=|≥) bᵢ
//	            lo ≤ x ≤ hi
//
// The solver targets the modest problem sizes produced by SyCCL's
// symmetry decomposition (hundreds of variables). Two engines share the
// flat tableau storage: Problem.Solve builds a one-shot tableau where
// finite upper bounds are explicit rows, while NewResolvableTableau uses
// a bounded-variable simplex — bounds live on the columns, nonbasic
// variables rest at their lower or upper bound, and a bound change is an
// O(m) right-hand-side update — so branch-and-bound re-solves sibling
// nodes with a handful of dual-simplex pivots instead of a full rebuild.
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

// ErrWarmStart reports that a warm-started re-solve could not complete
// (iteration limit or numerical degradation even after a cold retry); the
// caller should fall back to building a fresh problem.
var ErrWarmStart = errors.New("lp: warm-start re-solve not applicable")

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
	tol          = 1e-9
	pivotTol     = 1e-9
	dualPivotTol = 1e-7
)

// disableColLimit widens phase-2 pivot and objective-row updates back to
// every column, including the artificial block that is never read after
// phase 1. It exists only so BenchmarkLPColLimit can measure the win of
// the restricted width; production code leaves it false.
var disableColLimit = false

// Solve runs two-phase primal simplex and returns the solution. The X and
// Objective fields are meaningful only when Status is StatusOptimal.
func (p *Problem) Solve() (*Solution, error) {
	t, err := NewTableau(p)
	if err != nil {
		return nil, err
	}
	return t.Solve()
}

// SolveCtx is Solve with cooperative cancellation: the pivot loop polls
// the context and a cancelled solve returns with StatusIterLimit (never
// a partial basis presented as optimal).
func (p *Problem) SolveCtx(ctx context.Context) (*Solution, error) {
	t, err := NewTableau(p)
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		t.SetCancel(func() bool { return ctx.Err() != nil })
	}
	return t.Solve()
}

// Tableau is the standard-form expansion of a Problem with variables
// shifted to x' = x - lo and slack/surplus/artificial columns appended.
// The coefficient matrix is one flat backing array (row-major) for cache
// locality.
//
// The one-shot layout (NewTableau) turns finite upper bounds into
// explicit rows, exactly as Problem.Solve always has. The resolvable
// layout (NewResolvableTableau) instead runs a bounded-variable simplex:
// bounds are attributes of the columns (colLo/colUp), nonbasic columns
// rest at one of their bounds (atUpper), and rhs holds the *values* of
// the basic variables. A bound change moves the resting value of a
// nonbasic column — an O(m) rhs update — and dual simplex repairs any
// basic variable pushed outside its bounds, so ReSolve needs no
// construction work and typically only a few pivots per node.
type Tableau struct {
	m, n      int       // constraint rows, structural columns (shifted vars)
	a         []float64 // m × totalCols coefficient matrix, flat row-major
	rhs       []float64 // one-shot: transformed rhs; resolvable: basic values
	obj       []float64 // phase-2 objective over all columns
	objShift  float64   // constant from the lo-shift
	basis     []int     // basic column per row
	totalCols int
	numArt    int
	artStart  int
	iters     int
	maxIters  int

	numVars int
	c       []float64 // problem objective (copy)
	lo0     []float64 // base lower bounds: the shift origin
	hi0     []float64 // base upper bounds

	// Bounded-variable state (resolvable tableaus only). Column bounds are
	// in shifted space: structural column i covers x'_i ∈ [colLo, colUp];
	// slack/surplus/artificial columns are [0, +inf).
	resolvable bool
	colLo      []float64
	colUp      []float64
	atUpper    []bool // nonbasic column rests at its upper bound
	basicRow   []int  // row a column is basic in, -1 if nonbasic
	solved     bool   // an optimal basis is loaded
	used       bool   // solved before: the next cold solve refills first

	// The rows the tableau was built from — the problem's constraints,
	// then (one-shot layout) one upper-bound row per variable of ubVars —
	// kept so a resolvable tableau can be refilled to its construction-time
	// state without holding a second copy of the matrix.
	cons   []Constraint
	ubVars []int
	unit   [1]Term // scratch: the single term of an upper-bound row

	objRow, phase1 []float64  // pooled scratch: objective row, phase-1 cost
	xbuf           []float64  // pooled scratch: extraction buffer
	dcands         []dualCand // pooled scratch: dual ratio-test candidates

	// cancel, when set, is polled every cancelCheckMask+1 pivots by every
	// pivot loop; a true return abandons the solve with StatusIterLimit.
	// Callers (branch-and-bound under a context) treat that exactly like an
	// iteration-limit node: drop it and report the proved bound.
	cancel func() bool
}

// cancelCheckMask throttles cancellation polls: pivots are O(m·width)
// dense row operations, so checking every 64th keeps the overhead
// unmeasurable while bounding the post-cancel grace to 64 pivots.
const cancelCheckMask = 63

// SetCancel installs (or clears, with nil) a cancellation poll. It is
// polled from the pivot loops of both the one-shot and the resolvable
// engines; when it returns true the running solve stops and reports
// StatusIterLimit.
func (t *Tableau) SetCancel(cancel func() bool) { t.cancel = cancel }

// cancelled reports whether the installed poll requests an abort, checking
// only every cancelCheckMask+1 iterations.
func (t *Tableau) cancelled() bool {
	return t.cancel != nil && t.iters&cancelCheckMask == 0 && t.cancel()
}

// dualCand is one entering candidate of the dual ratio test.
type dualCand struct {
	j     int
	w     float64
	ratio float64
}

// NewTableau builds a one-shot tableau for the problem, matching the
// layout Problem.Solve has always used (upper-bound rows only where the
// bound is finite).
func NewTableau(p *Problem) (*Tableau, error) {
	return buildTableau(p, false)
}

// NewResolvableTableau builds a bounded-variable tableau that supports
// ReSolve: variable bounds are column attributes rather than rows, so the
// tableau has only the constraint rows and a bound change is an O(m)
// right-hand-side patch followed by a short dual-simplex repair.
func NewResolvableTableau(p *Problem) (*Tableau, error) {
	return buildTableau(p, true)
}

func buildTableau(p *Problem, resolvable bool) (*Tableau, error) {
	for i := 0; i < p.numVars; i++ {
		if p.lo[i] > p.hi[i]+tol {
			return nil, fmt.Errorf("lp: variable %d has empty bounds [%g,%g]", i, p.lo[i], p.hi[i])
		}
		if math.IsInf(p.lo[i], -1) {
			return nil, errors.New("lp: free (lower-unbounded) variables are not supported")
		}
	}

	t := &Tableau{
		n:          p.numVars,
		numVars:    p.numVars,
		resolvable: resolvable,
		c:          append([]float64(nil), p.c...),
		lo0:        append([]float64(nil), p.lo...),
		hi0:        append([]float64(nil), p.hi...),
		// A Problem only ever appends constraints, and copies their terms
		// when it does, so the rows as of now can be kept by reference.
		cons: p.constraints[:len(p.constraints):len(p.constraints)],
	}
	// One-shot layout: finite upper bounds become rows x' ≤ hi - lo,
	// normalized together with the constraints (exactly the historical
	// Problem.Solve construction). The resolvable layout keeps bounds on
	// the columns instead — no rows added.
	if !resolvable {
		for i := 0; i < p.numVars; i++ {
			if !math.IsInf(p.hi[i], 1) {
				t.ubVars = append(t.ubVars, i)
			}
		}
	}
	t.m = len(t.cons) + len(t.ubVars)
	numSlack := 0
	for i := 0; i < t.m; i++ {
		switch _, op, _, _ := t.rowSpec(i); op {
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
	t.fill()

	t.obj = make([]float64, t.totalCols)
	for i := 0; i < p.numVars; i++ {
		t.obj[i] = p.c[i]
		t.objShift += p.c[i] * p.lo[i]
	}

	t.objRow = make([]float64, t.totalCols+1)
	t.phase1 = make([]float64, t.totalCols)
	t.xbuf = make([]float64, t.totalCols)

	if resolvable {
		t.colLo = make([]float64, t.totalCols)
		t.colUp = make([]float64, t.totalCols)
		t.atUpper = make([]bool, t.totalCols)
		t.basicRow = make([]int, t.totalCols)
		t.resetColumns()
	}
	return t, nil
}

// rowSpec returns row i of the standard form: its terms over the shifted
// variables x' = x - lo, and its sense and right-hand side normalized to
// rhs ≥ 0 — neg reports that the row's coefficients change sign for that.
// Rows past the constraints are the one-shot layout's upper-bound rows
// x' ≤ hi - lo; their single term lives in t.unit until the next call.
func (t *Tableau) rowSpec(i int) (terms []Term, op Op, rhs float64, neg bool) {
	if i < len(t.cons) {
		con := &t.cons[i]
		terms, op, rhs = con.Terms, con.Op, con.RHS
		for _, tm := range terms {
			rhs -= tm.Coeff * t.lo0[tm.Var]
		}
	} else {
		v := t.ubVars[i-len(t.cons)]
		t.unit[0] = Term{Var: v, Coeff: 1}
		terms, op, rhs = t.unit[:], LE, t.hi0[v]-t.lo0[v]
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

// fill writes the construction-time matrix, right-hand side and slack /
// artificial starting basis into a zeroed t.a, straight from the rows.
func (t *Tableau) fill() {
	slack, art := t.numVars, t.artStart
	for i := 0; i < t.m; i++ {
		terms, op, rhs, neg := t.rowSpec(i)
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

// resetColumns loads the base bounds and the starting basis into the
// bounded-variable state. Every nonbasic column starts at its lower bound
// (0), so the basic values are exactly the normalized rhs.
func (t *Tableau) resetColumns() {
	for j := range t.colUp {
		t.colLo[j] = 0
		t.colUp[j] = math.Inf(1)
		t.atUpper[j] = false
		t.basicRow[j] = -1
	}
	for i := 0; i < t.numVars; i++ {
		ub := t.hi0[i] - t.lo0[i]
		if ub < 0 {
			ub = 0 // within tol by the bounds check at construction
		}
		t.colUp[i] = ub
	}
	for i, b := range t.basis {
		t.basicRow[b] = i
	}
}

// Clone returns an independent copy sharing only the immutable
// construction-time rows (each branch-and-bound worker owns one).
func (t *Tableau) Clone() *Tableau {
	q := *t
	q.a = append([]float64(nil), t.a...)
	q.rhs = append([]float64(nil), t.rhs...)
	q.basis = append([]int(nil), t.basis...)
	q.objRow = make([]float64, t.totalCols+1)
	q.phase1 = make([]float64, t.totalCols)
	q.xbuf = make([]float64, t.totalCols)
	q.dcands = nil
	if t.resolvable {
		q.colLo = append([]float64(nil), t.colLo...)
		q.colUp = append([]float64(nil), t.colUp...)
		q.atUpper = append([]bool(nil), t.atUpper...)
		q.basicRow = append([]int(nil), t.basicRow...)
	}
	return &q
}

func (t *Tableau) row(i int) []float64 {
	return t.a[i*t.totalCols : (i+1)*t.totalCols]
}

// pivotWidth is how far pivot and objective-row updates reach once phase
// 1 is done: the artificial block is stale from then on and never read,
// so updates stop at artStart (unless the benchmark toggle is set).
func (t *Tableau) pivotWidth() int {
	if disableColLimit {
		return t.totalCols
	}
	return t.artStart
}

// objectiveRowInto fills out with z_j - c_j terms: cost[j] - Σ_i
// costB[i]·a[i][j] for j < width, and the negated basic objective in
// out[totalCols].
func (t *Tableau) objectiveRowInto(cost []float64, out []float64, width int) {
	copy(out[:width], cost[:width])
	out[t.totalCols] = 0
	for i := 0; i < t.m; i++ {
		cb := cost[t.basis[i]]
		if cb == 0 {
			continue
		}
		r := t.row(i)
		for j := 0; j < width; j++ {
			out[j] -= cb * r[j]
		}
		out[t.totalCols] -= cb * t.rhs[i]
	}
}

// pivot performs a pivot on (row, col), updating columns < width.
func (t *Tableau) pivot(row, col, width int, objRow []float64) {
	pr := t.row(row)
	pv := pr[col]
	inv := 1 / pv
	for j := 0; j < width; j++ {
		pr[j] *= inv
	}
	t.rhs[row] *= inv
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
		t.rhs[i] -= f * t.rhs[row]
		if math.Abs(t.rhs[i]) < 1e-12 {
			t.rhs[i] = 0
		}
	}
	if f := objRow[col]; f != 0 {
		for j := 0; j < width; j++ {
			objRow[j] -= f * pr[j]
		}
		objRow[t.totalCols] -= f * t.rhs[row]
	}
	t.basis[row] = col
}

// iterate runs primal simplex iterations on the given objective row,
// restricted to entering columns < colLimit and updates < width. Returns
// StatusOptimal, StatusUnbounded or StatusIterLimit.
func (t *Tableau) iterate(objRow []float64, colLimit, width int) Status {
	noProgress := 0
	lastObj := objRow[t.totalCols]
	for ; t.iters < t.maxIters; t.iters++ {
		if t.cancelled() {
			return StatusIterLimit
		}
		// Entering column: Dantzig (most negative reduced cost);
		// Bland's rule after stalling to escape degenerate cycling.
		col := -1
		if noProgress < 40 {
			best := -tol
			for j := 0; j < colLimit; j++ {
				if objRow[j] < best {
					best = objRow[j]
					col = j
				}
			}
		} else {
			for j := 0; j < colLimit; j++ {
				if objRow[j] < -tol {
					col = j
					break
				}
			}
		}
		if col < 0 {
			return StatusOptimal
		}
		// Ratio test (Bland tie-break on basis index).
		row := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			a := t.a[i*t.totalCols+col]
			if a > pivotTol {
				r := t.rhs[i] / a
				if r < bestRatio-tol || (r < bestRatio+tol && (row < 0 || t.basis[i] < t.basis[row])) {
					bestRatio = r
					row = i
				}
			}
		}
		if row < 0 {
			return StatusUnbounded
		}
		t.pivot(row, col, width, objRow)
		// Minimizing drives the stored objective cell upward (it holds
		// the negated basic contribution), so an increase is progress.
		if objRow[t.totalCols] < lastObj+1e-12 {
			noProgress++
		} else {
			noProgress = 0
			lastObj = objRow[t.totalCols]
		}
	}
	return StatusIterLimit
}

// twoPhase runs the standard cold solve on the current tableau state:
// phase 1 over the artificial sum, artificial drive-out, then phase 2 on
// the real objective.
func (t *Tableau) twoPhase() Status {
	if t.numArt > 0 {
		for j := range t.phase1 {
			t.phase1[j] = 0
		}
		for j := t.artStart; j < t.totalCols; j++ {
			t.phase1[j] = 1
		}
		// Phase 1 pivots full-width: the artificial block is live here.
		t.objectiveRowInto(t.phase1, t.objRow, t.totalCols)
		st := t.iterate(t.objRow, t.totalCols, t.totalCols)
		if st == StatusIterLimit {
			return StatusIterLimit
		}
		// Phase-1 optimum is -objRow[last] (objectiveRowInto stores the
		// negated basic contribution).
		if -t.objRow[t.totalCols] > 1e-6 {
			return StatusInfeasible
		}
		// Drive remaining artificials out of the basis where possible.
		width := t.pivotWidth()
		for i := 0; i < t.m; i++ {
			if t.basis[i] < t.artStart {
				continue
			}
			ri := t.row(i)
			for j := 0; j < t.artStart; j++ {
				if math.Abs(ri[j]) > 1e-7 {
					t.pivot(i, j, width, t.objRow)
					break
				}
			}
			// A redundant row keeps its (zero-valued) artificial.
		}
	}

	// Phase 2 on the real objective, excluding artificial columns.
	width := t.pivotWidth()
	t.objectiveRowInto(t.obj, t.objRow, width)
	return t.iterate(t.objRow, t.artStart, width)
}

// extract reads the solution out of an optimal basis.
func (t *Tableau) extract() *Solution {
	sol := &Solution{Iters: t.iters}
	x := t.xbuf
	for j := range x {
		x[j] = 0
	}
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.artStart && t.rhs[i] > 1e-6 {
			// Artificial stuck basic at nonzero value: infeasible.
			sol.Status = StatusInfeasible
			return sol
		}
		x[t.basis[i]] = t.rhs[i]
	}
	sol.X = make([]float64, t.numVars)
	obj := t.objShift
	for i := 0; i < t.numVars; i++ {
		sol.X[i] = x[i] + t.lo0[i]
		obj += t.c[i] * x[i]
	}
	sol.Objective = obj
	sol.Status = StatusOptimal
	return sol
}

// Solve runs a cold two-phase solve. On a resolvable tableau it first
// restores the pristine construction-time state (base bounds).
func (t *Tableau) Solve() (*Solution, error) {
	t.iters = 0
	if t.resolvable {
		t.restore()
		st := t.bTwoPhase()
		if st != StatusOptimal {
			return &Solution{Status: st, Iters: t.iters}, nil
		}
		sol := t.bExtract()
		t.solved = sol.Status == StatusOptimal
		return sol, nil
	}
	st := t.twoPhase()
	if st != StatusOptimal {
		return &Solution{Status: st, Iters: t.iters}, nil
	}
	return t.extract(), nil
}

// restore resets a resolvable tableau to its construction-time state by
// refilling it from its rows: a tableau that is solved once and dropped
// (the flow relaxations) never pays for a snapshot.
func (t *Tableau) restore() {
	if t.used {
		clear(t.a)
		t.fill()
		t.resetColumns()
	}
	t.used = true
	t.solved = false
}

// colVal returns the resting value of nonbasic column j.
func (t *Tableau) colVal(j int) float64 {
	if t.atUpper[j] {
		return t.colUp[j]
	}
	return t.colLo[j]
}

// bElim performs the row elimination of a pivot on (row, col) over the
// coefficient matrix and objective row only — the bounded-variable engine
// updates rhs (basic values) separately, before elimination, using the
// pre-pivot column. The caller updates basis/basicRow.
func (t *Tableau) bElim(row, col, width int, objRow []float64) {
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

// bIterate runs bounded-variable primal simplex: entering candidates are
// nonbasic columns < colLimit whose reduced cost improves from their
// resting bound; the ratio test may end in a bound flip (the entering
// column runs to its opposite bound without a basis change). Returns
// StatusOptimal, StatusUnbounded or StatusIterLimit.
func (t *Tableau) bIterate(objRow []float64, colLimit, width int) Status {
	noProgress := 0
	for ; t.iters < t.maxIters; t.iters++ {
		if t.cancelled() {
			return StatusIterLimit
		}
		col := -1
		var dir float64
		if noProgress < 40 {
			best := tol
			for j := 0; j < colLimit; j++ {
				if t.basicRow[j] >= 0 || t.colUp[j]-t.colLo[j] <= tol {
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
				if t.basicRow[j] >= 0 || t.colUp[j]-t.colLo[j] <= tol {
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
		// Ratio test: how far can the entering column move before a basic
		// variable hits one of its bounds, or the entering column hits its
		// own opposite bound (a bound flip — cheaper than a pivot, so it
		// wins ties). Bland tie-break on basis index among rows.
		flipLimit := t.colUp[col] - t.colLo[col]
		bestD := flipLimit
		leaveRow := -1
		leaveUpper := false
		for i := 0; i < t.m; i++ {
			w := t.a[i*t.totalCols+col]
			g := dir * w
			bi := t.basis[i]
			if g > pivotTol {
				d := (t.rhs[i] - t.colLo[bi]) / g
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
			t.bElim(leaveRow, col, width, objRow)
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
	return StatusIterLimit
}

// bDualIterate restores primal feasibility (a basic variable outside its
// column bounds) while preserving dual feasibility: the warm-start engine
// for ReSolve. The leaving variable exits at its violated bound; the
// entering column comes from a bound-flipping dual ratio test: candidates
// are taken in increasing |d_j / a_rj| order, and a candidate whose full
// range cannot close the violation is flipped to its opposite bound (no
// basis change) rather than entered — which would overshoot its own
// bounds and cascade new violations. Returns StatusOptimal (primal
// feasible), StatusInfeasible or StatusIterLimit.
func (t *Tableau) bDualIterate(objRow []float64) Status {
	width := t.pivotWidth()
	noProgress := 0
	for ; t.iters < t.maxIters; t.iters++ {
		if t.cancelled() {
			return StatusIterLimit
		}
		// Leaving row: largest bound violation; smallest row index after
		// stalling (Bland-style) to break degenerate cycling.
		r := -1
		tooLow := false
		if noProgress < 40 {
			worst := tol
			for i := 0; i < t.m; i++ {
				bi := t.basis[i]
				if v := t.colLo[bi] - t.rhs[i]; v > worst {
					worst, r, tooLow = v, i, true
				}
				if up := t.colUp[bi]; !math.IsInf(up, 1) {
					if v := t.rhs[i] - up; v > worst {
						worst, r, tooLow = v, i, false
					}
				}
			}
		} else {
			for i := 0; i < t.m; i++ {
				bi := t.basis[i]
				if t.rhs[i] < t.colLo[bi]-tol {
					r, tooLow = i, true
					break
				}
				if up := t.colUp[bi]; !math.IsInf(up, 1) && t.rhs[i] > up+tol {
					r, tooLow = i, false
					break
				}
			}
		}
		if r < 0 {
			return StatusOptimal
		}
		bi := t.basis[r]
		target := t.colLo[bi]
		if !tooLow {
			target = t.colUp[bi]
		}
		row := t.row(r)
		// Gather sign-eligible flexible candidates. Fixed columns
		// (colLo == colUp) are constants and never enter.
		cands := t.dcands[:0]
		maxAbs := 0.0
		for j := 0; j < t.artStart; j++ {
			if t.basicRow[j] >= 0 {
				continue
			}
			w := row[j]
			if v := math.Abs(w); v > maxAbs {
				maxAbs = v
			}
			if t.colUp[j]-t.colLo[j] <= tol {
				continue
			}
			var ok bool
			if tooLow {
				// The basic variable must increase: raise a column whose
				// coefficient is negative, or lower one at its upper bound
				// with a positive coefficient.
				ok = (!t.atUpper[j] && w < -dualPivotTol) || (t.atUpper[j] && w > dualPivotTol)
			} else {
				ok = (!t.atUpper[j] && w > dualPivotTol) || (t.atUpper[j] && w < -dualPivotTol)
			}
			if ok {
				cands = append(cands, dualCand{j: j, w: w, ratio: math.Abs(objRow[j] / w)})
			}
		}
		t.dcands = cands
		if len(cands) == 0 {
			// A numerically-null row (a redundant constraint whose
			// artificial stayed basic) can drift slightly out of bounds
			// under patches; it carries no information, so snap it.
			viol := t.colLo[bi] - t.rhs[r]
			if !tooLow {
				viol = t.rhs[r] - t.colUp[bi]
			}
			if maxAbs <= dualPivotTol && viol <= 1e-5 {
				t.rhs[r] = target
				continue
			}
			return StatusInfeasible
		}
		// Bound-flipping walk, smallest ratio first (smallest column index
		// within tolerance — candidates are gathered in index order).
		col := -1
		var wcol float64
		flipped := false
		for {
			best := -1
			bestRatio := math.Inf(1)
			for k := range cands {
				if cands[k].j < 0 {
					continue // consumed by a flip
				}
				if cands[k].ratio < bestRatio-tol {
					bestRatio = cands[k].ratio
					best = k
				}
			}
			if best < 0 {
				break
			}
			c := &cands[best]
			rng := t.colUp[c.j] - t.colLo[c.j]
			if !math.IsInf(rng, 1) {
				delta := rng
				if t.atUpper[c.j] {
					delta = -rng
				}
				if math.Abs(delta*c.w) < math.Abs(t.rhs[r]-target)-tol {
					// The full flip still leaves the row violated: move the
					// column to its other bound and keep looking.
					for i := 0; i < t.m; i++ {
						wi := t.a[i*t.totalCols+c.j]
						if wi != 0 {
							t.rhs[i] -= delta * wi
						}
					}
					t.atUpper[c.j] = !t.atUpper[c.j]
					c.j = -1
					flipped = true
					continue
				}
			}
			col = c.j
			wcol = c.w
			break
		}
		if col < 0 {
			// Every flexible column flipped fully toward the bound and the
			// row is still violated: no primal point satisfies it.
			return StatusInfeasible
		}
		move := (t.rhs[r] - target) / wcol
		for i := 0; i < t.m; i++ {
			if i == r {
				continue
			}
			wi := t.a[i*t.totalCols+col]
			if wi != 0 {
				t.rhs[i] -= move * wi
			}
		}
		newVal := t.colVal(col) + move
		t.basicRow[bi] = -1
		t.atUpper[bi] = !tooLow
		t.bElim(r, col, width, objRow)
		t.basis[r] = col
		t.basicRow[col] = r
		t.rhs[r] = newVal
		if flipped || math.Abs(move) > tol {
			noProgress = 0
		} else {
			noProgress++
		}
	}
	return StatusIterLimit
}

// bTwoPhase runs the cold bounded-variable solve on the current state:
// phase 1 over the artificial sum, artificial drive-out, then phase 2.
func (t *Tableau) bTwoPhase() Status {
	if t.numArt > 0 {
		for j := range t.phase1 {
			t.phase1[j] = 0
		}
		for j := t.artStart; j < t.totalCols; j++ {
			t.phase1[j] = 1
		}
		t.objectiveRowInto(t.phase1, t.objRow, t.totalCols)
		st := t.bIterate(t.objRow, t.totalCols, t.totalCols)
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
		width := t.pivotWidth()
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
					t.bElim(i, j, width, t.objRow)
					t.basis[i] = j
					t.basicRow[j] = i
					t.rhs[i] = newVal
					break
				}
			}
			// A redundant row keeps its (zero-valued) artificial.
		}
	}

	width := t.pivotWidth()
	t.objectiveRowInto(t.obj, t.objRow, width)
	return t.bIterate(t.objRow, t.artStart, width)
}

// bExtract reads the solution out of an optimal bounded-variable basis.
func (t *Tableau) bExtract() *Solution {
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
		sol.X[i] = v + t.lo0[i]
		obj += t.c[i] * v
	}
	sol.Objective = obj
	sol.Status = StatusOptimal
	return sol
}

// bPatch loads new variable bounds into the columns. A basic column just
// takes the new bounds (dual simplex repairs any violation); a nonbasic
// column rests on a bound, so its value shifts with that bound and every
// basic value is updated by -delta times the column — O(m) per changed
// variable.
func (t *Tableau) bPatch(lo, hi []float64) {
	for i := 0; i < t.numVars; i++ {
		nl := lo[i] - t.lo0[i]
		nu := hi[i] - t.lo0[i] // +Inf stays +Inf
		if nl == t.colLo[i] && nu == t.colUp[i] {
			continue
		}
		if t.basicRow[i] >= 0 {
			t.colLo[i], t.colUp[i] = nl, nu
			continue
		}
		var delta float64
		if t.atUpper[i] {
			if math.IsInf(nu, 1) {
				// Nothing can rest at +Inf: move to the lower bound.
				delta = nl - t.colUp[i]
				t.atUpper[i] = false
			} else {
				delta = nu - t.colUp[i]
			}
		} else {
			delta = nl - t.colLo[i]
		}
		t.colLo[i], t.colUp[i] = nl, nu
		if delta != 0 {
			for r := 0; r < t.m; r++ {
				w := t.a[r*t.totalCols+i]
				if w != 0 {
					t.rhs[r] -= delta * w
				}
			}
		}
	}
}

// ReSolve re-solves the tableau's program under the given variable
// bounds: the bounds are patched onto the columns in place and dual
// simplex restores feasibility from the previous optimal basis, falling
// back to one cold base solve plus a patch when the warm basis cannot
// absorb the change. Returns ErrWarmStart when even the cold retry fails
// numerically (the caller should rebuild from the Problem); otherwise the
// Solution status is authoritative (StatusInfeasible for empty nodes).
func (t *Tableau) ReSolve(lo, hi []float64) (*Solution, error) {
	if !t.resolvable {
		return nil, ErrWarmStart
	}
	if len(lo) != t.numVars || len(hi) != t.numVars {
		return nil, errors.New("lp: ReSolve bounds length mismatch")
	}
	for i := 0; i < t.numVars; i++ {
		if math.IsInf(lo[i], -1) {
			return nil, errors.New("lp: free (lower-unbounded) variables are not supported")
		}
		if lo[i] > hi[i]+tol {
			return &Solution{Status: StatusInfeasible}, nil
		}
	}
	t.iters = 0
	if t.solved {
		t.bPatch(lo, hi)
		if sol, ok := t.bDualPrimal(); ok {
			return sol, nil
		}
	}
	// Cold recovery: pristine state, two-phase at base bounds (primal
	// feasible start by construction there), then patch to the requested
	// bounds and repair.
	t.restore()
	t.iters = 0
	st := t.bTwoPhase()
	switch st {
	case StatusInfeasible:
		// The base box is infeasible; callers only tighten it (branch-and-
		// bound nodes live inside the base box), so the node is too.
		return &Solution{Status: StatusInfeasible, Iters: t.iters}, nil
	case StatusOptimal:
	default:
		return nil, ErrWarmStart
	}
	t.solved = true
	t.bPatch(lo, hi)
	if sol, ok := t.bDualPrimal(); ok {
		return sol, nil
	}
	t.solved = false
	return nil, ErrWarmStart
}

// bDualPrimal runs dual simplex to primal feasibility, then a primal
// polish, on the already-loaded basis. ok=false means the basis could not
// be repaired (iteration limit or numerical degradation) and the caller
// should recover cold.
func (t *Tableau) bDualPrimal() (*Solution, bool) {
	width := t.pivotWidth()
	t.objectiveRowInto(t.obj, t.objRow, width)
	switch t.bDualIterate(t.objRow) {
	case StatusIterLimit:
		return nil, false
	case StatusInfeasible:
		return &Solution{Status: StatusInfeasible, Iters: t.iters}, true
	}
	switch t.bIterate(t.objRow, t.artStart, width) {
	case StatusIterLimit:
		return nil, false
	case StatusUnbounded:
		return &Solution{Status: StatusUnbounded, Iters: t.iters}, true
	}
	sol := t.bExtract()
	if sol.Status != StatusOptimal {
		// An artificial crept back to a nonzero value: numerically
		// degraded, not a trustworthy infeasibility verdict.
		return nil, false
	}
	return sol, true
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
