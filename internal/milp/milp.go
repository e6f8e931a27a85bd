// Package milp implements a mixed-integer linear program solver via
// branch-and-bound over LP relaxations (package lp).
//
// It is the solving engine behind SyCCL's sub-schedule synthesis (§5.1):
// because the symmetry decomposition yields small per-group problems, an
// exact pure-Go branch-and-bound with best-first node ordering replaces
// the commercial solver the paper uses, preserving the encoding and the
// accuracy/efficiency knobs (τ, E) while staying dependency-free.
//
// Nodes carry only their (branchVar, bound) delta against the parent;
// each node's relaxation is the LP tightened to the node's bound box and
// solved cold (lp.Problem.SolveCtx). The search is one best-first loop on
// the caller's goroutine, so the solution, the node count and the pivot
// count are a function of the problem and the options alone; parallelism
// lives one level up, across sub-demands (core.Options.Workers).
//
// Effort is bounded by deterministic budgets (MaxNodes, MaxLPIters) and
// by the caller's context; a search cut short returns the best incumbent
// found.
package milp

import (
	"container/heap"
	"context"
	"errors"
	"math"

	"syccl/internal/lp"
)

// Problem is an LP plus integrality markers.
type Problem struct {
	LP      *lp.Problem
	Integer []bool // Integer[i]: variable i must take an integral value
}

// NewProblem creates a MILP with n continuous variables; mark integer
// variables with SetInteger.
func NewProblem(n int) *Problem {
	return &Problem{LP: lp.NewProblem(n), Integer: make([]bool, n)}
}

// SetInteger marks variable i as integral.
func (p *Problem) SetInteger(i int) { p.Integer[i] = true }

// SetBinary marks variable i as integral with bounds [0,1].
func (p *Problem) SetBinary(i int) {
	p.Integer[i] = true
	p.LP.SetBounds(i, 0, 1)
}

// Options controls the branch-and-bound search.
type Options struct {
	MaxNodes int // 0: default 100000
	// MaxLPIters caps the simplex pivots summed over all node
	// relaxations (0: unlimited). Like MaxNodes it is a deterministic
	// effort bound — the same search truncates at the same node on any
	// machine — while tracking actual work when nodes have very different
	// relaxation costs. Each node's solve is capped at what is left, so
	// the total never exceeds it; the node that runs it out is left
	// unresolved.
	MaxLPIters int
}

// Status classifies a MILP outcome.
type Status int

// MILP statuses.
const (
	StatusOptimal    Status = iota // proved optimal
	StatusFeasible                 // feasible incumbent, limit hit before proof
	StatusInfeasible               // no integral point exists
	StatusUnbounded
	StatusUnknown // limit hit before any feasible point or proof
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	default:
		return "unknown"
	}
}

// Solution reports the outcome.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	Nodes     int     // branch-and-bound nodes explored
	LPIters   int     // simplex pivots summed over all node relaxations
	Bound     float64 // best lower bound on the optimum
}

const intTol = 1e-6

// node is one open branch-and-bound subproblem, stored as a delta
// against its parent: the full bound box is reconstructed by walking the
// parent chain (bounds only ever tighten, so application order is
// irrelevant).
type node struct {
	parent    *node
	branchVar int
	val       float64
	isUpper   bool    // true: hi[branchVar] ← min(hi, val); false: lo ← max(lo, val)
	bound     float64 // parent LP bound (priority)
	seq       int64   // creation order: deterministic heap tie-break
}

// materialize reconstructs the node's bound box over the base bounds.
func (nd *node) materialize(lo, hi, baseLo, baseHi []float64) {
	copy(lo, baseLo)
	copy(hi, baseHi)
	for c := nd; c != nil && c.parent != nil; c = c.parent {
		if c.isUpper {
			if c.val < hi[c.branchVar] {
				hi[c.branchVar] = c.val
			}
		} else {
			if c.val > lo[c.branchVar] {
				lo[c.branchVar] = c.val
			}
		}
	}
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// solver is the state of one branch-and-bound search.
type solver struct {
	p              *Problem
	n              int
	baseLo, baseHi []float64
	ctx            context.Context
	rel            *lp.Problem // the caller's LP, re-bounded to each node's box
	lo, hi         []float64   // scratch bound box of the node being solved

	h     nodeHeap
	nodes int   // nodes expanded (LP-solved)
	iters int   // LP pivots summed
	seq   int64 // next node sequence number

	haveInc   bool
	best      float64 // incumbent objective (+Inf when none)
	bestX     []float64
	unbounded bool
	dropped   bool    // some subproblem was left unresolved
	droppedLB float64 // min bound over unresolved subproblems
	prunedLB  float64 // min bound over subtrees resolved by incumbent pruning
}

// Solve runs best-first branch-and-bound.
func Solve(p *Problem, opts Options) (*Solution, error) {
	return SolveCtx(context.Background(), p, opts)
}

// SolveCtx is Solve under a context: cancellation is polled once per
// branch-and-bound node and every few simplex pivots inside each node's
// relaxation, and it behaves exactly like an exhausted budget — the search
// stops, open subtrees are recorded as unresolved, and the best incumbent
// found so far is returned (StatusFeasible), or StatusUnknown when none
// exists.
func SolveCtx(ctx context.Context, p *Problem, opts Options) (*Solution, error) {
	n := p.LP.NumVars()
	if len(p.Integer) != n {
		return nil, errors.New("milp: Integer mask length mismatch")
	}
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 100000
	}
	maxIters := opts.MaxLPIters
	if maxIters <= 0 {
		maxIters = math.MaxInt
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &solver{
		p: p, n: n,
		ctx:       ctx,
		lo:        make([]float64, n),
		hi:        make([]float64, n),
		best:      math.Inf(1),
		droppedLB: math.Inf(1),
		prunedLB:  math.Inf(1),
	}

	s.baseLo = make([]float64, n)
	s.baseHi = make([]float64, n)
	for i := 0; i < n; i++ {
		s.baseLo[i], s.baseHi[i] = p.LP.Bounds(i)
	}
	s.rel = p.LP.Clone()

	s.h = nodeHeap{{bound: math.Inf(-1), seq: 0}}
	s.seq = 1
	for len(s.h) > 0 && !s.unbounded {
		if s.nodes >= maxNodes || s.iters >= maxIters || ctx.Err() != nil {
			break
		}
		nd := heap.Pop(&s.h).(*node)
		if nd.bound >= s.best-intTol {
			// Resolved by bound: the subtree cannot beat the incumbent.
			if nd.bound < s.prunedLB {
				s.prunedLB = nd.bound
			}
			continue
		}
		s.nodes++
		s.finishNode(nd, s.solveNode(nd, maxIters-s.iters))
	}
	// A budget, the context or proved unboundedness ended the search:
	// every node still open is an unresolved subtree.
	for _, nd := range s.h {
		s.noteDropped(nd.bound)
	}

	sol := &Solution{Nodes: s.nodes, LPIters: s.iters}
	switch {
	case s.unbounded:
		sol.Status = StatusUnbounded
		sol.Objective = math.Inf(-1)
		sol.Bound = math.Inf(-1)
	case !s.dropped:
		// Every subproblem was resolved: exhausted (possibly via pruning).
		if s.haveInc {
			sol.Status = StatusOptimal
			sol.X = s.bestX
			sol.Objective = s.best
			sol.Bound = s.best
		} else {
			sol.Status = StatusInfeasible
			sol.Objective = math.Inf(1)
			sol.Bound = math.Inf(1)
		}
	default:
		// A limit left subproblems unresolved: report the exact proved
		// bound, the minimum over every unresolved or pruned subtree.
		sol.Bound = math.Min(s.droppedLB, s.prunedLB)
		if s.haveInc {
			sol.Status = StatusFeasible
			sol.X = s.bestX
			sol.Objective = s.best
			if sol.Bound > sol.Objective {
				sol.Bound = sol.Objective
			}
		} else {
			sol.Status = StatusUnknown
			sol.Objective = math.Inf(1)
		}
	}
	return sol, nil
}

// solveNode solves the node's LP relaxation cold — the LP with the
// node's bound box, solved from scratch — within budget pivots, charged
// to s.iters; it leaves the node's bound box in s.lo/s.hi. Returns nil
// when branching emptied the box (an infeasible child), and a
// StatusIterLimit solution when the budget or the context ran out.
func (s *solver) solveNode(nd *node, budget int) *lp.Solution {
	nd.materialize(s.lo, s.hi, s.baseLo, s.baseHi)
	for i := 0; i < s.n; i++ {
		s.rel.SetBounds(i, s.lo[i], s.hi[i])
	}
	ls, err := s.rel.SolveCtx(s.ctx, budget)
	if err != nil {
		return nil
	}
	s.iters += ls.Iters
	return ls
}

// finishNode classifies the node's relaxation and updates the incumbent
// or pushes the two children.
func (s *solver) finishNode(nd *node, ls *lp.Solution) {
	if ls == nil {
		return // infeasible child
	}
	switch ls.Status {
	case lp.StatusInfeasible:
		return
	case lp.StatusUnbounded:
		if !s.haveInc {
			s.unbounded = true
		}
		return
	case lp.StatusIterLimit:
		s.noteDropped(nd.bound)
		return
	}
	// Find the most fractional integer variable.
	branch := -1
	worst := intTol
	for i := 0; i < s.n; i++ {
		if !s.p.Integer[i] {
			continue
		}
		f := math.Abs(ls.X[i] - math.Round(ls.X[i]))
		if f > worst {
			worst = f
			branch = i
		}
	}
	if branch < 0 {
		// Integral: candidate incumbent. Ties on the objective resolve to
		// the lexicographically smallest solution.
		x := roundIntegral(s.p, ls.X)
		if s.betterIncumbent(ls.Objective, x) {
			s.best = ls.Objective
			s.bestX = x
			s.haveInc = true
		}
		return
	}
	if ls.Objective >= s.best-intTol {
		if ls.Objective < s.prunedLB {
			s.prunedLB = ls.Objective
		}
		return // cannot improve
	}

	floorV := math.Floor(ls.X[branch])
	// Down child: x ≤ floor.
	if s.lo[branch] <= math.Min(s.hi[branch], floorV)+intTol {
		s.pushChild(&node{parent: nd, branchVar: branch, val: floorV, isUpper: true, bound: ls.Objective})
	}
	// Up child: x ≥ floor+1.
	if math.Max(s.lo[branch], floorV+1) <= s.hi[branch]+intTol {
		s.pushChild(&node{parent: nd, branchVar: branch, val: floorV + 1, isUpper: false, bound: ls.Objective})
	}
}

func (s *solver) pushChild(c *node) {
	c.seq = s.seq
	s.seq++
	heap.Push(&s.h, c)
}

func (s *solver) noteDropped(bound float64) {
	s.dropped = true
	if bound < s.droppedLB {
		s.droppedLB = bound
	}
}

// betterIncumbent reports whether (obj, x) replaces the current
// incumbent: strictly better objective, or an equal objective (within
// intTol) with a lexicographically smaller solution vector.
func (s *solver) betterIncumbent(obj float64, x []float64) bool {
	if !s.haveInc {
		return true
	}
	if obj < s.best-intTol {
		return true
	}
	if obj > s.best+intTol {
		return false
	}
	for i := range x {
		if x[i] < s.bestX[i]-intTol {
			return true
		}
		if x[i] > s.bestX[i]+intTol {
			return false
		}
	}
	return false
}

// roundIntegral snaps near-integral values exactly.
func roundIntegral(p *Problem, x []float64) []float64 {
	out := append([]float64(nil), x...)
	for i, isInt := range p.Integer {
		if isInt {
			out[i] = math.Round(out[i])
		}
	}
	return out
}
