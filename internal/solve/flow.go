package solve

import (
	"context"
	"errors"
	"math"
	"slices"

	"syccl/internal/lp"
)

// Flow-relaxation lower-bound oracle.
//
// The schedule-time question for a sub-demand relaxes to a
// multi-commodity-flow LP (Arzani et al., "Rethinking Machine Learning
// Collective Communication as a Multi-Commodity Flow Problem"): forget
// *when* transfers happen and ask only how much of each piece flows out
// of and into each GPU port. Because a sub-demand lives inside one
// uniform group (every pair connected, one α-β class), pair-level
// routing aggregates losslessly to per-node outflow/inflow totals:
//
//	y[p][i] — total copies of piece p sent by GPU i        (0 ≤ y ≤ n−1)
//	z[p][i] — total copies of piece p received by GPU i    (0 ≤ z ≤ 1)
//	T       — relaxed makespan in the chosen cost unit
//
// subject to, per piece p:
//
//	Σ_i z[p][i] = Σ_i y[p][i]                (flow conservation)
//	z[p][i] = 0 for sources, = 1 for needed destinations
//	y[p][i] ≤ (n−1)·z[p][i] for non-sources  (must receive before sending)
//	Σ_{s∈Srcs(p)} y[p][s] ≥ 1               (some copy originates at a source)
//
// and per GPU i, with cost_p the port occupancy of one transfer of p:
//
//	Σ_p cost_p·y[p][i] ≤ T    (egress capacity)
//	Σ_p cost_p·z[p][i] ≤ T    (ingress capacity)
//
// minimizing T. Any valid schedule, normalized to send no piece to a GPU
// that already holds it and to deliver each (piece, dst) once, induces
// integral y/z satisfying every constraint with T = busiest port
// occupancy, so the LP optimum T* lower-bounds the port work of every
// schedule. The source-origination inequality closes the ε-bootstrap
// hole of the pure relaxation (fractional z at a relay would otherwise
// license its full egress without any source ever paying egress cost).
//
// The LP is solved on its symmetry quotient. Sub-demands are almost
// always symmetric — every piece of an AllGather cell looks like every
// other, and so does every GPU — and an LP whose rows and columns can be
// permuted onto themselves has an optimum constant on each orbit.
// flowPartition finds the coarsest equitable partition of the
// (active piece) × GPU incidence by colour refinement (pieces start
// coloured by cost, GPUs in one colour; each (piece, GPU) pair has a
// role: source, needed destination, or other), and flowProblem builds
// one ȳ/z̄ pair per (piece class, GPU class, role) instead of one per
// (piece, GPU) — 5 to 7 variables for any uniform AllGather, Scatter,
// AlltoAll or Broadcast, whatever n. The quotient has the same optimum
// (Grohe, Kersting, Mladenov and Selman, "Dimension Reduction via Colour
// Refinement", ESA 2014). Proof sketch: a quotient solution, copied to
// every pair of its cell, satisfies every row of the full LP, because
// equitability makes each full row the quotient row of its class with
// the same per-piece and per-GPU counts; conversely, averaging a full
// solution over each cell keeps every row (each quotient row is the
// average of the full rows of its class, and the bounds are convex) and
// keeps T, the objective. Rows the variable bounds already imply —
// y ≤ (n−1)·z at a needed destination, where z = 1, and ingress at a
// class that only sources — are not built.
//
// Two cost domains share the formulation:
//
//   - epochs (cost = span_p): FlowEpochBound adds the smallest
//     latency tail min_p(lat_p − span_p) — the last transfer to finish
//     pays lat, not span — and the closed-form lowerBoundEpochs, giving
//     exactSolve a tighter horizon-search floor;
//   - seconds (cost = β·b_p): FlowTimeBound adds the α tail, giving a
//     bound on the α-β simulated completion time that is independent of
//     any epoch discretization — what core reports as the coarse
//     incumbent's Result.Bound and StopWithin compares against.

// flowPivotBudget caps simplex pivots per bound LP. The quotient is
// tiny (a handful of variables per piece class) and solves in tens of
// pivots; the cap only guards degenerate cycling so bounds stay
// deterministic and cheap.
const flowPivotBudget = 20000

// flowPivotOpBudget caps the total dense-elimination work of one
// relaxation: each pivot eliminates across a rows×cols tableau — the
// quotient tableau actually solved — so the effective pivot cap is
// flowPivotOpBudget/(rows·cols), never above flowPivotBudget. A flat pivot cap is the wrong unit — 20k pivots on a
// 320×830 tableau is seconds of arithmetic, far more than the MILP
// horizons the bound exists to skip. An LP that cannot converge within
// the work budget reports errFlowUnavailable and callers keep their
// closed-form bounds.
const flowPivotOpBudget = 100_000_000

// flowLPMaxRows gates the relaxation's unreduced constraint count
// (P·(n+2)+2n for P deliverable pieces over n GPUs, the rows of the
// per-(piece, GPU) LP), not the quotient's, so which demands get an LP
// bound depends on their size alone. The dense tableau costs O(rows²)
// per pivot, and a monster merged demand — hundreds of pieces in one
// all-to-all cell — need not be symmetric enough for its quotient to be
// small, so it would spend more on the bound than the MILP it prunes.
// Over the gate the LP is skipped and callers keep the closed-form load
// bound, which is near-tight exactly on those shapes (they are port-load
// dominated). Every instance small enough for the exact engine's
// maxBinaries gate fits far under this cap, which is the one
// FlowEpochBound uses.
//
// FlowTimeBound runs once per distinct demand of the coarse incumbent's
// cells, between the passes, so it gets the much tighter
// flowBoundMaxRows — milliseconds, not hundreds of milliseconds — and
// larger cells keep the closed-form load and chain bounds.
const (
	flowLPMaxRows    = 600
	flowBoundMaxRows = 256
)

// (Symmetric relaxations converge far inside the budget — the quotient
// of a 16-piece/16-GPU AllGather has 5 variables — so the cap only trips
// on degenerate, asymmetric merged cells where the simplex stalls.)
//
// errFlowUnavailable reports that the relaxation produced no usable
// bound (cancelled, iteration-limited, or numerically infeasible).
// Callers fall back to closed-form bounds; never fatal.
var errFlowUnavailable = errors.New("solve: flow relaxation unavailable")

// flowLP builds the relaxation on the quotient of d's piece × GPU
// incidence (flowProblem) and solves it with per-piece port cost in an
// arbitrary time unit. It returns the LP optimum T* (port-work bound,
// before any latency tail) and the simplex pivots spent.
func flowLP(ctx context.Context, d *Demand, cost []float64, maxRows int) (tStar float64, pivots int, err error) {
	prob, rows, err := flowProblem(d, cost, maxRows)
	if err != nil || prob == nil {
		return 0, 0, err
	}
	budget := flowPivotBudget
	if ops := rows * (prob.NumVars() + rows); ops > 0 && flowPivotOpBudget/ops < budget {
		budget = flowPivotOpBudget / ops
	}
	// The budget is spent in whole strides of 64 pivots, the stride of
	// lp's cancellation polls at which it was first enforced, so a
	// relaxation stops where it always has; under one stride it gets none.
	budget -= budget % 64
	if budget == 0 {
		return 0, 0, errFlowUnavailable
	}
	sol, err := prob.SolveCtx(ctx, budget)
	if err != nil {
		return 0, 0, err
	}
	if sol.Status != lp.StatusOptimal {
		return 0, sol.Iters, errFlowUnavailable
	}
	return sol.Objective, sol.Iters, nil
}

// flowProblem builds the quotient LP of the relaxation and returns it
// with its constraint count; a nil problem means nothing is active (T*
// is 0). The gate is on the unreduced size P·(n+2)+2n, so which demands
// get a bound does not depend on how symmetric they are.
//
// Variables: for every (piece class P, GPU class G, role r) that
// occurs, one ȳ and one z̄ with the role's bounds, laid out per P as a
// ȳ block then a z̄ block, T last. With a[P,G,r] the GPUs of G in role
// r for one piece of P, and b[P,G,r] the pieces of P in role r at one
// GPU of G (both constant over the class — the partition is
// equitable), the rows are, per P:
//
//	ȳ − (n−1)·z̄ ≤ 0                    per (G, other)  (relays forward what they got)
//	Σ_{G,r} a·(z̄ − ȳ) = 0              (conservation)
//	Σ_G a[P,G,src]·ȳ[P,G,src] ≥ 1        (origination)
//
// and per G, with cost_P the cost shared by P's pieces:
//
//	Σ_{P,r} b·cost_P·ȳ ≤ T,  Σ_{P,r≠src} b·cost_P·z̄ ≤ T
//
// At a needed destination z̄ = 1 turns the relay row into the bound
// ȳ ≤ n−1, and a source's z̄ is 0, so neither row is built, nor is the
// ingress row of a G that only sources. Under the discrete partition
// (every piece and GPU its own class) every count is 0 or 1 and this is
// the per-(piece, GPU) LP without those bound-implied rows.
func flowProblem(d *Demand, cost []float64, maxRows int) (*lp.Problem, int, error) {
	n := d.NumGPUs
	var active []int
	for pi, p := range d.Pieces {
		if len(p.Dsts) > 0 {
			active = append(active, pi)
		}
	}
	if len(active) == 0 {
		return nil, 0, nil
	}
	if len(active)*(n+2)+2*n > maxRows {
		return nil, 0, errFlowUnavailable
	}
	q := flowPartition(d, active, cost)
	np, ng := q.numPieceClasses, q.numGPUClasses

	// cnt[(P·ng+G)·numRoles+r] counts the (piece, GPU) pairs of the
	// class cell in role r; dividing by |P| or |G| gives a or b exactly.
	cnt := make([]int, np*ng*numRoles)
	psize := make([]int, np)
	gsize := make([]int, ng)
	pcost := make([]float64, np)
	for k, pc := range q.pieceClass {
		psize[pc]++
		pcost[pc] = cost[active[k]]
		for i, gc := range q.gpuClass {
			cnt[(pc*ng+gc)*numRoles+int(q.role[k*n+i])]++
		}
	}
	for _, gc := range q.gpuClass {
		gsize[gc]++
	}

	// ȳ of cell c is variable yv[c]; its z̄ is yv[c]+width[P].
	yv := make([]int, len(cnt))
	width := make([]int, np)
	nv := 0
	for pc := 0; pc < np; pc++ {
		start := nv
		for c := pc * ng * numRoles; c < (pc+1)*ng*numRoles; c++ {
			if cnt[c] > 0 {
				yv[c] = nv
				nv++
			}
		}
		width[pc] = nv - start
		nv += width[pc]
	}
	tVar := nv
	prob := lp.NewProblem(tVar + 1)
	prob.SetObjective(tVar, 1)
	rows := 0
	add := func(terms []lp.Term, op lp.Op, rhs float64) {
		prob.AddConstraint(terms, op, rhs)
		rows++
	}
	// AddConstraint copies its terms, so one buffer serves every row.
	terms := make([]lp.Term, 0, 2*max(ng, np)*numRoles+1)

	for pc := 0; pc < np; pc++ {
		cells := cnt[pc*ng*numRoles : (pc+1)*ng*numRoles]
		for c, m := range cells {
			if m == 0 {
				continue
			}
			y := yv[pc*ng*numRoles+c]
			z := y + width[pc]
			prob.SetBounds(y, 0, float64(n-1))
			switch c % numRoles {
			case roleSrc:
				prob.SetBounds(z, 0, 0)
			case roleNeed:
				prob.SetBounds(z, 1, 1)
			default:
				prob.SetBounds(z, 0, 1)
				add(append(terms[:0],
					lp.Term{Var: y, Coeff: 1},
					lp.Term{Var: z, Coeff: -float64(n - 1)}), lp.LE, 0)
			}
		}
		terms = terms[:0]
		for c, m := range cells {
			if m > 0 {
				a := float64(m / psize[pc])
				y := yv[pc*ng*numRoles+c]
				terms = append(terms, lp.Term{Var: y + width[pc], Coeff: a}, lp.Term{Var: y, Coeff: -a})
			}
		}
		add(terms, lp.EQ, 0)
		terms = terms[:0]
		for c := roleSrc; c < len(cells); c += numRoles {
			if m := cells[c]; m > 0 {
				terms = append(terms, lp.Term{Var: yv[pc*ng*numRoles+c], Coeff: float64(m / psize[pc])})
			}
		}
		add(terms, lp.GE, 1)
	}

	ingress := make([]lp.Term, 0, np*numRoles+1)
	for gc := 0; gc < ng; gc++ {
		terms, ingress = terms[:0], ingress[:0]
		for pc := 0; pc < np; pc++ {
			for r := 0; r < numRoles; r++ {
				c := (pc*ng+gc)*numRoles + r
				if cnt[c] == 0 {
					continue
				}
				w := float64(cnt[c]/gsize[gc]) * pcost[pc]
				terms = append(terms, lp.Term{Var: yv[c], Coeff: w})
				if r != roleSrc {
					ingress = append(ingress, lp.Term{Var: yv[c] + width[pc], Coeff: w})
				}
			}
		}
		add(append(terms, lp.Term{Var: tVar, Coeff: -1}), lp.LE, 0)
		if len(ingress) > 0 {
			add(append(ingress, lp.Term{Var: tVar, Coeff: -1}), lp.LE, 0)
		}
	}
	return prob, rows, nil
}

// Roles of an (active piece, GPU) pair in the flow LP. A GPU listed as
// both source and destination of a piece is a source.
const (
	roleOther = iota
	roleSrc
	roleNeed
	numRoles
)

// flowQuotient is the coarsest equitable partition of a demand's active
// piece × GPU incidence, found by colour refinement: pieces in one class
// share their cost and, for every GPU class and role, how many of their
// pairs fall there; GPUs in one class share, for every piece class and
// role, how many of their pairs fall there. Classes are numbered in
// first-occurrence order, so the same demand always yields the same ids.
type flowQuotient struct {
	role                           []uint8 // role[k·n+i] of active piece k at GPU i
	pieceClass                     []int   // class of each active piece
	gpuClass                       []int   // class of each GPU
	numPieceClasses, numGPUClasses int
}

// flowPartition refines pieces (initially coloured by exact cost) and
// GPUs (initially one colour) against each other until neither class
// count grows.
func flowPartition(d *Demand, active []int, cost []float64) flowQuotient {
	n, np := d.NumGPUs, len(active)
	q := flowQuotient{
		role:       make([]uint8, np*n),
		pieceClass: make([]int, np),
		gpuClass:   make([]int, n),
	}
	for k, pi := range active {
		row := q.role[k*n : (k+1)*n]
		for _, t := range d.Pieces[pi].Dsts {
			row[t] = roleNeed
		}
		for _, s := range d.Pieces[pi].Srcs {
			row[s] = roleSrc
		}
	}
	side := max(np, n)
	r := refiner{
		role: q.role,
		sig:  make([]int32, 2*np*n),
		hash: make([]uint64, side),
		reps: make([]int, 0, side),
		next: make([]int, side),
	}
	for k, pi := range active {
		c := 0
		for c < len(r.reps) && cost[active[r.reps[c]]] != cost[pi] {
			c++
		}
		if c == len(r.reps) {
			r.reps = append(r.reps, k)
		}
		q.pieceClass[k] = c
	}
	q.numPieceClasses, q.numGPUClasses = len(r.reps), 1
	for {
		// Pieces are items over GPUs (role[k·n+i]); GPUs over pieces.
		np2 := r.refine(q.pieceClass, q.gpuClass, q.numGPUClasses, n, 1)
		ng2 := r.refine(q.gpuClass, q.pieceClass, np2, 1, n)
		if np2 == q.numPieceClasses && ng2 == q.numGPUClasses {
			return q
		}
		q.numPieceClasses, q.numGPUClasses = np2, ng2
	}
}

// refiner holds flowPartition's scratch, reused by every round.
type refiner struct {
	role []uint8
	sig  []int32  // per item, source and need counts per other-side class
	hash []uint64 // per item, a hash of its colour and signature
	reps []int    // first item of each new class
	next []int    // new class of each item
}

// refine splits the classes col of one side of the incidence: an item's
// signature is its colour plus, per class of the other side (coloured
// by other, numOther classes), the count of its source and of its need
// pairs there — the rest are the class size minus those. The pair of
// item x and other-side item y is role[x·xs+y·ys]. Items with equal
// signatures share a class, numbered in first-occurrence order; refine
// overwrites col and returns the class count.
func (r *refiner) refine(col, other []int, numOther, xs, ys int) int {
	width := 2 * numOther
	sig := r.sig[:len(col)*width]
	clear(sig)
	for x := range col {
		row := sig[x*width : (x+1)*width]
		for y, c := range other {
			if ro := r.role[x*xs+y*ys]; ro != roleOther {
				row[2*c+int(ro)-1]++
			}
		}
		h := uint64(col[x]) + 1
		for _, v := range row {
			h = (h ^ uint64(v)) * 1099511628211
		}
		r.hash[x] = h
	}
	reps := r.reps[:0]
	for x := range col {
		c := 0
		for ; c < len(reps); c++ {
			y := reps[c]
			if r.hash[y] == r.hash[x] && col[y] == col[x] &&
				slices.Equal(sig[y*width:(y+1)*width], sig[x*width:(x+1)*width]) {
				break
			}
		}
		if c == len(reps) {
			reps = append(reps, x)
		}
		r.next[x] = c
	}
	copy(col, r.next[:len(col)])
	r.reps = reps
	return len(reps)
}

// FlowEpochBound returns a lower bound on the epoch makespan of any
// schedule for d at epoch duration tau, never below the closed-form
// lowerBoundEpochs. The second result is the simplex pivots spent. On
// error the closed-form bound is still returned and remains valid.
func FlowEpochBound(ctx context.Context, d *Demand, tau float64) (int, int, error) {
	base := lowerBoundEpochs(d, tau)
	cost := make([]float64, len(d.Pieces))
	slack := math.MaxInt32
	activeDeliveries := false
	for pi, p := range d.Pieces {
		ep := paramsFor(d, tau, p.Bytes)
		cost[pi] = float64(ep.span)
		if len(p.Dsts) > 0 {
			activeDeliveries = true
			if s := ep.lat - ep.span; s < slack {
				slack = s
			}
		}
	}
	if !activeDeliveries {
		// Nothing to deliver: the empty schedule (makespan 0) is
		// feasible, so the closed-form floor of 1 would be unsound.
		return 0, 0, nil
	}
	tStar, pivots, err := flowLP(ctx, d, cost, flowLPMaxRows)
	if err != nil {
		return base, pivots, err
	}
	// The port-work bound counts span epochs; the final transfer to
	// arrive additionally pays its latency tail lat − span, and slack is
	// the smallest such tail among deliverable pieces.
	lb := int(math.Ceil(tStar-1e-6)) + slack
	if lb < base {
		lb = base
	}
	return lb, pivots, nil
}

// FlowTimeBound returns a lower bound, in seconds, on the α-β-simulated
// completion time of any schedule satisfying d. It is independent of
// epoch discretization: under the simulator's port model a transfer of b
// bytes occupies both ports for β·b and arrives α later than its port
// slot drains, so LP port work in β·b units plus one α tail bounds every
// schedule. The second result is the simplex pivots spent.
func FlowTimeBound(ctx context.Context, d *Demand) (float64, int, error) {
	cost := make([]float64, len(d.Pieces))
	maxLat := 0.0
	for pi, p := range d.Pieces {
		cost[pi] = d.Beta * p.Bytes
		if len(p.Dsts) > 0 {
			if l := d.Alpha + d.Beta*p.Bytes; l > maxLat {
				maxLat = l
			}
		}
	}
	if maxLat == 0 {
		return 0, 0, nil // nothing to deliver: empty schedule is feasible
	}
	tStar, pivots, err := flowLP(ctx, d, cost, flowBoundMaxRows)
	if err != nil {
		return 0, pivots, err
	}
	sec := tStar + d.Alpha
	if maxLat > sec {
		sec = maxLat
	}
	return sec, pivots, nil
}
