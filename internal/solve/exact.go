package solve

import (
	"context"
	"errors"
	"fmt"

	"syccl/internal/lp"
	"syccl/internal/milp"
	"syccl/internal/obs"
)

// errTooLarge signals that the time-expanded MILP would exceed the size
// budget; EngineAuto falls back to greedy. Match with errors.Is —
// the concrete error is a TooLargeError carrying the counts.
var errTooLarge = errors.New("solve: MILP instance exceeds size budget")

// TooLargeError reports an instance rejected at the exact engine's size
// gate, with enough detail to act on: the binary-variable count the
// time-expanded MILP would need and the gate it exceeded.
// errors.Is(err, TooLargeError{...}) matches errTooLarge so existing
// sentinel checks keep working.
type TooLargeError struct {
	Binaries int // time-expanded binary variables the instance needs
	Gate     int // the size gate in effect
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("solve: MILP instance needs %d binaries, over the size gate %d (EngineAuto solves it greedily)",
		e.Binaries, e.Gate)
}

// Is makes errors.Is(err, errTooLarge) succeed on the detailed error.
func (e *TooLargeError) Is(target error) bool { return target == errTooLarge }

// maxBinaries caps the exact MILP's binary-variable count. Together with
// the per-solve node and simplex-pivot budgets below it is the
// deterministic effort bound of the exact engine; the caller's context
// is the only wall-clock cut.
const maxBinaries = 384

// horizonNodeBudget caps the branch-and-bound nodes spent proving one
// fixed-horizon MILP; totalNodeBudget and totalPivotBudget cap the
// nodes and simplex pivots spent across the whole horizon loop of one
// exact solve. The totals stand where a wall-clock limit would: they
// truncate pathological instances — many horizons each burning the
// node cap, or few nodes with enormous degenerate relaxations — at the
// same point regardless of machine load, so schedules stay
// reproducible; the caller's context is the only wall-clock cut. The
// pivot budget tracks actual work (a 384-binary relaxation can cost
// a thousand times more per node than a small one); the node budget
// backstops nodes that cost next to no pivots (a child whose bound box
// branching emptied costs none).
const (
	horizonNodeBudget = 4000
	totalNodeBudget   = 6 * horizonNodeBudget
	totalPivotBudget  = 20000
)

// exactSolve finds the minimum-epoch schedule by solving fixed-horizon
// feasibility MILPs for growing horizons T, starting at the lower bound
// (Appendix A.1: "the minimum number of epochs required to satisfy the
// sub-demand"). The greedy schedule is the upper bound on T and the
// answer when no shorter horizon is feasible (or provable within budget);
// the MILPs themselves start without an incumbent.
func exactSolve(ctx context.Context, d *Demand, tau float64, opts Options) (*SubSchedule, error) {
	// Size gate BEFORE any expensive work: the time-expanded variable
	// count at the smallest useful horizon already tells us whether the
	// instance is tractable.
	lb := lowerBoundEpochs(d, tau)
	estVars := 0
	for range d.Pieces {
		estVars += d.NumGPUs * (d.NumGPUs - 1)
	}
	if estVars > maxBinaries {
		return nil, &TooLargeError{Binaries: estVars, Gate: maxBinaries}
	}
	if estVars*lb > 8*maxBinaries {
		// The time expansion (estVars per epoch over ≥lb epochs) is
		// what blows the budget, not the single-epoch count.
		return nil, &TooLargeError{Binaries: estVars * lb, Gate: 8 * maxBinaries}
	}

	sp := opts.Span.Child("solve.exact")
	defer func() {
		// The floor the search ended with, flow bound included.
		sp.SetInt("lower-bound", int64(lb))
		sp.End()
	}()
	sp.Count("solve.exact", 1)

	greedy := greedySolve(d, tau)
	if greedy.Epochs <= lb {
		// Greedy meets the closed-form bound: optimal, no LP, no MILP.
		sp.Count("solve.exact.bound_proved", 1)
		g := *greedy
		g.Engine = "exact"
		return &g, nil
	}

	// Tighten the horizon-search floor with the flow-relaxation bound:
	// every horizon below it is infeasible, so the loop skips the MILPs
	// that would only prove infeasibility (and burn node budget doing
	// it). When the bound meets the greedy makespan, optimality is
	// proved with no MILP built at all.
	if flb, pivots, err := FlowEpochBound(ctx, d, tau); err == nil {
		sp.Count("lp.pivots", float64(pivots))
		if flb > lb {
			sp.Count("solve.exact.horizons_skipped", float64(flb-lb))
			sp.SetInt("flow-bound", int64(flb))
			lb = flb
		}
		if greedy.Epochs <= lb {
			sp.Count("solve.exact.flow_proved", 1)
			g := *greedy
			g.Engine = "exact"
			return &g, nil
		}
	}

	best := greedy
	nodesLeft, pivotsLeft := totalNodeBudget, totalPivotBudget
	for T := lb; T < greedy.Epochs && nodesLeft > 0 && pivotsLeft > 0; T++ {
		// Cancellation stops refining and returns the greedy incumbent
		// (anytime semantics).
		if ctx.Err() != nil {
			break
		}
		maxNodes := horizonNodeBudget
		if nodesLeft < maxNodes {
			maxNodes = nodesLeft
		}
		sched, nodes, pivots, err := solveHorizon(ctx, d, tau, T, maxBinaries, maxNodes, pivotsLeft, sp)
		nodesLeft -= nodes
		pivotsLeft -= pivots
		if err != nil {
			return nil, err
		}
		if sched != nil {
			best = sched
			break
		}
	}
	out := *best
	out.Engine = "exact"
	return &out, nil
}

// solveHorizon builds and solves the fixed-horizon MILP. It returns a
// nil schedule (no error) when the horizon is infeasible or unproven
// within the node/pivot budget, plus the branch-and-bound nodes spent so
// the caller can charge them against its total budget. A MILP that is
// built gets a "milp.horizon" child of parent (nil-safe) with its size,
// node count, and simplex pivot totals; one rejected at the size gate
// or owed nothing to solve gets none.
func solveHorizon(ctx context.Context, d *Demand, tau float64, T, maxBinaries, maxNodes, maxPivots int, parent *obs.Span) (*SubSchedule, int, int, error) {
	n := d.NumGPUs
	type key struct{ p, i, j, t int }
	varOf := make(map[key]int)
	var keys []key

	eps := make([]epochParams, len(d.Pieces))
	for pi, p := range d.Pieces {
		eps[pi] = paramsFor(d, tau, p.Bytes)
		last := T - eps[pi].lat
		init := make([]bool, n)
		for _, s := range p.Srcs {
			init[s] = true
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || init[j] {
					continue
				}
				for t := 0; t <= last; t++ {
					k := key{pi, i, j, t}
					varOf[k] = len(keys)
					keys = append(keys, k)
				}
			}
		}
	}
	if len(keys) == 0 {
		// No send fits the horizon: feasible only when nothing is owed.
		if deliveryCount(d) > 0 {
			return nil, 0, 0, nil
		}
		return &SubSchedule{Tau: tau, Epochs: 0, Engine: "exact"}, 0, 0, nil
	}
	if len(keys) > maxBinaries {
		return nil, 0, 0, &TooLargeError{Binaries: len(keys), Gate: maxBinaries}
	}
	sp := parent.Child("milp.horizon")
	sp.SetInt("T", int64(T))
	defer sp.End()

	prob := milp.NewProblem(len(keys))
	for v := range keys {
		prob.SetBinary(v)
		// Minimize total sends with a slight early-start preference.
		prob.LP.SetObjective(v, 1+float64(keys[v].t)*0.001/float64(T+1))
	}

	// Delivery: each needed (piece, dst) receives exactly once; every
	// other GPU at most once (no duplicate arrivals).
	for pi, p := range d.Pieces {
		need := make([]bool, n)
		for _, t := range p.Dsts {
			need[t] = true
		}
		init := make([]bool, n)
		for _, s := range p.Srcs {
			init[s] = true
		}
		for j := 0; j < n; j++ {
			if init[j] {
				continue
			}
			var terms []lp.Term
			for i := 0; i < n; i++ {
				if i == j {
					continue
				}
				for t := 0; t <= T-eps[pi].lat; t++ {
					if v, ok := varOf[key{pi, i, j, t}]; ok {
						terms = append(terms, lp.Term{Var: v, Coeff: 1})
					}
				}
			}
			if len(terms) == 0 {
				if need[j] {
					return nil, 0, 0, nil // horizon too short to deliver at all
				}
				continue
			}
			if need[j] {
				prob.LP.AddConstraint(terms, lp.EQ, 1)
			} else {
				prob.LP.AddConstraint(terms, lp.LE, 1)
			}
		}
	}

	// Availability: a non-initial holder i may send piece p at epoch t
	// only after an arrival by t (port exclusivity already caps the
	// per-epoch send count at one, so the ≤ form is exact).
	for pi, p := range d.Pieces {
		init := make([]bool, n)
		for _, s := range p.Srcs {
			init[s] = true
		}
		for i := 0; i < n; i++ {
			if init[i] {
				continue
			}
			for t := 0; t <= T-eps[pi].lat; t++ {
				var terms []lp.Term
				for j := 0; j < n; j++ {
					if v, ok := varOf[key{pi, i, j, t}]; ok {
						terms = append(terms, lp.Term{Var: v, Coeff: 1})
					}
				}
				if len(terms) == 0 {
					continue
				}
				for i2 := 0; i2 < n; i2++ {
					for t2 := 0; t2 <= t-eps[pi].lat; t2++ {
						if v, ok := varOf[key{pi, i2, i, t2}]; ok {
							terms = append(terms, lp.Term{Var: v, Coeff: -1})
						}
					}
				}
				prob.LP.AddConstraint(terms, lp.LE, 0)
			}
		}
	}

	// Port exclusivity: at most one active send per egress port and one
	// active receive per ingress port per epoch.
	for e := 0; e < T; e++ {
		for g := 0; g < n; g++ {
			var out, in []lp.Term
			for _, k := range keys {
				span := eps[k.p].span
				if k.t <= e && e < k.t+span {
					v := varOf[k]
					if k.i == g {
						out = append(out, lp.Term{Var: v, Coeff: 1})
					}
					if k.j == g {
						in = append(in, lp.Term{Var: v, Coeff: 1})
					}
				}
			}
			if len(out) > 1 {
				prob.LP.AddConstraint(out, lp.LE, 1)
			}
			if len(in) > 1 {
				prob.LP.AddConstraint(in, lp.LE, 1)
			}
		}
	}

	sol, err := milp.SolveCtx(ctx, prob, milp.Options{MaxNodes: maxNodes, MaxLPIters: maxPivots})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("solve: horizon %d: %w", T, err)
	}
	sp.SetInt("binaries", int64(len(keys)))
	sp.SetInt("milp.nodes", int64(sol.Nodes))
	sp.SetInt("lp.pivots", int64(sol.LPIters))
	sp.SetStr("status", sol.Status.String())
	sp.Count("milp.nodes", float64(sol.Nodes))
	sp.Count("lp.pivots", float64(sol.LPIters))
	if sol.Status != milp.StatusOptimal && sol.Status != milp.StatusFeasible {
		return nil, sol.Nodes, sol.LPIters, nil
	}

	sched := &SubSchedule{Tau: tau, Engine: "exact"}
	for v, k := range keys {
		if sol.X[v] > 0.5 {
			arrive := k.t + eps[k.p].lat
			sched.Transfers = append(sched.Transfers, Transfer{
				Src: k.i, Dst: k.j, Piece: k.p, Start: k.t, Arrive: arrive,
			})
			if arrive > sched.Epochs {
				sched.Epochs = arrive
			}
		}
	}
	pruneUnused(d, sched)
	return sched, sol.Nodes, sol.LPIters, nil
}

// pruneUnused drops transfers whose delivery is never needed: the
// destination neither demands the piece nor forwards it afterwards.
// (The MILP minimizes sends so this is usually a no-op, but time-limited
// incumbents can carry slack.)
func pruneUnused(d *Demand, s *SubSchedule) {
	need := make([]map[int]bool, len(d.Pieces))
	for pi, p := range d.Pieces {
		need[pi] = make(map[int]bool)
		for _, t := range p.Dsts {
			need[pi][t] = true
		}
	}
	for {
		forwards := make(map[[2]int]bool) // (piece, src) that sends later
		for _, t := range s.Transfers {
			forwards[[2]int{t.Piece, t.Src}] = true
		}
		kept := s.Transfers[:0]
		removed := false
		for _, t := range s.Transfers {
			if need[t.Piece][t.Dst] || forwards[[2]int{t.Piece, t.Dst}] {
				kept = append(kept, t)
			} else {
				removed = true
			}
		}
		s.Transfers = kept
		if !removed {
			break
		}
	}
	s.Epochs = 0
	for _, t := range s.Transfers {
		if t.Arrive > s.Epochs {
			s.Epochs = t.Arrive
		}
	}
}
