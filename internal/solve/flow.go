package solve

import (
	"context"
	"errors"
	"math"

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
// Two cost domains share the formulation:
//
//   - epochs (cost = span_p): FlowEpochBound adds the smallest
//     latency tail min_p(lat_p − span_p) — the last transfer to finish
//     pays lat, not span — and the closed-form lowerBoundEpochs, giving
//     exactSolve a tighter horizon-search floor;
//   - seconds (cost = β·b_p): FlowTimeBound adds the α tail, giving a
//     bound on the α-β simulated completion time that is independent of
//     any epoch discretization — what core's candidate pruning compares
//     against incumbent simulated times.

// flowPivotBudget caps simplex pivots per bound LP. The relaxation is
// tiny (≈2nP variables) and solves in tens of pivots; the cap only
// guards degenerate cycling so bounds stay deterministic and cheap.
const flowPivotBudget = 20000

// flowPivotOpBudget caps the total dense-elimination work of one
// relaxation: each pivot eliminates across a rows×cols tableau, so the
// effective pivot cap is flowPivotOpBudget/(rows·cols), never above
// flowPivotBudget. A flat pivot cap is the wrong unit — 20k pivots on a
// 320×830 tableau is seconds of arithmetic, far more than the MILP
// horizons the bound exists to skip. An LP that cannot converge within
// the work budget reports errFlowUnavailable and callers keep their
// closed-form bounds.
const flowPivotOpBudget = 100_000_000

// flowLPMaxRows gates the relaxation's constraint count (≈ P·(n+2)+2n
// for P deliverable pieces over n GPUs). The dense tableau costs
// O(rows²) per pivot, so monster merged demands — hundreds of pieces in
// one all-to-all cell — would spend more on the bound than the MILP it
// prunes. Over the gate the LP is skipped and callers keep the
// closed-form load bound, which is near-tight exactly on those shapes
// (they are port-load dominated). Every instance small enough for the
// exact engine's maxBinaries gate fits far under this cap, which is the
// one FlowEpochBound uses.
//
// FlowTimeBound runs per candidate × cell before any solving, so it gets
// the much tighter flowBoundMaxRows — milliseconds, not hundreds of
// milliseconds — and larger cells keep the closed-form load and chain
// bounds.
const (
	flowLPMaxRows    = 600
	flowBoundMaxRows = 256
)

// (Clean AllGather relaxations converge well inside the budget — a
// 16-piece/16-GPU instance needs ~177 pivots ≈ 47M element ops — so the
// cap only trips on degenerate merged cells where the simplex stalls.)
//
// errFlowUnavailable reports that the relaxation produced no usable
// bound (cancelled, iteration-limited, or numerically infeasible).
// Callers fall back to closed-form bounds; never fatal.
var errFlowUnavailable = errors.New("solve: flow relaxation unavailable")

// flowLP builds and solves the relaxation with per-piece port cost in an
// arbitrary time unit. It returns the LP optimum T* (port-work bound,
// before any latency tail) and the simplex pivots spent.
func flowLP(ctx context.Context, d *Demand, cost []float64, maxRows int) (tStar float64, pivots int, err error) {
	n := d.NumGPUs
	// Active pieces: those with at least one needed destination.
	var active []int
	for pi, p := range d.Pieces {
		if len(p.Dsts) > 0 {
			active = append(active, pi)
		}
	}
	if len(active) == 0 {
		return 0, 0, nil
	}
	if len(active)*(n+2)+2*n > maxRows {
		return 0, 0, errFlowUnavailable
	}

	// Variable layout: per active piece k, y block then z block; T last.
	yVar := func(k, i int) int { return k*2*n + i }
	zVar := func(k, i int) int { return k*2*n + n + i }
	tVar := len(active) * 2 * n
	prob := lp.NewProblem(tVar + 1)
	prob.SetObjective(tVar, 1)

	for k, pi := range active {
		p := d.Pieces[pi]
		src := make([]bool, n)
		for _, s := range p.Srcs {
			src[s] = true
		}
		need := make([]bool, n)
		for _, t := range p.Dsts {
			need[t] = true
		}
		conserve := make([]lp.Term, 0, 2*n)
		var originate []lp.Term
		for i := 0; i < n; i++ {
			prob.SetBounds(yVar(k, i), 0, float64(n-1))
			switch {
			case src[i]:
				prob.SetBounds(zVar(k, i), 0, 0)
				originate = append(originate, lp.Term{Var: yVar(k, i), Coeff: 1})
			case need[i]:
				prob.SetBounds(zVar(k, i), 1, 1)
			default:
				prob.SetBounds(zVar(k, i), 0, 1)
			}
			conserve = append(conserve,
				lp.Term{Var: zVar(k, i), Coeff: 1},
				lp.Term{Var: yVar(k, i), Coeff: -1})
			if !src[i] {
				prob.AddConstraint([]lp.Term{
					{Var: yVar(k, i), Coeff: 1},
					{Var: zVar(k, i), Coeff: -float64(n - 1)},
				}, lp.LE, 0)
			}
		}
		prob.AddConstraint(conserve, lp.EQ, 0)
		prob.AddConstraint(originate, lp.GE, 1)
	}

	for i := 0; i < n; i++ {
		egress := make([]lp.Term, 0, len(active)+1)
		ingress := make([]lp.Term, 0, len(active)+1)
		for k, pi := range active {
			egress = append(egress, lp.Term{Var: yVar(k, i), Coeff: cost[pi]})
			ingress = append(ingress, lp.Term{Var: zVar(k, i), Coeff: cost[pi]})
		}
		egress = append(egress, lp.Term{Var: tVar, Coeff: -1})
		ingress = append(ingress, lp.Term{Var: tVar, Coeff: -1})
		prob.AddConstraint(egress, lp.LE, 0)
		prob.AddConstraint(ingress, lp.LE, 0)
	}

	tab, err := lp.NewResolvableTableau(prob)
	if err != nil {
		return 0, 0, err
	}
	rows := len(active)*(n+2) + 2*n
	budget := flowPivotBudget
	if ops := rows * (tVar + 1 + rows); ops > 0 && flowPivotOpBudget/ops < budget {
		budget = flowPivotOpBudget / ops
	}
	iters := 0
	done := ctx != nil && ctx.Done() != nil
	tab.SetCancel(func() bool {
		iters += cancelCheckStride
		return iters > budget || (done && ctx.Err() != nil)
	})
	sol, err := tab.Solve()
	if err != nil {
		return 0, 0, err
	}
	if sol.Status != lp.StatusOptimal {
		return 0, sol.Iters, errFlowUnavailable
	}
	return sol.Objective, sol.Iters, nil
}

// cancelCheckStride mirrors the tableau's cancel polling interval (one
// check every 64 pivots) so the local pivot budget counts actual work.
const cancelCheckStride = 64

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
