package solve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/lp"
	"syccl/internal/verify"
)

// demandFromCollective flattens a collective into a single-group demand:
// one piece per chunk, sources from placement, destinations excluding
// any GPU that already holds the chunk.
func demandFromCollective(col *collective.Collective, alpha, beta float64) *Demand {
	d := &Demand{NumGPUs: col.NumGPUs, Alpha: alpha, Beta: beta}
	for _, c := range col.Chunks {
		p := Piece{ID: c.ID, Bytes: col.ChunkSize, Srcs: []int{c.Src}}
		for _, dst := range c.Dsts {
			if dst != c.Src {
				p.Dsts = append(p.Dsts, dst)
			}
		}
		d.Pieces = append(d.Pieces, p)
	}
	return d
}

// randomDemand builds an arbitrary small demand: random piece count,
// sizes, source sets, and destination sets — shapes no collective
// constructor produces.
func randomDemand(rng *rand.Rand) *Demand {
	n := 2 + rng.Intn(4)
	d := &Demand{NumGPUs: n, Alpha: float64(rng.Intn(3)) * 1e-6, Beta: 1e-9 * (1 + rng.Float64())}
	pieces := 1 + rng.Intn(3)
	for pi := 0; pi < pieces; pi++ {
		p := Piece{ID: pi, Bytes: float64(1+rng.Intn(4)) * 1024}
		perm := rng.Perm(n)
		srcs := 1 + rng.Intn(n-1)
		p.Srcs = append(p.Srcs, perm[:srcs]...)
		for _, g := range perm[srcs:] {
			if rng.Intn(3) > 0 {
				p.Dsts = append(p.Dsts, g)
			}
		}
		d.Pieces = append(d.Pieces, p)
	}
	return d
}

// TestFlowBoundSoundDifferential is the randomized differential suite:
// on ≥200 instances drawn from the verify collective generators and a
// raw demand generator, the flow lower bounds must never exceed the
// exact engine's result (which upper-bounds the true optimum whenever
// the bound holds, and equals it when the engine proves optimality).
func TestFlowBoundSoundDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := 0
	for cases < 260 {
		var d *Demand
		if cases%2 == 0 {
			kind := verify.AllKinds[rng.Intn(len(verify.AllKinds))]
			n := 2 + rng.Intn(4)
			col := verify.RandomCollective(rng, kind, n)
			d = demandFromCollective(col, float64(rng.Intn(2))*1e-6, 1e-9)
		} else {
			d = randomDemand(rng)
		}
		if d.Validate() != nil {
			continue
		}
		deliveries := 0
		for _, p := range d.Pieces {
			deliveries += len(p.Dsts)
		}
		if deliveries == 0 {
			continue
		}
		cases++
		opts := Options{E: []float64{0.5, 1, 3}[rng.Intn(3)]}.withDefaults()
		tau := opts.TauFor(d)

		exact, err := exactSolve(context.Background(), d, tau, opts)
		if errors.Is(err, errTooLarge) {
			exact = nil
		} else if err != nil {
			t.Fatalf("case %d: exactSolve: %v", cases, err)
		}

		flb, _, err := FlowEpochBound(context.Background(), d, tau)
		if err != nil {
			t.Fatalf("case %d: FlowEpochBound: %v", cases, err)
		}
		sec, _, err := FlowTimeBound(context.Background(), d)
		if err != nil {
			t.Fatalf("case %d: FlowTimeBound: %v", cases, err)
		}
		if exact != nil {
			if flb > exact.Epochs {
				t.Fatalf("case %d: flow epoch bound %d exceeds exact makespan %d (demand %+v, tau %g)",
					cases, flb, exact.Epochs, d, tau)
			}
			if limit := float64(exact.Epochs) * tau; sec > limit*(1+1e-9) {
				t.Fatalf("case %d: flow time bound %g exceeds exact makespan %g s", cases, sec, limit)
			}
		}
	}
}

func TestFlowBoundNeverBelowClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		d := randomDemand(rng)
		if d.Validate() != nil {
			continue
		}
		deliveries := 0
		for _, p := range d.Pieces {
			deliveries += len(p.Dsts)
		}
		if deliveries == 0 {
			continue // empty demands legitimately bound below the closed form's floor of 1
		}
		tau := Options{E: 1}.withDefaults().TauFor(d)
		flb, _, err := FlowEpochBound(context.Background(), d, tau)
		if err != nil {
			t.Fatal(err)
		}
		if base := lowerBoundEpochs(d, tau); flb < base {
			t.Fatalf("flow bound %d below closed-form bound %d", flb, base)
		}
	}
}

// TestFlowBoundTightAllGather checks the bound is not vacuous: on an
// AllGather demand the busiest ingress must receive n−1 pieces, so the
// flow bound has to reach the exact optimum and prove it without any
// MILP (the greedy rotation already achieves the bound).
func TestFlowBoundTightAllGather(t *testing.T) {
	d := allGatherDemand(6)
	opts := Options{E: 1}.withDefaults()
	tau := opts.TauFor(d)
	exact, err := exactSolve(context.Background(), d, tau, opts)
	if err != nil {
		t.Fatal(err)
	}
	flb, pivots, err := FlowEpochBound(context.Background(), d, tau)
	if err != nil {
		t.Fatal(err)
	}
	if pivots <= 0 {
		t.Fatalf("expected LP work, got %d pivots", pivots)
	}
	if flb != exact.Epochs {
		t.Fatalf("flow bound %d, exact optimum %d — bound should be tight on AllGather", flb, exact.Epochs)
	}
}

func TestFlowBoundCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := allGatherDemand(6)
	tau := Options{E: 1}.withDefaults().TauFor(d)
	flb, _, err := FlowEpochBound(ctx, d, tau)
	if err == nil {
		t.Fatal("expected error from cancelled bound")
	}
	if base := lowerBoundEpochs(d, tau); flb != base {
		t.Fatalf("cancelled bound = %d, want closed-form fallback %d", flb, base)
	}
}

func TestTooLargeErrorDetail(t *testing.T) {
	d := allGatherDemand(8)
	d.Pieces[0].Bytes = 2 // defeat the rotation fast path
	opts := Options{E: 1}.withDefaults()
	_, err := exactSolve(context.Background(), d, opts.TauFor(d), opts)
	if !errors.Is(err, errTooLarge) {
		t.Fatalf("want errTooLarge match, got %v", err)
	}
	var tle *TooLargeError
	if !errors.As(err, &tle) {
		t.Fatalf("want *TooLargeError, got %T", err)
	}
	if tle.Binaries <= tle.Gate || tle.Gate != maxBinaries {
		t.Fatalf("uninformative detail: %+v", tle)
	}
	for _, frag := range []string{"binaries", "448", "384"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q missing %q", err.Error(), frag)
		}
	}
}

// FuzzFlowBound checks, on fuzz-generated demands, that the greedy
// schedule is feasible and that the flow lower bound never exceeds its
// makespan — a bound above a feasible schedule would be unsound.
func FuzzFlowBound(f *testing.F) {
	for _, seed := range []int64{1, 2, 7, 1234, 99999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		d := randomDemand(rng)
		if d.Validate() != nil {
			t.Skip()
		}
		tau := Options{E: 1}.withDefaults().TauFor(d)
		s := greedySolve(d, tau)
		if err := CheckSolution(d, s); err != nil {
			t.Fatalf("greedy schedule invalid: %v (demand %+v)", err, d)
		}
		flb, _, err := FlowEpochBound(context.Background(), d, tau)
		if err != nil {
			t.Skip() // iteration-limited LP: no bound to compare
		}
		if flb > s.Epochs {
			t.Fatalf("flow bound %d exceeds greedy makespan %d (demand %+v)", flb, s.Epochs, d)
		}
	})
}

// flowProblemReference is the relaxation flowProblem replaced, kept
// verbatim as the independent oracle for the quotient: one y/z variable
// pair per (active piece, GPU) pair, one receive-before-send row per
// non-source pair, two flow rows per piece and two port rows per GPU. A
// nil problem means nothing is active.
func flowProblemReference(d *Demand, cost []float64, maxRows int) (*lp.Problem, error) {
	n := d.NumGPUs
	// Active pieces: those with at least one needed destination.
	var active []int
	for pi, p := range d.Pieces {
		if len(p.Dsts) > 0 {
			active = append(active, pi)
		}
	}
	if len(active) == 0 {
		return nil, nil
	}
	if len(active)*(n+2)+2*n > maxRows {
		return nil, errFlowUnavailable
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

	return prob, nil
}

// flowLPReference solves flowProblemReference to optimality, without
// flowLP's pivot-work budget: the full LP of the largest gated shapes
// (AlltoAll on 8 GPUs in the epoch domain) runs out of that budget,
// where its quotient solves in a few pivots.
func flowLPReference(d *Demand, cost []float64, maxRows int) (float64, error) {
	prob, err := flowProblemReference(d, cost, maxRows)
	if err != nil || prob == nil {
		return 0, err
	}
	sol, err := prob.Solve()
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.StatusOptimal {
		return 0, errFlowUnavailable
	}
	return sol.Objective, nil
}

// flowEpochBoundReference is FlowEpochBound on flowLPReference.
func flowEpochBoundReference(d *Demand, tau float64) (int, error) {
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
		return 0, nil
	}
	tStar, err := flowLPReference(d, cost, flowLPMaxRows)
	if err != nil {
		return base, err
	}
	lb := int(math.Ceil(tStar-1e-6)) + slack
	if lb < base {
		lb = base
	}
	return lb, nil
}

// mergedDemand merges 2–3 symmetric collectives with different chunk
// sizes into one demand, as the pipeline merges the sub-demands of one
// group and stage: the quotient then has several piece classes that
// share GPU classes.
func mergedDemand(rng *rand.Rand, n int) *Demand {
	d := &Demand{NumGPUs: n, Alpha: 1e-6, Beta: 1e-9}
	shapes := 2 + rng.Intn(2)
	for s := 0; s < shapes; s++ {
		kind := verify.AllKinds[rng.Intn(len(verify.AllKinds))]
		part := demandFromCollective(verify.RandomCollective(rng, kind, n), d.Alpha, d.Beta)
		for _, p := range part.Pieces {
			p.ID = len(d.Pieces)
			d.Pieces = append(d.Pieces, p)
		}
	}
	return d
}

// flowOracleDemand draws a demand for the quotient oracle: a raw random
// demand, a collective on up to 8 GPUs, or a merged cell, in turn.
func flowOracleDemand(rng *rand.Rand, i int) *Demand {
	switch i % 3 {
	case 0:
		return randomDemand(rng)
	case 1:
		kind := verify.AllKinds[rng.Intn(len(verify.AllKinds))]
		return demandFromCollective(verify.RandomCollective(rng, kind, 2+rng.Intn(7)), 1e-6, 1e-9)
	default:
		return mergedDemand(rng, 2+rng.Intn(5))
	}
}

// checkFlowQuotient holds flowLP to flowLPReference on d: in the seconds
// domain (FlowTimeBound's costs and gate) the same status and T* within
// 1e-9 relative, and in the epoch domain the same FlowEpochBound.
func checkFlowQuotient(t *testing.T, d *Demand) {
	t.Helper()
	ctx := context.Background()
	cost := make([]float64, len(d.Pieces))
	for pi, p := range d.Pieces {
		cost[pi] = d.Beta * p.Bytes
	}
	got, _, gerr := flowLP(ctx, d, cost, flowBoundMaxRows)
	want, werr := flowLPReference(d, cost, flowBoundMaxRows)
	if gerr != werr {
		t.Fatalf("status: quotient %v, reference %v (demand %+v)", gerr, werr, d)
	}
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("T*: quotient %.17g, reference %.17g (demand %+v)", got, want, d)
	}
	tau := Options{E: 1}.withDefaults().TauFor(d)
	lb, _, gerr := FlowEpochBound(ctx, d, tau)
	ref, werr := flowEpochBoundReference(d, tau)
	if gerr != werr || lb != ref {
		t.Fatalf("FlowEpochBound: quotient %d (%v), reference %d (%v) (demand %+v)", lb, gerr, ref, werr, d)
	}
}

// TestFlowQuotientMatchesReference holds the quotient LP to the
// per-(piece, GPU) reference on random demands, on every collective kind
// for n = 2…8, and on merged cells.
func TestFlowQuotientMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, kind := range verify.AllKinds {
		for n := 2; n <= 8; n++ {
			checkFlowQuotient(t, demandFromCollective(verify.RandomCollective(rng, kind, n), 1e-6, 1e-9))
		}
	}
	for i := 0; i < 300; i++ {
		if d := flowOracleDemand(rng, i); d.Validate() == nil {
			checkFlowQuotient(t, d)
		}
	}
}

// FuzzFlowQuotient is TestFlowQuotientMatchesReference's oracle on
// fuzz-drawn demands.
func FuzzFlowQuotient(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 35, 1234} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		d := flowOracleDemand(rng, int(uint64(seed)%3))
		if d.Validate() != nil {
			t.Skip()
		}
		checkFlowQuotient(t, d)
	})
}

// TestFlowBoundClosedForms checks FlowTimeBound against the closed forms
// of uniform-group collectives for n = 2…8 — every GPU receives n−1
// chunks in AllGather and AlltoAll, the root sends n−1 in Scatter, and a
// broadcast costs one hop — and pins that the quotient uses the
// symmetry: at most 7 LP variables, whatever n.
func TestFlowBoundClosedForms(t *testing.T) {
	const alpha, beta, b = 2e-6, 1e-10, 1 << 20
	ctx := context.Background()
	for n := 2; n <= 8; n++ {
		for _, tc := range []struct {
			col  *collective.Collective
			hops int
		}{
			{collective.AllGather(n, b), n - 1},
			{collective.Scatter(n, n/2, b), n - 1},
			{collective.AlltoAll(n, b), n - 1},
			{collective.Broadcast(n, n-1, b), 1},
		} {
			d := demandFromCollective(tc.col, alpha, beta)
			name := fmt.Sprintf("%v/n=%d", tc.col.Kind, n)
			got, _, err := FlowTimeBound(ctx, d)
			if tc.col.Kind == collective.KindAlltoAll && n > 6 {
				// Gated on the unreduced size: n(n−1)·(n+2)+2n > 256.
				if !errors.Is(err, errFlowUnavailable) {
					t.Fatalf("%s: err %v, want errFlowUnavailable", name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := alpha + float64(tc.hops)*beta*b
			if math.Abs(got-want) > 1e-12*want {
				t.Fatalf("%s: FlowTimeBound %.17g, want %.17g", name, got, want)
			}
			cost := make([]float64, len(d.Pieces))
			for pi, p := range d.Pieces {
				cost[pi] = beta * p.Bytes
			}
			prob, _, err := flowProblem(d, cost, flowBoundMaxRows)
			if err != nil {
				t.Fatal(err)
			}
			if v := prob.NumVars(); v > 7 {
				t.Fatalf("%s: quotient LP has %d variables, want ≤ 7", name, v)
			}
		}
	}
}

// TestFlowPartitionEquitable checks the partition flowLP solves on: in
// every piece class the pieces share their cost and their count of each
// (GPU class, role); in every GPU class the GPUs share their count of
// each (piece class, role); ids are numbered in first-occurrence order
// and the same demand always yields the same ids.
func TestFlowPartitionEquitable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		d := flowOracleDemand(rng, i)
		if d.Validate() != nil {
			continue
		}
		var active []int
		cost := make([]float64, len(d.Pieces))
		for pi, p := range d.Pieces {
			cost[pi] = d.Beta * p.Bytes
			if len(p.Dsts) > 0 {
				active = append(active, pi)
			}
		}
		if len(active) == 0 {
			continue
		}
		n := d.NumGPUs
		q := flowPartition(d, active, cost)
		np, ng := q.numPieceClasses, q.numGPUClasses
		firstOccurrence(t, q.pieceClass, np)
		firstOccurrence(t, q.gpuClass, ng)

		// Per piece: count of each (GPU class, role); per GPU: of each
		// (piece class, role). Roles come from the demand, not q.role.
		role := func(k, i int) int {
			p := d.Pieces[active[k]]
			switch {
			case slices.Contains(p.Srcs, i):
				return roleSrc
			case slices.Contains(p.Dsts, i):
				return roleNeed
			}
			return roleOther
		}
		pieceSig := make([][]int, len(active))
		for k := range active {
			pieceSig[k] = make([]int, ng*numRoles)
			for i := 0; i < n; i++ {
				pieceSig[k][q.gpuClass[i]*numRoles+role(k, i)]++
			}
		}
		gpuSig := make([][]int, n)
		for i := 0; i < n; i++ {
			gpuSig[i] = make([]int, np*numRoles)
			for k := range active {
				gpuSig[i][q.pieceClass[k]*numRoles+role(k, i)]++
			}
		}
		for k := range active {
			for l := 0; l < k; l++ {
				if q.pieceClass[k] != q.pieceClass[l] {
					continue
				}
				if cost[active[k]] != cost[active[l]] || !slices.Equal(pieceSig[k], pieceSig[l]) {
					t.Fatalf("case %d: pieces %d and %d share class %d but differ (demand %+v)", i, l, k, q.pieceClass[k], d)
				}
			}
		}
		for g := 0; g < n; g++ {
			for h := 0; h < g; h++ {
				if q.gpuClass[g] == q.gpuClass[h] && !slices.Equal(gpuSig[g], gpuSig[h]) {
					t.Fatalf("case %d: GPUs %d and %d share class %d but differ (demand %+v)", i, h, g, q.gpuClass[g], d)
				}
			}
		}
		again := flowPartition(d, active, cost)
		if !slices.Equal(again.pieceClass, q.pieceClass) || !slices.Equal(again.gpuClass, q.gpuClass) {
			t.Fatalf("case %d: partition not deterministic", i)
		}
	}
}

// firstOccurrence fails unless ids uses exactly 0..count−1, each first
// appearing after every smaller id.
func firstOccurrence(t *testing.T, ids []int, count int) {
	t.Helper()
	next := 0
	for _, c := range ids {
		if c > next || c < 0 {
			t.Fatalf("class ids %v not in first-occurrence order", ids)
		}
		if c == next {
			next++
		}
	}
	if next != count {
		t.Fatalf("class ids %v use %d classes, reported %d", ids, next, count)
	}
}
