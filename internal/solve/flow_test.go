package solve

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"syccl/internal/collective"
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
