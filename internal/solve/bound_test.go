package solve

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"syccl/internal/obs"
)

// doublingEpochs is the per-piece term lowerBoundEpochs used before the
// postal recurrence: holders at best double every span once the first
// lat has passed. Kept only as the yardstick of TestPostalDominatesDoubling.
func doublingEpochs(ep epochParams, holders, need int) int {
	rounds := 0
	for covered := holders; covered < holders+need; covered *= 2 {
		rounds++
	}
	return ep.lat + (rounds-1)*ep.span
}

// epochDemand builds a demand whose pieces have the given integral
// span at tau = 1 and a common latency tail.
func epochDemand(n, tail int) *Demand {
	return &Demand{NumGPUs: n, Alpha: float64(tail), Beta: 1}
}

// TestPostalDominatesDoubling: the recurrence is never below the
// closed form it replaced, and is strictly above it somewhere.
func TestPostalDominatesDoubling(t *testing.T) {
	strict := 0
	for span := 1; span <= 4; span++ {
		for lat := span; lat <= 4*span; lat++ {
			ep := epochParams{span: span, lat: lat}
			for holders := 1; holders <= 4; holders++ {
				for need := 1; need <= 40; need++ {
					got, old := postalEpochs(ep, holders, holders+need), doublingEpochs(ep, holders, need)
					if got < old {
						t.Fatalf("span %d lat %d holders %d need %d: postal %d < doubling %d", span, lat, holders, need, got, old)
					}
					if got > old {
						strict++
					}
				}
			}
		}
	}
	if strict == 0 {
		t.Fatal("postal bound never exceeded the doubling bound on the grid")
	}
}

// TestPostalTightOnBroadcast: for one piece owed to every other GPU the
// bound is the optimum, and greedy list scheduling attains it — so the
// exact engine proves these with no LP and no MILP.
func TestPostalTightOnBroadcast(t *testing.T) {
	for n := 2; n <= 16; n++ {
		for srcs := 1; srcs <= 3 && srcs < n; srcs++ {
			for span := 1; span <= 3; span++ {
				for lat := span; lat <= 4*span; lat++ {
					d := epochDemand(n, lat-span)
					p := Piece{Bytes: float64(span)}
					for g := 0; g < n; g++ {
						if g < srcs {
							p.Srcs = append(p.Srcs, g)
						} else {
							p.Dsts = append(p.Dsts, g)
						}
					}
					d.Pieces = []Piece{p}
					lb, s := lowerBoundEpochs(d, 1), greedySolve(d, 1)
					if lb != s.Epochs {
						t.Fatalf("n %d srcs %d span %d lat %d: bound %d, greedy %d", n, srcs, span, lat, lb, s.Epochs)
					}
				}
			}
		}
	}
}

// TestLowerBoundSoundAgainstMILP: no horizon below lowerBoundEpochs is
// feasible for the time-expanded MILP, on random small demands with
// multi-source pieces and relays available. The budgets are far above
// what these instances need, and the test insists none was exhausted, so
// a nil schedule is a proof of infeasibility.
func TestLowerBoundSoundAgainstMILP(t *testing.T) {
	const budget = 1 << 20
	rng := rand.New(rand.NewSource(23))
	horizons, abovePrevious := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(4)
		d := epochDemand(n, rng.Intn(4))
		previous := 1 // the bound as it was: doubling term + ingress load
		inLoad := make([]int, n)
		for pi, pieces := 0, 1+rng.Intn(2); pi < pieces; pi++ {
			p := Piece{ID: pi, Bytes: float64(1 + rng.Intn(2))}
			perm := rng.Perm(n)
			srcs := 1 + rng.Intn(min(2, n-1))
			p.Srcs = perm[:srcs]
			for _, g := range perm[srcs:] {
				if rng.Intn(4) > 0 {
					p.Dsts = append(p.Dsts, g)
					inLoad[g] += int(p.Bytes)
				}
			}
			d.Pieces = append(d.Pieces, p)
			if len(p.Dsts) > 0 {
				previous = max(previous, doublingEpochs(paramsFor(d, 1, p.Bytes), srcs, len(p.Dsts)))
			}
		}
		for _, l := range inLoad {
			previous = max(previous, l)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		lb := lowerBoundEpochs(d, 1)
		if deliveryCount(d) == 0 {
			continue
		}
		if s := greedySolve(d, 1); lb > s.Epochs {
			t.Fatalf("bound %d above greedy makespan %d (demand %+v)", lb, s.Epochs, d)
		}
		for T := 1; T < lb; T++ {
			s, nodes, pivots, err := solveHorizon(context.Background(), d, 1, T, budget, budget, budget, nil)
			if err != nil {
				t.Fatal(err)
			}
			if nodes >= budget || pivots >= budget {
				t.Fatalf("T=%d: budget exhausted (%d nodes, %d pivots), nothing proved", T, nodes, pivots)
			}
			if s != nil {
				t.Fatalf("horizon %d < bound %d is feasible: %+v (demand %+v)", T, lb, s, d)
			}
			horizons++
			if T >= previous {
				abovePrevious++
			}
		}
	}
	t.Logf("%d horizons proved infeasible, %d at or above the previous bound", horizons, abovePrevious)
	// The sweep must reach horizons only the postal term rules out.
	if horizons < 100 || abovePrevious < 10 {
		t.Fatalf("sweep too thin: %d horizons, %d of them at or above the previous bound", horizons, abovePrevious)
	}
}

// TestSolveHorizonShorterThanLatency: a horizon in which no send can
// arrive used to come back as an empty, "feasible" 0-epoch schedule with
// deliveries outstanding.
func TestSolveHorizonShorterThanLatency(t *testing.T) {
	d := epochDemand(2, 2) // span 1, lat 3
	d.Pieces = []Piece{{Bytes: 1, Srcs: []int{0}, Dsts: []int{1}}}
	s, _, _, err := solveHorizon(context.Background(), d, 1, 1, 384, 100, 100, nil)
	if err != nil || s != nil {
		t.Fatalf("T=1 < lat=3 with a delivery owed: got %+v, %v; want infeasible", s, err)
	}
	// With nothing owed the empty schedule is the answer.
	d.Pieces[0].Dsts = nil
	s, _, _, err = solveHorizon(context.Background(), d, 1, 1, 384, 100, 100, nil)
	if err != nil || s == nil || s.Epochs != 0 || len(s.Transfers) != 0 {
		t.Fatalf("nothing owed: got %+v, %v; want the empty schedule", s, err)
	}
}

// TestExactSolveEffortBounded holds the exact engine to its deterministic
// effort bound on a pipelined broadcast cell: four interchangeable
// 16 MiB pieces from GPU 0 to GPUs 1–3 over NVLink. Its horizon MILPs
// are degenerate enough that a warm re-solve once ran to its own pivot
// cap, dropped the count and fell back cold, so the solve ran until the
// caller's deadline. Every pivot, warm and cold, is now charged against
// the budgets.
func TestExactSolveEffortBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine spending a 20 000-pivot budget: nothing to race, 20× slower")
	}
	d := &Demand{NumGPUs: 4, Alpha: 3e-6, Beta: 1 / 180e9}
	for i := 0; i < 4; i++ {
		d.Pieces = append(d.Pieces, Piece{ID: i, Bytes: 16 << 20, Srcs: []int{0}, Dsts: []int{1, 2, 3}})
	}
	rec := obs.NewRecorder()
	sp := rec.StartSpan("solve")
	// The deadline only guards the test run; the assertions are on counts.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	s, err := SolveCtx(ctx, d, Options{E: 0.5, Engine: EngineAuto, Span: sp})
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Err() != nil {
		t.Fatal("the solve ran until the deadline")
	}
	if err := CheckSolution(d, s); err != nil {
		t.Fatal(err)
	}
	nodes, pivots, horizons := 0, 0, 0
	for _, r := range rec.Spans() {
		if r.Name != "milp.horizon" {
			continue
		}
		horizons++
		for _, a := range r.Attrs {
			v, _ := a.Value().(int64)
			switch a.Key {
			case "milp.nodes":
				if v > horizonNodeBudget {
					t.Errorf("horizon %v: %d nodes, over the per-horizon budget %d", r.Attrs, v, horizonNodeBudget)
				}
				nodes += int(v)
			case "lp.pivots":
				pivots += int(v)
			}
		}
	}
	if horizons == 0 {
		t.Fatal("no horizon MILP ran: the demand no longer exercises the budgets")
	}
	if nodes > totalNodeBudget || pivots > totalPivotBudget {
		t.Errorf("%d horizons charged %d nodes and %d pivots, budgets %d and %d",
			horizons, nodes, pivots, totalNodeBudget, totalPivotBudget)
	}
	if c := rec.Counters(); c["milp.nodes"] != float64(nodes) {
		t.Errorf("milp.nodes counter %g, horizon spans sum to %d", c["milp.nodes"], nodes)
	}
	if g := greedySolve(d, s.Tau); s.Epochs > g.Epochs {
		t.Errorf("exact makespan %d above greedy %d", s.Epochs, g.Epochs)
	}
	t.Logf("%d horizons, %d nodes, %d pivots, %d epochs", horizons, nodes, pivots, s.Epochs)
}
