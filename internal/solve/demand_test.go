package solve

import (
	"context"
	"math"
	"testing"
	"testing/quick"
)

func TestAdmissibleRatio(t *testing.T) {
	cases := []struct{ target, want float64 }{
		{5.7, 5},
		{1.0, 1},
		{0.49, 1.0 / 3}, // 1/2 > 0.49, so 1/3
		{0.5, 0.5},
		{0.09, 1.0 / 12},
		{1000, 64},        // clamp high
		{0.001, 1.0 / 64}, // clamp low
	}
	for _, c := range cases {
		if got := admissibleRatioAtMost(c.target); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("admissibleRatioAtMost(%g) = %g, want %g", c.target, got, c.want)
		}
	}
}

// Property: the admissible ratio never exceeds the target (modulo clamp)
// and r or 1/r is integral.
func TestAdmissibleRatioProperty(t *testing.T) {
	f := func(raw uint16) bool {
		target := float64(raw)/100 + 0.02 // 0.02 .. 655
		r := admissibleRatioAtMost(target)
		if r > target && target >= 1.0/64 {
			return false
		}
		ri := math.Round(r)
		inv := math.Round(1 / r)
		return math.Abs(r-ri) < 1e-9 || math.Abs(1/r-inv) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParamsFor(t *testing.T) {
	d := &Demand{NumGPUs: 2, Alpha: 3, Beta: 1}
	// τ=2, bytes=4: span = ceil(4/2)=2, lat = ceil(7/2)=4.
	ep := paramsFor(d, 2, 4)
	if ep.span != 2 || ep.lat != 4 {
		t.Errorf("params = %+v", ep)
	}
	// lat never below span.
	d2 := &Demand{NumGPUs: 2, Alpha: 0, Beta: 1}
	ep2 := paramsFor(d2, 1, 3)
	if ep2.lat < ep2.span {
		t.Errorf("lat %d < span %d", ep2.lat, ep2.span)
	}
}

func TestLowerBoundEpochs(t *testing.T) {
	// Broadcast from one source to 7 peers, span=lat=1: doubling bound
	// gives ceil(log2 8) = 3.
	d := broadcastDemand(8)
	if lb := lowerBoundEpochs(d, 1); lb != 3 {
		t.Errorf("broadcast lb = %d, want 3", lb)
	}
	// AllGather n=4: each ingress takes 3 deliveries → lb ≥ 3.
	ag := allGatherDemand(4)
	if lb := lowerBoundEpochs(ag, 1); lb != 3 {
		t.Errorf("allgather lb = %d, want 3", lb)
	}
}

// Property: the lower bound never exceeds what greedy achieves (it must
// be a true bound).
func TestLowerBoundSoundProperty(t *testing.T) {
	f := func(rawN, rawK uint8) bool {
		n := int(rawN%6) + 2
		k := int(rawK%3) + 1
		d := &Demand{NumGPUs: n, Alpha: 0.5, Beta: 1}
		for src := 0; src < n; src++ {
			for j := 0; j < k; j++ {
				p := Piece{ID: len(d.Pieces), Bytes: 1, Srcs: []int{src}}
				for o := 0; o < n; o++ {
					if o != src {
						p.Dsts = append(p.Dsts, o)
					}
				}
				d.Pieces = append(d.Pieces, p)
			}
		}
		tau := 1.0
		lb := lowerBoundEpochs(d, tau)
		s := greedySolve(d, tau)
		return lb <= s.Epochs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFlattenSolveDirect(t *testing.T) {
	// Multi-destination pieces flattened to direct sends.
	d := &Demand{NumGPUs: 4, Alpha: 0, Beta: 1, Pieces: []Piece{
		{ID: 0, Bytes: 1, Srcs: []int{0}, Dsts: []int{1, 2}},
		{ID: 1, Bytes: 1, Srcs: []int{1, 3}, Dsts: []int{0, 2}},
	}}
	s := flattenSolve(d, 1)
	if s.Engine != "flatten" {
		t.Errorf("engine %q", s.Engine)
	}
	if len(s.Transfers) != 4 {
		t.Errorf("transfers = %d, want 4 (one per delivery)", len(s.Transfers))
	}
	if err := CheckSolution(d, s); err != nil {
		t.Fatal(err)
	}
	// Multi-src piece round-robins its sources.
	srcs := map[int]bool{}
	for _, tr := range s.Transfers {
		if tr.Piece == 1 {
			srcs[tr.Src] = true
		}
	}
	if len(srcs) != 2 {
		t.Errorf("multi-src piece used %d sources, want 2", len(srcs))
	}
}

func TestRotationRejectsNonUniform(t *testing.T) {
	d := allGatherDemand(4)
	d.Pieces[0].Bytes = 2
	if rotationSolve(d, 1) != nil {
		t.Error("rotation accepted non-uniform sizes")
	}
	d2 := allGatherDemand(4)
	d2.Pieces[0].Dsts = d2.Pieces[0].Dsts[:2]
	if rotationSolve(d2, 1) != nil {
		t.Error("rotation accepted partial destinations")
	}
	d3 := allGatherDemand(4)
	d3.Pieces = d3.Pieces[:3] // uneven pieces per source
	if rotationSolve(d3, 1) != nil {
		t.Error("rotation accepted uneven per-source counts")
	}
}

func TestMakespanAndValidateEdge(t *testing.T) {
	d := &Demand{NumGPUs: 4, Beta: -1}
	if d.Validate() == nil {
		t.Error("accepted negative beta")
	}
	d2 := &Demand{NumGPUs: 4, Beta: 1, Pieces: []Piece{{Bytes: -1, Srcs: []int{0}}}}
	if d2.Validate() == nil {
		t.Error("accepted negative piece size")
	}
	d3 := &Demand{NumGPUs: 4, Beta: 1, Pieces: []Piece{{Bytes: 1, Srcs: []int{9}}}}
	if d3.Validate() == nil {
		t.Error("accepted out-of-range source")
	}
}

// TestRepeatedDestinationRefused: a destination listed twice within a
// piece is refused, also where the piece has n-1 destinations and would
// otherwise pass for an all-others broadcast. The same GPU as a
// destination of two different pieces is fine.
func TestRepeatedDestinationRefused(t *testing.T) {
	for _, dsts := range [][]int{{1, 1}, {1, 2, 2}, {3, 1, 3}} {
		d := &Demand{NumGPUs: 4, Beta: 1, Pieces: []Piece{{Bytes: 1, Srcs: []int{0}, Dsts: dsts}}}
		if d.Validate() == nil {
			t.Errorf("Validate accepted destinations %v", dsts)
		}
		if _, err := SolveCtx(context.Background(), d, Options{}); err == nil {
			t.Errorf("SolveCtx accepted destinations %v", dsts)
		}
	}
	d := &Demand{NumGPUs: 4, Beta: 1, Pieces: []Piece{
		{Bytes: 1, Srcs: []int{0}, Dsts: []int{1, 2}},
		{Bytes: 1, Srcs: []int{3}, Dsts: []int{2, 1, 0}},
	}}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate refused a destination shared by two pieces: %v", err)
	}
}
