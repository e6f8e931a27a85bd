package milp

import (
	"math"
	"slices"
	"testing"
)

// TestSearchPinned pins the whole search, not just its answer: solution
// vector, objective bits, status, node count and pivot count of the
// serial best-first loop on the time-expanded scheduling shape the exact
// sub-demand engine emits (equality rows and precedence couplings make
// the relaxations degenerate — the hard case for reproducibility) and on
// the strongly-correlated knapsacks. The values were recorded from the
// one-worker search before the worker pool was removed; a change to heap
// order, the incumbent tie-break, the warm→cold fallback or a stop rule
// moves at least one of them. Two consecutive runs must agree on all five
// fields.
func TestSearchPinned(t *testing.T) {
	k18, _ := hardKnapsack(18, 54321)
	k22, _ := hardKnapsack(22, 12345)
	for _, tc := range []struct {
		name         string
		p            *Problem
		objBits      uint64
		nodes, iters int
		ones         []int // indices of the variables at 1; all others are 0
	}{
		{"scheduleMILP(12,4,7)", scheduleMILP(12, 4, 7), 0x403e00000000000a, 6, 110,
			[]int{2, 7, 11, 12, 18, 21, 26, 28, 33, 37, 40, 47}},
		{"scheduleMILP(14,5,99)", scheduleMILP(14, 5, 99), 0x4043fffffffffff1, 9, 172,
			[]int{4, 9, 12, 17, 23, 26, 32, 35, 41, 45, 50, 56, 63, 68}},
		{"hardKnapsack(18,54321)", k18, 0xc080500000000002, 597, 617,
			[]int{1, 2, 3, 4, 5, 7, 11, 12, 14, 15}},
		{"hardKnapsack(22,12345)", k22, 0xc080200000000000, 1581, 1767,
			[]int{3, 4, 5, 7, 11, 12, 13, 14, 16, 17, 18, 19, 20}},
	} {
		want := make([]float64, tc.p.LP.NumVars())
		for _, i := range tc.ones {
			want[i] = 1
		}
		for run := 0; run < 2; run++ {
			s, err := Solve(tc.p, Options{})
			if err != nil {
				t.Fatalf("%s run %d: %v", tc.name, run, err)
			}
			if s.Status != StatusOptimal || math.Float64bits(s.Objective) != tc.objBits ||
				s.Nodes != tc.nodes || s.LPIters != tc.iters {
				t.Errorf("%s run %d: %v objective %#x nodes %d pivots %d, pinned optimal %#x %d %d",
					tc.name, run, s.Status, math.Float64bits(s.Objective), s.Nodes, s.LPIters,
					tc.objBits, tc.nodes, tc.iters)
			}
			if !slices.Equal(s.X, want) {
				t.Errorf("%s run %d: X = %v, pinned ones at %v", tc.name, run, s.X, tc.ones)
			}
		}
	}
}

// TestNodeLimitStatusAndBound: hitting MaxNodes before the proof closes
// must report StatusFeasible (incumbent in hand) or StatusUnknown (none),
// never StatusOptimal, and the reported Bound must still be a valid lower
// bound on the true optimum.
func TestNodeLimitStatusAndBound(t *testing.T) {
	p, want := hardKnapsack(18, 54321)
	s, err := Solve(p, Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	switch s.Status {
	case StatusFeasible:
		if s.Objective < want-1e-6 {
			t.Errorf("incumbent %g better than optimum %g", s.Objective, want)
		}
	case StatusUnknown:
		if s.X != nil {
			t.Errorf("unknown status carries a solution vector")
		}
	default:
		t.Fatalf("status %v under MaxNodes=3, want feasible or unknown", s.Status)
	}
	if s.Bound > want+1e-6 {
		t.Errorf("bound %g exceeds true optimum %g", s.Bound, want)
	}

	// A node limit keeps the incumbent the search found: the search is
	// one deterministic sequence, so a higher limit replays a lower one's
	// nodes and can only improve on the incumbent it returned.
	prev, found := math.Inf(1), false
	for nodes := 1; nodes <= 200; nodes++ {
		s, err := Solve(p, Options{MaxNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		if s.Status == StatusUnknown {
			if found {
				t.Fatalf("MaxNodes=%d lost the incumbent a lower limit found", nodes)
			}
			continue
		}
		found = true
		if s.Objective > prev+1e-9 {
			t.Errorf("MaxNodes=%d: objective %g worse than %g at a lower limit", nodes, s.Objective, prev)
		}
		prev = s.Objective
	}
	if !found {
		t.Fatal("no incumbent within 200 nodes")
	}
}
