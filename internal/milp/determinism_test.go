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
// the strongly-correlated knapsacks. The values were recorded with every
// node solved cold; a change to heap order, the incumbent tie-break, the
// node relaxation or a stop rule moves at least one of them. Two
// consecutive runs must agree on all five fields. Each objective also
// stays within intTol of oldObj, the optimum the search found while its
// nodes were re-solved warm: the optimal value does not depend on how
// the relaxations are solved, only its last bits and, among tied
// optima, the solution vector do.
func TestSearchPinned(t *testing.T) {
	k18, _ := hardKnapsack(18, 54321)
	k22, _ := hardKnapsack(22, 12345)
	for _, tc := range []struct {
		name         string
		p            *Problem
		objBits      uint64
		oldObj       uint64
		nodes, iters int
		ones         []int // indices of the variables at 1; all others are 0
	}{
		{"scheduleMILP(12,4,7)", scheduleMILP(12, 4, 7), 0x403e000000000000, 0x403e00000000000a, 5, 207,
			[]int{3, 7, 10, 12, 18, 22, 25, 28, 33, 37, 40, 47}},
		{"scheduleMILP(14,5,99)", scheduleMILP(14, 5, 99), 0x4044000000000000, 0x4043fffffffffff1, 53, 2613,
			[]int{3, 8, 12, 15, 24, 28, 30, 37, 41, 46, 51, 55, 62, 69}},
		{"hardKnapsack(18,54321)", k18, 0xc080500000000000, 0xc080500000000002, 597, 6877,
			[]int{1, 2, 3, 4, 5, 7, 11, 12, 14, 15}},
		{"hardKnapsack(22,12345)", k22, 0xc080200000000000, 0xc080200000000000, 1621, 22986,
			[]int{1, 3, 4, 5, 7, 11, 12, 14, 16, 17, 18, 19, 20}},
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
			if old := math.Float64frombits(tc.oldObj); math.Abs(s.Objective-old) > intTol {
				t.Errorf("%s run %d: objective %v, not within intTol of the warm-search optimum %v", tc.name, run, s.Objective, old)
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
