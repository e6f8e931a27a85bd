package engine

import (
	"testing"

	"syccl/internal/solve"
)

// bcast is a 4-GPU broadcast demand from root; demands from different
// roots are isomorphic (same class key) but not identical.
func bcast(root int, bytes float64) *solve.Demand {
	var dsts []int
	for g := 0; g < 4; g++ {
		if g != root {
			dsts = append(dsts, g)
		}
	}
	return &solve.Demand{
		NumGPUs: 4, Alpha: 1e-6, Beta: 5e-12,
		Pieces: []solve.Piece{{ID: 0, Bytes: bytes, Srcs: []int{root}, Dsts: dsts}},
	}
}

// TestBoundClassSurvivesSiblingEviction: evicting one member of an
// isomorphism class must not hide the members still resident. Bounds are
// relabel-invariant, so any of them answers for the class.
func TestBoundClassSurvivesSiblingEviction(t *testing.T) {
	eng := New(Options{BoundCacheEntries: 2})
	bounds := boundCacheAdapter{eng}
	bounds.Store(bcast(0, 1<<16), "sig", 1.5)
	bounds.Store(bcast(1, 1<<16), "sig", 1.5)
	bounds.Store(bcast(0, 1<<20), "sig", 9) // another class; evicts root 0's entry
	if _, ok := bounds.Lookup(bcast(0, 1<<16), "sig"); !ok {
		t.Fatal("the class still has a resident member (root 1), but the lookup missed")
	}
	if b, ok := bounds.Lookup(bcast(2, 1<<16), "sig"); !ok || b != 1.5 {
		t.Fatalf("iso lookup = %g,%t, want 1.5 from the resident sibling", b, ok)
	}
}
