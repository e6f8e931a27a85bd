package engine

import (
	"testing"

	"syccl/internal/isomorph"
	"syccl/internal/solve"
)

// hops is a 6-GPU demand of unit relays along the (src, dst) pairs.
func hops(pairs ...int) *solve.Demand {
	d := &solve.Demand{NumGPUs: 6, Alpha: 1e-6, Beta: 1e-9}
	for i := 0; i < len(pairs); i += 2 {
		d.Pieces = append(d.Pieces, solve.Piece{ID: i / 2, Bytes: 4096, Srcs: []int{pairs[i]}, Dsts: []int{pairs[i+1]}})
	}
	return d
}

// TestBoundCacheServesOnlyItsDemand: a 6-ring and two 3-rings of unit
// relays share an isomorph.Key without being isomorphic (the premise
// TestClassesEquivalence in internal/isomorph pins), so the ring's flow
// bound is no bound for the triangles and must not be served for them —
// pruning or ProvedOptimal would act on it. A relabeled ring is
// isomorphic, but a bound answers only for the demand it was computed
// on, so it misses too.
func TestBoundCacheServesOnlyItsDemand(t *testing.T) {
	ring6 := hops(0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0)
	triangles := hops(0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3)
	relabeled := hops(1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 1)
	if isomorph.Key(ring6) != isomorph.Key(triangles) {
		t.Fatal("test premise: the ring and the triangles share a Key")
	}
	eng := New(Options{})
	bounds := boundCacheAdapter{eng}
	bounds.Store(ring6, 7.5)
	if b, ok := bounds.Lookup(triangles); ok {
		t.Fatalf("triangles served the ring's bound %g", b)
	}
	if b, ok := bounds.Lookup(relabeled); ok {
		t.Fatalf("relabeled ring served the ring's bound %g", b)
	}
	if b, ok := bounds.Lookup(ring6); !ok || b != 7.5 {
		t.Fatalf("ring lookup = %g,%t, want 7.5", b, ok)
	}
	if st := eng.Stats(); st.BoundHits != 1 || st.BoundMisses != 2 {
		t.Fatalf("bound counters %+v, want 1 hit and 2 misses", st)
	}
}
