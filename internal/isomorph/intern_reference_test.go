package isomorph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"syccl/internal/solve"
)

// internReference is Table.Intern as it was before content hashing:
// demands bucketed by their ExactKey text, Equal deciding within a
// bucket.
type internReference struct {
	demands []*solve.Demand
	byExact map[string][]int
}

func (r *internReference) intern(d *solve.Demand) int {
	k := ExactKey(d)
	for _, id := range r.byExact[k] {
		if Equal(r.demands[id], d) {
			return id
		}
	}
	r.demands = append(r.demands, d)
	r.byExact[k] = append(r.byExact[k], len(r.demands)-1)
	return len(r.demands) - 1
}

// randomInternDemand draws from a small alphabet so that equal demands,
// and demands that differ in one field only, are common: 2–4 GPUs, two
// α, β values, piece sizes that print alike at nine digits but differ,
// and short source and destination lists.
func randomInternDemand(rng *rand.Rand) *solve.Demand {
	sizes := []float64{1 << 20, math.Nextafter(1<<20, 2e6), 4096}
	d := &solve.Demand{NumGPUs: 2 + rng.Intn(3), Alpha: []float64{1e-6, 2e-6}[rng.Intn(2)], Beta: 1e-11}
	for p := rng.Intn(3); p >= 0; p-- {
		piece := solve.Piece{ID: len(d.Pieces), Bytes: sizes[rng.Intn(len(sizes))]}
		piece.Srcs = []int{rng.Intn(d.NumGPUs)}
		for g := 0; g < d.NumGPUs; g++ {
			if g != piece.Srcs[0] && rng.Intn(2) == 0 {
				piece.Dsts = append(piece.Dsts, g)
			}
		}
		d.Pieces = append(d.Pieces, piece)
	}
	return d
}

// copyDemand is a deep copy: an equal demand that shares no memory.
func copyDemand(d *solve.Demand) *solve.Demand {
	out := &solve.Demand{NumGPUs: d.NumGPUs, Alpha: d.Alpha, Beta: d.Beta}
	for _, p := range d.Pieces {
		out.Pieces = append(out.Pieces, solve.Piece{ID: p.ID, Bytes: p.Bytes, Srcs: slices.Clone(p.Srcs), Dsts: slices.Clone(p.Dsts)})
	}
	return out
}

// TestInternMatchesTextBuckets: Table.Intern, bucketing by content hash,
// hands out the ids the ExactKey-text bucketing did, on random lists full
// of equal copies and near misses (sizes equal at %.9g, one GPU moved);
// so does a table that puts every demand in one bucket, where Equal alone
// tells them apart. Signed zeros are the one place the two differ: the
// text prints −0 and 0 apart, while Equal, and so the hash, finds them
// equal, and Intern gives a demand the id of the first demand Equal to
// it.
func TestInternMatchesTextBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for list := 0; list < 200; list++ {
		var demands []*solve.Demand
		for i := 0; i < 60; i++ {
			if len(demands) > 0 && rng.Intn(2) == 0 {
				demands = append(demands, copyDemand(demands[rng.Intn(len(demands))]))
				continue
			}
			demands = append(demands, randomInternDemand(rng))
		}
		ref := &internReference{byExact: map[string][]int{}}
		tab, oneBucket := NewTable(), NewTable()
		for i, d := range demands {
			want := ref.intern(d)
			if got := tab.Intern(d); got != want {
				t.Fatalf("list %d, demand %d: id %d, text buckets %d", list, i, got, want)
			}
			if got := oneBucket.intern(d, 0); got != want {
				t.Fatalf("list %d, demand %d, one bucket: id %d, text buckets %d", list, i, got, want)
			}
		}
		if tab.Len() != len(ref.demands) {
			t.Fatalf("list %d: %d ids, text buckets %d", list, tab.Len(), len(ref.demands))
		}
	}

	base := &solve.Demand{NumGPUs: 2, Alpha: 0, Beta: 1e-11, Pieces: []solve.Piece{{Bytes: 1 << 20, Srcs: []int{0}, Dsts: []int{1}}}}
	negZero := copyDemand(base)
	negZero.Alpha = math.Copysign(0, -1)
	near := copyDemand(base)
	near.Pieces[0].Bytes = math.Nextafter(1<<20, 2e6)
	if !Equal(base, negZero) || ExactKey(base) == ExactKey(negZero) {
		t.Fatal("test premise: ±0 α must be Equal and print apart")
	}
	if Equal(base, near) || ExactKey(base) != ExactKey(near) {
		t.Fatal("test premise: the sizes must print alike at nine digits and differ")
	}
	tab := NewTable()
	if a, b := tab.Intern(base), tab.Intern(negZero); a != b {
		t.Errorf("±0 α: ids %d and %d, want one (the demands are Equal)", a, b)
	}
	if a, b := tab.Intern(base), tab.Intern(near); a == b {
		t.Error("sizes equal at nine digits share an id")
	}
	ref := &internReference{byExact: map[string][]int{}}
	if a, b := ref.intern(base), ref.intern(negZero); a == b {
		t.Error("the text buckets no longer split ±0 α; the comment above is stale")
	}
}
