package isomorph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"syccl/internal/solve"
)

// pieceSigReference and pieceBijectionReference are pieceSig and
// pieceBijection as they stood when signatures were rendered with fmt,
// kept verbatim. The piece bijection decides which b-piece a mapped
// transfer carries, so the buffer rendering must pick the same one.
func pieceSigReference(bytes float64, srcs, dsts []int, m []int) string {
	img := func(set []int) []int {
		out := make([]int, len(set))
		for k, v := range set {
			if m != nil {
				out[k] = m[v]
			} else {
				out[k] = v
			}
		}
		sort.Ints(out)
		return out
	}
	return fmt.Sprintf("%.9g|%v|%v", bytes, img(srcs), img(dsts))
}

func pieceBijectionReference(a, b *solve.Demand, f []int) []int {
	if len(a.Pieces) != len(b.Pieces) {
		return nil
	}
	buckets := make(map[string][]int, len(b.Pieces))
	for j, pb := range b.Pieces {
		k := pieceSigReference(pb.Bytes, pb.Srcs, pb.Dsts, nil)
		buckets[k] = append(buckets[k], j)
	}
	out := make([]int, len(a.Pieces))
	for i, pa := range a.Pieces {
		k := pieceSigReference(pa.Bytes, pa.Srcs, pa.Dsts, f)
		lst := buckets[k]
		if len(lst) == 0 {
			return nil
		}
		out[i] = lst[len(lst)-1]
		buckets[k] = lst[:len(lst)-1]
	}
	return out
}

// pieceBijection is mappingSearch.bijection of f onto b in a fresh
// index: the piece bijection the search returns with a mapping.
func pieceBijection(a, b *solve.Demand, f []int) []int {
	if len(a.Pieces) != len(b.Pieces) {
		return nil
	}
	var s mappingSearch
	s.index(b)
	return s.bijection(a, f)
}

// sameBijection fails the test unless pieceBijection answers a, b, f with
// the reference's slice, nil where it is nil.
func sameBijection(t *testing.T, what string, a, b *solve.Demand, f []int) {
	t.Helper()
	got, want := pieceBijection(a, b, f), pieceBijectionReference(a, b, f)
	if (got == nil) != (want == nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: f=%v: pieceBijection %v, reference %v", what, f, got, want)
	}
}

// sameBijections holds pieceBijection to the reference on a demand list:
// each demand against itself and against the next one, under the identity
// and, where FindFullMapping finds one, under the mapping and every
// single swap of two of its GPUs. Found mappings must carry the
// reference's bijection.
func sameBijections(t *testing.T, what string, demands []*solve.Demand) {
	t.Helper()
	for x, a := range demands {
		for _, b := range []*solve.Demand{a, demands[(x+1)%len(demands)]} {
			id := make([]int, a.NumGPUs)
			for g := range id {
				id[g] = g
			}
			sameBijection(t, what, a, b, id)
			m := FindFullMapping(a, b)
			if m == nil {
				continue
			}
			if want := pieceBijectionReference(a, b, m.GPUs); want == nil || !reflect.DeepEqual(m.Pieces, want) {
				t.Fatalf("%s: FindFullMapping pieces %v, reference %v", what, m.Pieces, want)
			}
			for i := range m.GPUs {
				for j := i + 1; j < len(m.GPUs); j++ {
					f := append([]int(nil), m.GPUs...)
					f[i], f[j] = f[j], f[i]
					sameBijection(t, what, a, b, f)
				}
			}
		}
	}
}

// TestPieceBijectionEquivalenceRandom: the lists of
// TestClassesEquivalenceRandom; relabelings of the odd-float demands the
// key tests use (NaN, infinities and signed zeros among the sizes); and
// relabelings of demands whose sizes only the ninth significant digit,
// or no printed digit, tells apart.
func TestPieceBijectionEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		data := make([]byte, 16+rng.Intn(120))
		rng.Read(data)
		sameBijections(t, fmt.Sprintf("random %d", i), classesFuzzList(data))
	}
	rng = rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		d := randomKeyDemand(rng)
		sameBijections(t, fmt.Sprintf("odd floats %d", i),
			[]*solve.Demand{d, relabel(d, rng.Perm(d.NumGPUs), rng, true)})
	}
	near := []float64{123456789, 123456788, 1 << 20, math.Nextafter(1<<20, 2<<20)}
	for i := 0; i < 300; i++ {
		n := 2 + rng.Intn(5)
		d := &solve.Demand{NumGPUs: n, Alpha: 1e-6, Beta: 1e-9}
		for p := 2 + rng.Intn(6); p > 0; p-- {
			d.Pieces = append(d.Pieces, solve.Piece{ID: p, Bytes: near[rng.Intn(len(near))],
				Srcs: []int{rng.Intn(n)}, Dsts: []int{rng.Intn(n)}})
		}
		sameBijections(t, fmt.Sprintf("near sizes %d", i),
			[]*solve.Demand{d, relabel(d, rng.Perm(n), rng, true)})
	}
}
