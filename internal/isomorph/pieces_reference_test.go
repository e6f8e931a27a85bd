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
	var fm former
	fa, fb := fm.form(a), fm.form(b)
	s.index(b, &fb)
	return s.bijection(a, &fa, f)
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

// TestSize9MatchesText: two sizes have equal size9 exactly when %.9g
// prints them alike, on runs of neighbouring floats from every power of
// ten (where the printed exponent changes, denormals included), from
// values that round at the ninth digit, and from random bits (NaN
// payloads, infinities and denormals among them).
func TestSize9MatchesText(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	same := func(x, y float64) {
		t.Helper()
		if got, want := size9(x) == size9(y), fmt.Sprintf("%.9g", x) == fmt.Sprintf("%.9g", y); got != want {
			t.Fatalf("%v (%.9g), %v (%.9g): size9 equal %v, texts equal %v", x, x, y, y, got, want)
		}
	}
	var starts []float64
	for _, v := range oddFloats {
		starts = append(starts, v, -v)
	}
	for e := -324; e <= 308; e++ {
		starts = append(starts, math.Pow(10, float64(e)), 123456789.5*math.Pow(10, float64(e-8)))
	}
	for i := 0; i < 2000; i++ {
		starts = append(starts, math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()>>12)) // any, denormal
	}
	for _, x := range starts {
		y := x
		for k := 0; k < 40; k++ {
			y = math.Nextafter(y, math.Inf(1))
			same(x, y)
		}
		same(x, -x)
		same(x, 1/x)
		same(x, x*(1+1e-9))
		same(x, x*(1+1e-8))
	}
}
