package isomorph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"syccl/internal/solve"
)

// sameFullMapping fails the test unless FindFullMapping answers a, b
// with the reference's full mapping, nil where it is nil; and, where the
// Keys match, findFullMapping does too in the shared scratch s, as a
// Table's searches do one after another.
func sameFullMapping(t *testing.T, what string, a, b *solve.Demand, s *mappingSearch) {
	t.Helper()
	want := findFullMappingReference(a, b)
	check := func(how string, got *Mapping) {
		t.Helper()
		if (got == nil) != (want == nil) || got != nil && !reflect.DeepEqual(*got, *want) {
			t.Fatalf("%s: %s %+v, reference %+v", what, how, got, want)
		}
	}
	check("FindFullMapping", FindFullMapping(a, b))
	var fm former
	if fa, fb := fm.form(a), fm.form(b); fa.key == fb.key {
		check("findFullMapping in shared scratch", findFullMapping(a, b, &fa, &fb, s))
	}
}

// relayRing is a unit relay around all n GPUs, 0 → 1 → … → n−1 → 0:
// every GPU has the same color, so the sampled search has nothing to go
// on. A rotation of it is found by the rotation trials; almost no other
// relabeling is found at all.
func relayRing(n int) *solve.Demand {
	d := &solve.Demand{NumGPUs: n, Alpha: 1e-6, Beta: 1e-9}
	for g := 0; g < n; g++ {
		d.Pieces = append(d.Pieces, solve.Piece{ID: g, Bytes: 1 << 20, Srcs: []int{g}, Dsts: []int{(g + 1) % n}})
	}
	return d
}

// allGather is n GPUs each broadcasting its own piece to the others.
func allGather(n int, bytes float64) *solve.Demand {
	d := &solve.Demand{NumGPUs: n, Alpha: 1e-6, Beta: 1e-9}
	for g := 0; g < n; g++ {
		p := solve.Piece{ID: g, Bytes: bytes, Srcs: []int{g}}
		for h := 0; h < n; h++ {
			if h != g {
				p.Dsts = append(p.Dsts, h)
			}
		}
		d.Pieces = append(d.Pieces, p)
	}
	return d
}

// scatterGroups is a root scattering one piece to every other GPU and
// then, per group of size k, a relay of the group's pieces: GPUs differ
// in color by role, so the color classes are many and thin.
func scatterGroups(n, k int, rng *rand.Rand) *solve.Demand {
	d := &solve.Demand{NumGPUs: n, Alpha: 1e-6, Beta: 1e-9}
	for g := 1; g < n; g++ {
		d.Pieces = append(d.Pieces, solve.Piece{ID: len(d.Pieces), Bytes: 4096, Srcs: []int{0}, Dsts: []int{g}})
	}
	for lo := 1; lo+k <= n; lo += k {
		for g := lo; g+1 < lo+k; g++ {
			d.Pieces = append(d.Pieces, solve.Piece{ID: len(d.Pieces), Bytes: float64(int(1) << (10 + rng.Intn(2))), Srcs: []int{g}, Dsts: []int{g + 1}})
		}
	}
	return d
}

// rotate renames GPU g to (g+c) mod n.
func rotate(d *solve.Demand, c int) []int {
	perm := make([]int, d.NumGPUs)
	for g := range perm {
		perm[g] = (g + c) % d.NumGPUs
	}
	return perm
}

// TestFindFullMappingEquivalenceRandom holds FindFullMapping, and
// findFullMapping in one reused scratch, to the reference on demands
// large enough for the sampled search (relay rings, all-gathers,
// scatters with relays, random demands) and on the small lists of
// TestClassesEquivalenceRandom: each demand against rotations,
// relabelings, piece shuffles and a perturbed copy of itself.
func TestFindFullMappingEquivalenceRandom(t *testing.T) {
	rounds := 200
	if raceEnabled {
		rounds = 40 // serial checks, about ten times slower
	}
	rng := rand.New(rand.NewSource(31))
	var shared mappingSearch
	for i := 0; i < rounds; i++ {
		var d *solve.Demand
		switch i % 4 {
		case 0:
			d = relayRing(12 + rng.Intn(40))
		case 1:
			d = allGather(12+rng.Intn(20), float64(int(1)<<(10+rng.Intn(10))))
		case 2:
			d = scatterGroups(16+rng.Intn(48), 2+rng.Intn(4), rng)
		default:
			d = randomKeyDemand(rng)
			for len(d.Pieces)*d.NumGPUs <= 128 {
				d.Pieces = append(d.Pieces, randomKeyDemand(rng).Pieces...)
				d.NumGPUs = max(d.NumGPUs, 12)
			}
		}
		perturbed := relabel(d, rng.Perm(d.NumGPUs), rng, false)
		perturbed.Pieces[rng.Intn(len(perturbed.Pieces))].Bytes++
		what := fmt.Sprintf("demand %d (%d GPUs, %d pieces)", i, d.NumGPUs, len(d.Pieces))
		for _, b := range []*solve.Demand{
			d,
			twin(d),
			relabel(d, rotate(d, 1+rng.Intn(d.NumGPUs)), rng, false),
			relabel(d, rotate(d, 1+rng.Intn(d.NumGPUs)), rng, true),
			relabel(d, rng.Perm(d.NumGPUs), rng, false),
			relabel(d, rng.Perm(d.NumGPUs), rng, true),
			perturbed,
		} {
			sameFullMapping(t, what, d, b, &shared)
			sameFullMapping(t, what, b, d, &shared)
		}
	}
	rng = rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		data := make([]byte, 16+rng.Intn(120))
		rng.Read(data)
		list := classesFuzzList(data)
		for x, a := range list {
			sameFullMapping(t, fmt.Sprintf("random list %d", i), a, list[(x+1)%len(list)], &shared)
		}
	}
}

// TestFindFullMappingAllocs is an allocation tripwire on the sampled
// search. A relabeled 40-GPU relay ring against a random relabeling of
// itself fails all 32 trials; against a rotation by 7, trials 0–6 fail. Every trial used
// to bucket the b-pieces in a fresh map; now b is indexed once, so the
// count does not grow with the trials, and in a Table's warm scratch a
// failing search allocates nothing.
func TestFindFullMappingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(1))
	a := relabel(relayRing(40), rng.Perm(40), nil, false)
	var failing *solve.Demand
	for failing == nil || findFullMappingReference(a, failing) != nil {
		failing = relabel(a, rng.Perm(a.NumGPUs), nil, false)
	}
	rotated := relabel(a, rotate(a, 7), nil, false)
	if m := findFullMappingReference(a, rotated); m == nil || m.GPUs[0] == 0 {
		t.Fatal("test premise: a rotation trial after the first finds the rotated ring")
	}
	for _, c := range []struct {
		name string
		b    *solve.Demand
	}{{"failing", failing}, {"rotated", rotated}} {
		allocs := testing.AllocsPerRun(10, func() { FindFullMapping(a, c.b) })
		ref := testing.AllocsPerRun(2, func() { findFullMappingReference(a, c.b) })
		t.Logf("%s: %.0f allocations per FindFullMapping, reference %.0f", c.name, allocs, ref)
		if allocs > 200 {
			t.Errorf("%s: %.0f allocations per FindFullMapping, want ≤ 200", c.name, allocs)
		}
	}
	var s mappingSearch
	var fm former
	fa, fb := fm.form(a), fm.form(failing)
	findFullMapping(a, failing, &fa, &fb, &s)
	if allocs := testing.AllocsPerRun(10, func() { findFullMapping(a, failing, &fa, &fb, &s) }); allocs != 0 {
		t.Errorf("a failing search in warm scratch made %.0f allocations, want 0", allocs)
	}
}
