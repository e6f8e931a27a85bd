package isomorph

import (
	"math/rand"
	"testing"

	"syccl/internal/solve"
)

func broadcast(n, root int) *solve.Demand {
	p := solve.Piece{ID: 0, Bytes: 1, Srcs: []int{root}}
	for g := 0; g < n; g++ {
		if g != root {
			p.Dsts = append(p.Dsts, g)
		}
	}
	return &solve.Demand{NumGPUs: n, Alpha: 0, Beta: 1, Pieces: []solve.Piece{p}}
}

func TestBroadcastRootsAreIsomorphic(t *testing.T) {
	a := broadcast(4, 0)
	b := broadcast(4, 2)
	if Key(a) != Key(b) {
		t.Fatal("keys differ for isomorphic broadcasts")
	}
	f := FindMapping(a, b)
	if f == nil {
		t.Fatal("no mapping found")
	}
	if f[0] != 2 {
		t.Errorf("root must map to root: f[0]=%d", f[0])
	}
}

func TestDifferentSizesNotIsomorphic(t *testing.T) {
	a := broadcast(4, 0)
	b := broadcast(5, 0)
	if FindMapping(a, b) != nil {
		t.Error("mapped demands of different sizes")
	}
	c := broadcast(4, 0)
	c.Pieces[0].Bytes = 2
	if FindMapping(a, c) != nil {
		t.Error("mapped demands of different piece sizes")
	}
}

func TestPartialBroadcastNotIsomorphicToFull(t *testing.T) {
	a := broadcast(4, 0)
	b := broadcast(4, 0)
	b.Pieces[0].Dsts = []int{1, 2} // one fewer destination
	if Key(a) == Key(b) {
		t.Error("keys collide for different destination counts")
	}
	if FindMapping(a, b) != nil {
		t.Error("mapped different-destination demands")
	}
}

func TestScatterIsomorphism(t *testing.T) {
	scatter := func(root int, dsts []int) *solve.Demand {
		d := &solve.Demand{NumGPUs: 4, Alpha: 0, Beta: 1}
		for i, ds := range dsts {
			d.Pieces = append(d.Pieces, solve.Piece{ID: i, Bytes: 1, Srcs: []int{root}, Dsts: []int{ds}})
		}
		return d
	}
	a := scatter(0, []int{1, 2, 3})
	b := scatter(3, []int{0, 1, 2})
	f := FindMapping(a, b)
	if f == nil {
		t.Fatal("scatter roots not mapped")
	}
	if f[0] != 3 {
		t.Errorf("f[0] = %d, want 3", f[0])
	}
}

func TestMappingPreservesStructureRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(4)
		// Random forward demand with 2 pieces.
		d := &solve.Demand{NumGPUs: n, Alpha: 0, Beta: 1}
		for pi := 0; pi < 2; pi++ {
			src := rng.Intn(n)
			p := solve.Piece{ID: pi, Bytes: float64(1 + pi), Srcs: []int{src}}
			for g := 0; g < n; g++ {
				if g != src && rng.Float64() < 0.5 {
					p.Dsts = append(p.Dsts, g)
				}
			}
			if len(p.Dsts) == 0 {
				p.Dsts = []int{(src + 1) % n}
			}
			d.Pieces = append(d.Pieces, p)
		}
		// Apply a random permutation to derive an isomorphic copy.
		perm := rng.Perm(n)
		e := &solve.Demand{NumGPUs: n, Alpha: 0, Beta: 1}
		for _, p := range d.Pieces {
			q := solve.Piece{ID: p.ID, Bytes: p.Bytes}
			for _, s := range p.Srcs {
				q.Srcs = append(q.Srcs, perm[s])
			}
			for _, t := range p.Dsts {
				q.Dsts = append(q.Dsts, perm[t])
			}
			e.Pieces = append(e.Pieces, q)
		}
		f := FindMapping(d, e)
		if f == nil {
			t.Fatalf("trial %d: no mapping for permuted copy", trial)
		}
		// Verify f is a valid isomorphism by checking pieceBijection
		// directly (it was validated inside, but double-check the
		// contract).
		if pieceBijection(d, e, f) == nil {
			t.Fatalf("trial %d: returned mapping invalid", trial)
		}
	}
}

func TestClasses(t *testing.T) {
	demands := []*solve.Demand{
		broadcast(4, 0),
		broadcast(4, 1),
		broadcast(4, 3),
		broadcast(5, 0), // different class
	}
	repOf, maps := tableClasses(demands)
	if repOf[0] != 0 || repOf[1] != 0 || repOf[2] != 0 {
		t.Errorf("broadcast roots split into classes: %v", repOf)
	}
	if repOf[3] != 3 {
		t.Errorf("5-GPU broadcast merged: %v", repOf)
	}
	// maps[1] must map demand 0's root to demand 1's root.
	if maps[1].GPUs[0] != 1 {
		t.Errorf("map[1].GPUs[0] = %d, want 1", maps[1].GPUs[0])
	}
	// Representative mapping is identity.
	for g, v := range maps[0].GPUs {
		if v != g {
			t.Errorf("rep mapping not identity at %d: %d", g, v)
		}
	}
	for i, v := range maps[0].Pieces {
		if v != i {
			t.Errorf("rep piece mapping not identity at %d: %d", i, v)
		}
	}
}

func TestMapSchedule(t *testing.T) {
	s := &solve.SubSchedule{
		Epochs: 2, Tau: 1, Engine: "greedy",
		Transfers: []solve.Transfer{
			{Src: 0, Dst: 1, Piece: 0, Start: 0, Arrive: 1},
			{Src: 1, Dst: 2, Piece: 0, Start: 1, Arrive: 2},
		},
	}
	m := MapSchedule(s, Mapping{GPUs: []int{2, 0, 1}, Pieces: []int{0}})
	if m.Transfers[0].Src != 2 || m.Transfers[0].Dst != 0 {
		t.Errorf("first transfer mapped to %+v", m.Transfers[0])
	}
	if m.Transfers[1].Src != 0 || m.Transfers[1].Dst != 1 {
		t.Errorf("second transfer mapped to %+v", m.Transfers[1])
	}
	if s.Transfers[0].Src != 0 {
		t.Error("MapSchedule mutated input")
	}
	if m.Epochs != 2 || m.Tau != 1 {
		t.Error("metadata lost")
	}
}

// TestSolveThenMapEquivalence: solving a representative and mapping the
// schedule must yield a valid schedule for the isomorphic demand.
func TestSolveThenMapEquivalence(t *testing.T) {
	a := broadcast(6, 0)
	b := broadcast(6, 4)
	fm := FindFullMapping(a, b)
	if fm == nil {
		t.Fatal("no mapping")
	}
	sa, err := solve.Solve(a, solve.Options{Engine: solve.EngineGreedy, E: 1})
	if err != nil {
		t.Fatal(err)
	}
	sb := MapSchedule(sa, *fm)
	if err := solve.CheckSolution(b, sb); err != nil {
		t.Fatalf("mapped schedule invalid: %v", err)
	}
	if sb.Epochs != sa.Epochs {
		t.Errorf("mapped epochs %d != original %d", sb.Epochs, sa.Epochs)
	}
}

// TestPieceBijectionNotIdentity: when the structural piece correspondence
// is a non-identity permutation, MapSchedule must remap piece indices —
// otherwise mapped transfers would move the wrong payloads. (Regression
// test for the piece-permutation bug.)
func TestPieceBijectionNotIdentity(t *testing.T) {
	mk := func(srcs ...int) *solve.Demand {
		d := &solve.Demand{NumGPUs: 4, Alpha: 0, Beta: 1}
		for i, s := range srcs {
			d.Pieces = append(d.Pieces, solve.Piece{ID: i, Bytes: 1, Srcs: []int{s}, Dsts: []int{(s + 1) % 4}})
		}
		return d
	}
	a := mk(0, 2) // piece0: 0→1, piece1: 2→3
	b := mk(2, 0) // piece0: 2→3, piece1: 0→1 (same demand, pieces swapped)
	fm := FindFullMapping(a, b)
	if fm == nil {
		t.Fatal("no mapping between piece-permuted twins")
	}
	// Identity GPU mapping forces the piece bijection to be the swap.
	id := true
	for i, v := range fm.GPUs {
		if i != v {
			id = false
		}
	}
	if id && (fm.Pieces[0] != 1 || fm.Pieces[1] != 0) {
		t.Errorf("piece bijection = %v, want swap under identity GPUs", fm.Pieces)
	}
	sa, err := solve.Solve(a, solve.Options{Engine: solve.EngineGreedy, E: 1})
	if err != nil {
		t.Fatal(err)
	}
	sb := MapSchedule(sa, *fm)
	if err := solve.CheckSolution(b, sb); err != nil {
		t.Fatalf("mapped schedule invalid: %v", err)
	}
}

func TestEqual(t *testing.T) {
	a, b := broadcast(4, 0), broadcast(4, 0)
	if !Equal(a, b) {
		t.Fatal("identical broadcasts not Equal")
	}
	if Equal(a, broadcast(4, 2)) {
		t.Fatal("different roots reported Equal")
	}
	c := broadcast(4, 0)
	c.Beta = 2
	if Equal(a, c) {
		t.Fatal("different beta reported Equal")
	}
	d := broadcast(4, 0)
	d.Pieces[0].Bytes = 7
	if Equal(a, d) {
		t.Fatal("different piece size reported Equal")
	}
}

// TestClassesEqualDemandsGetIdentity: structurally equal demands must map
// to their representative through the identity, never through a
// discovered automorphism — the invariant that makes replaying a run from
// an exact-keyed cache bit-identical.
func TestClassesEqualDemandsGetIdentity(t *testing.T) {
	demands := []*solve.Demand{broadcast(4, 1), broadcast(4, 1), broadcast(4, 1)}
	repOf, maps := tableClasses(demands)
	for i := range demands {
		if repOf[i] != 0 {
			t.Fatalf("demand %d: rep %d, want 0", i, repOf[i])
		}
		for g, m := range maps[i].GPUs {
			if m != g {
				t.Fatalf("demand %d: non-identity GPU mapping %v", i, maps[i].GPUs)
			}
		}
		for p, m := range maps[i].Pieces {
			if m != p {
				t.Fatalf("demand %d: non-identity piece mapping %v", i, maps[i].Pieces)
			}
		}
	}
}
