package isomorph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"syccl/internal/solve"
)

// classesReference is the package-level Classes as it was before the
// demand table replaced it, kept verbatim (Identity, which only it used,
// is identity below) but for reading the text references keyReference
// and findFullMappingReference: every demand, duplicates included, is
// scanned against its bucket's representatives. It returns, for
// each demand, the index of its class representative (the first demand of
// the class) and the full mapping from the representative to this demand
// (identity for representatives).
func classesReference(demands []*solve.Demand) (repOf []int, mapFromRep []Mapping) {
	repOf = make([]int, len(demands))
	mapFromRep = make([]Mapping, len(demands))
	byKey := make(map[string][]int) // key -> representative indices
	for i, d := range demands {
		k := keyReference(d)
		assigned := false
		// Structurally equal demands take the identity mapping, never a
		// discovered automorphism: every equal demand must reuse the
		// representative's sub-schedule verbatim, so a cross-request cache
		// keyed on exact demand content replays a run bit-identically.
		for _, r := range byKey[k] {
			if Equal(demands[r], d) {
				repOf[i] = r
				mapFromRep[i] = identity(d)
				assigned = true
				break
			}
		}
		for _, r := range byKey[k] {
			if assigned {
				break
			}
			if m := findFullMappingReference(demands[r], d); m != nil {
				repOf[i] = r
				mapFromRep[i] = *m
				assigned = true
				break
			}
		}
		if !assigned {
			repOf[i] = i
			mapFromRep[i] = identity(d)
			byKey[k] = append(byKey[k], i)
		}
	}
	return repOf, mapFromRep
}

// identity is the mapping of a demand onto itself.
func identity(d *solve.Demand) Mapping {
	m := Mapping{GPUs: make([]int, d.NumGPUs), Pieces: make([]int, len(d.Pieces))}
	for i := range m.GPUs {
		m.GPUs[i] = i
	}
	for i := range m.Pieces {
		m.Pieces[i] = i
	}
	return m
}

// tableClasses answers in the reference's terms from a Table: the list is
// interned and partitioned in one pass; ids become the list index of
// their first occurrence, and a nil mapping (a representative, or a
// demand equal to one) becomes the identity.
func tableClasses(demands []*solve.Demand) (repOf []int, mapFromRep []Mapping) {
	t := NewTable()
	ids := make([]int, len(demands))
	for i, d := range demands {
		ids[i] = t.Intern(d)
	}
	rep, m := t.Classes(ids)
	first := make([]int, t.Len())
	for i := len(ids) - 1; i >= 0; i-- {
		first[ids[i]] = i
	}
	repOf = make([]int, len(demands))
	mapFromRep = make([]Mapping, len(demands))
	for i, id := range ids {
		repOf[i] = first[rep[id]]
		if m[id] != nil {
			mapFromRep[i] = *m[id]
		} else {
			mapFromRep[i] = identity(demands[i])
		}
	}
	return repOf, mapFromRep
}

// sameClasses holds Table.Classes to the reference on one list: same
// representative per demand, same mapping contents.
func sameClasses(t *testing.T, what string, demands []*solve.Demand) {
	t.Helper()
	wantRep, wantMap := classesReference(demands)
	gotRep, gotMap := tableClasses(demands)
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Fatalf("%s: repOf %v, reference %v", what, gotRep, wantRep)
	}
	for i := range wantMap {
		if !reflect.DeepEqual(gotMap[i], wantMap[i]) {
			t.Fatalf("%s: demand %d mapped by %+v, reference %+v", what, i, gotMap[i], wantMap[i])
		}
	}
}

// relabel returns d with GPU g renamed perm[g] and, when shuffle is set,
// its pieces in another order: an isomorphic, not equal, demand.
func relabel(d *solve.Demand, perm []int, rng *rand.Rand, shuffle bool) *solve.Demand {
	out := &solve.Demand{NumGPUs: d.NumGPUs, Alpha: d.Alpha, Beta: d.Beta}
	for _, p := range d.Pieces {
		q := solve.Piece{ID: p.ID, Bytes: p.Bytes}
		for _, s := range p.Srcs {
			q.Srcs = append(q.Srcs, perm[s])
		}
		for _, v := range p.Dsts {
			q.Dsts = append(q.Dsts, perm[v])
		}
		out.Pieces = append(out.Pieces, q)
	}
	if shuffle {
		rng.Shuffle(len(out.Pieces), func(x, y int) { out.Pieces[x], out.Pieces[y] = out.Pieces[y], out.Pieces[x] })
	}
	return out
}

// twin returns a structurally equal demand that shares no memory with d.
func twin(d *solve.Demand) *solve.Demand {
	perm := make([]int, d.NumGPUs)
	for g := range perm {
		perm[g] = g
	}
	return relabel(d, perm, nil, false)
}

// TestClassesEquivalence: the lists the interning could get wrong.
func TestClassesEquivalence(t *testing.T) {
	chain := func(n int, order ...int) *solve.Demand { // a relay chain order[0] → order[1] → …
		d := &solve.Demand{NumGPUs: n, Alpha: 1e-6, Beta: 1e-9}
		for i := 0; i+1 < len(order); i++ {
			d.Pieces = append(d.Pieces, solve.Piece{ID: i, Bytes: 1 << 20, Srcs: []int{order[i]}, Dsts: []int{order[i+1]}})
		}
		return d
	}
	r0 := broadcast(5, 0)
	member := broadcast(5, 3) // isomorphic to r0, not equal
	other := chain(5, 0, 1, 2)
	otherMember := chain(5, 4, 2, 0)

	// A 6-ring and two 3-rings of unit relays give every GPU the same
	// color, so they share a Key bucket without being isomorphic: the
	// second becomes a representative after the first has members.
	hops := func(pairs ...int) *solve.Demand {
		d := &solve.Demand{NumGPUs: 6, Alpha: 1e-6, Beta: 1e-9}
		for i := 0; i < len(pairs); i += 2 {
			d.Pieces = append(d.Pieces, solve.Piece{ID: i / 2, Bytes: 4096, Srcs: []int{pairs[i]}, Dsts: []int{pairs[i+1]}})
		}
		return d
	}
	ring6 := hops(0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0)
	triangles := hops(0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3)
	if Key(ring6) != Key(triangles) || FindFullMapping(ring6, triangles) != nil {
		t.Fatal("test premise: one Key bucket, two classes")
	}
	ringMember := relabel(ring6, []int{3, 5, 1, 0, 2, 4}, nil, false)
	trianglesMember := relabel(triangles, []int{1, 3, 5, 0, 2, 4}, nil, false)

	// %.9g prints these two sizes alike, so their exact keys collide;
	// Equal tells them apart.
	near := func(bytes float64) *solve.Demand {
		d := broadcast(4, 1)
		d.Pieces[0].Bytes = bytes
		return d
	}
	a, b := 1048576.0, math.Nextafter(1048576.0, 2e6)
	if ExactKey(near(a)) != ExactKey(near(b)) || Equal(near(a), near(b)) {
		t.Fatal("test premise: the sizes must print alike at nine digits and differ")
	}

	for name, demands := range map[string][]*solve.Demand{
		"empty":                          nil,
		"duplicates of a representative": {r0, twin(r0), other, twin(r0), twin(other)},
		"duplicates of a non-representative": {
			r0, member, twin(member), other, twin(member), otherMember, twin(otherMember)},
		"duplicate after a new representative joined the bucket": {
			ring6, ringMember, triangles, twin(ringMember), trianglesMember, twin(trianglesMember), twin(ringMember)},
		"%.9g-equal sizes are different demands": {
			near(a), near(b), twin(near(a)), twin(near(b)), relabel(near(b), []int{2, 0, 3, 1}, nil, false)},
	} {
		sameClasses(t, name, demands)
	}

	// The same, told through the table: equal demands get one id, a pass
	// over other ids elects its own representative, and a pair's mapping
	// is searched once and shared from then on.
	tab := NewTable()
	i0, i1, i2 := tab.Intern(r0), tab.Intern(member), tab.Intern(twin(member))
	if i1 != i2 || i0 == i1 || tab.Len() != 2 {
		t.Fatalf("interned ids %d %d %d over %d demands", i0, i1, i2, tab.Len())
	}
	if na, nb := tab.Intern(near(a)), tab.Intern(near(b)); na == nb {
		t.Fatal("demands that differ below nine digits share an id")
	}
	if fresh := tab.add(twin(r0)); fresh == i0 {
		t.Fatal("add reused an id")
	}
	rep, m := tab.Classes([]int{i0, i1, i2})
	if rep[i0] != i0 || rep[i1] != i0 || m[i0] != nil || m[i1] == nil {
		t.Fatalf("pass [r0 member]: rep %v", rep)
	}
	if _, again := tab.Classes([]int{i1, i0, i1}); again[i1] != nil || again[i0] == nil {
		t.Fatal("a pass that lists the member first must elect it")
	}
	if _, third := tab.Classes([]int{i0, i1}); third[i1] != m[i1] {
		t.Fatal("the mapping of a pair was searched again")
	}
}

// classesFuzzList decodes a demand list from fuzz bytes: a few base
// demands, then a sequence that repeats them as equal twins and as GPU
// relabelings, in any order.
func classesFuzzList(data []byte) []*solve.Demand {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	rng := rand.New(rand.NewSource(int64(next())<<8 | int64(next())))
	var bases []*solve.Demand
	for k := 1 + next()%4; k > 0; k-- {
		n := 2 + next()%5
		d := &solve.Demand{NumGPUs: n, Alpha: 1e-6, Beta: 1e-9}
		for p := 1 + next()%3; p > 0; p-- {
			piece := solve.Piece{ID: len(d.Pieces), Bytes: float64(int(1) << uint(10+next()%3)), Srcs: []int{next() % n}}
			for g := 0; g < n; g++ {
				if g != piece.Srcs[0] && next()%2 == 0 {
					piece.Dsts = append(piece.Dsts, g)
				}
			}
			d.Pieces = append(d.Pieces, piece)
		}
		bases = append(bases, d)
	}
	var list []*solve.Demand
	for k := next() % 24; k > 0; k-- {
		d := bases[next()%len(bases)]
		switch next() % 3 {
		case 0:
			list = append(list, twin(d))
		case 1:
			list = append(list, relabel(d, rng.Perm(d.NumGPUs), rng, next()%2 == 0))
		default:
			// A relabeling seen before: an exact duplicate of a
			// non-representative.
			fixed := rand.New(rand.NewSource(int64(d.NumGPUs)))
			list = append(list, relabel(d, fixed.Perm(d.NumGPUs), fixed, false))
		}
	}
	return list
}

func TestClassesEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		data := make([]byte, 16+rng.Intn(120))
		rng.Read(data)
		sameClasses(t, fmt.Sprintf("random %d", i), classesFuzzList(data))
	}
}

// FuzzClassesEquivalence holds Table.Classes, and the piece bijections
// and full mappings under it, to their references on decoded lists with
// injected duplicates and GPU relabelings.
func FuzzClassesEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 2, 3, 1, 0, 0, 1, 0, 1, 2, 1, 1, 0, 0, 1, 9, 0, 0, 0, 1, 0, 2, 1, 1, 1, 0, 2})
	f.Add([]byte{7, 7, 3, 4, 2, 1, 0, 1, 0, 1, 0, 3, 2, 1, 1, 1, 0, 0, 5, 1, 0, 0, 20, 0, 1, 1, 2, 2, 0, 1, 1, 0, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		list := classesFuzzList(data)
		sameClasses(t, "fuzz", list)
		sameBijections(t, "fuzz", list)
		var shared mappingSearch
		for x, a := range list {
			sameFullMapping(t, "fuzz", a, list[(x+1)%len(list)], &shared)
		}
	})
}

// TestClassesAllocs is an allocation tripwire on classing a pass: a
// fresh table interns and partitions 64-GPU all-gather and scatter cells
// with equal and relabelled twins. With Keys and colors rendered as
// text this made 1 219 allocations and 5.7 MB; with the integer form it
// makes about 190 and 240 KB.
func TestClassesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(7))
	scatter := &solve.Demand{NumGPUs: 64, Alpha: 1e-6, Beta: 1e-9}
	for g := 1; g < 64; g++ {
		scatter.Pieces = append(scatter.Pieces, solve.Piece{ID: g, Bytes: 4096, Srcs: []int{0}, Dsts: []int{g}})
	}
	var demands []*solve.Demand
	for _, d := range []*solve.Demand{allGather(64, 1<<20), scatter, scatterGroups(64, 8, rng)} {
		demands = append(demands, d, twin(d))
		for k := 0; k < 6; k++ {
			demands = append(demands, relabel(d, rng.Perm(d.NumGPUs), rng, true))
		}
	}
	ids := make([]int, len(demands))
	pass := func() {
		tab := NewTable()
		for i, d := range demands {
			ids[i] = tab.Intern(d)
		}
		tab.Classes(ids)
	}
	allocs := testing.AllocsPerRun(10, pass)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < 10; k++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 10 / 1024
	t.Logf("%.0f allocations, %.0f KB per pass", allocs, kb)
	if allocs > 240 || kb > 1024 {
		t.Errorf("%.0f allocations and %.0f KB per pass, want ≤ 240 and ≤ 1024 KB", allocs, kb)
	}
}
