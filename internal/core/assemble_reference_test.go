package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/schedule"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// refAssembly and refCellDemand are the map-based assembly's types; the
// reference below fills them.
type refAssembly struct {
	numGPUs int
	pieces  []schedule.Piece
	origin  []int
	cells   []*refCellDemand
}

type refCellDemand struct {
	key    cellKey
	gpus   []int       // sorted global GPU IDs of the group
	local  map[int]int // global → local index
	demand *solve.Demand
}

// newAssemblyReference is newAssembly as it stood before the flat-array
// rewrite, kept verbatim (with SubDemand.ParentAssignment, since deleted,
// inlined as parentAssignmentReference): maps for the per-cell local
// indexes, the chunk lookups, the cell table and the scatter subtrees.
// It trusts its input: a sub-demand GPU outside its group reads as local
// index 0, and a scatter tree with an uninformed source or a cycle panics
// or never returns, so the equivalence tests hand it valid sketches only.
func newAssemblyReference(top *topology.Topology, col *collective.Collective, combo *sketch.Combination) (*refAssembly, error) {
	a := &refAssembly{numGPUs: top.NumGPUs()}
	byKey := make(map[cellKey]*refCellDemand)
	// addPiece registers a schedule piece of one chunk, which starts on
	// that chunk's source.
	addPiece := func(bytes float64, chunkID int) int {
		a.pieces = append(a.pieces, schedule.Piece{Chunks: []int{chunkID}, Bytes: bytes})
		a.origin = append(a.origin, col.Chunks[chunkID].Src)
		return len(a.pieces) - 1
	}

	// chunkBySrc resolves the chunk a broadcast sketch carries; scatter
	// sketches need the (source, destination) index, n² entries that are
	// only built when one shows up.
	chunkBySrc := map[int]int{}
	for _, ch := range col.Chunks {
		chunkBySrc[ch.Src] = ch.ID
	}
	var chunkBySrcDst map[[2]int]int

	cell := func(k cellKey) *refCellDemand {
		cd, ok := byKey[k]
		if !ok {
			dim := top.Dim(k.dim)
			gpus := dim.Groups[k.group]
			local := make(map[int]int, len(gpus))
			for i, g := range gpus {
				local[g] = i
			}
			cd = &refCellDemand{
				key:   k,
				gpus:  gpus,
				local: local,
				demand: &solve.Demand{
					NumGPUs: len(gpus),
					Alpha:   dim.AlphaOf(k.group),
					Beta:    dim.BetaOf(k.group),
				},
			}
			byKey[k] = cd
			a.cells = append(a.cells, cd)
		}
		return cd
	}

	for j, sk := range combo.Sketches {
		frac := combo.Fracs[j]
		if frac <= 0 {
			continue
		}
		bytes := frac * col.ChunkSize
		if !sk.Scatter {
			// One piece per sketch: the fraction of the root's chunk.
			chunkID, ok := chunkBySrc[sk.Root]
			if !ok {
				return nil, fmt.Errorf("core: no chunk sourced at sketch root %d", sk.Root)
			}
			piece := addPiece(bytes, chunkID)
			for k, st := range sk.Stages {
				for _, sd := range st {
					cd := cell(cellKey{k, sd.Dim, sd.Group})
					dp := solve.Piece{ID: piece, Bytes: bytes}
					for _, s := range sd.Srcs {
						dp.Srcs = append(dp.Srcs, cd.local[s])
					}
					for _, d := range sd.Dsts {
						dp.Dsts = append(dp.Dsts, cd.local[d])
					}
					cd.demand.Pieces = append(cd.demand.Pieces, dp)
				}
			}
			continue
		}

		// Scatter sketch: walk stages tracking each final destination's
		// current holder along the canonical tree.
		if chunkBySrcDst == nil {
			chunkBySrcDst = map[[2]int]int{}
			for _, ch := range col.Chunks {
				for _, d := range ch.Dsts {
					chunkBySrcDst[[2]int{ch.Src, d}] = ch.ID
				}
			}
		}
		subtree := scatterSubtreesReference(sk)
		holder := map[int]int{} // finalDst → current holder
		pieces := map[int]int{} // finalDst → schedule piece index
		for _, v := range sortedKeysReference(subtree[sk.Root]) {
			if v == sk.Root {
				continue
			}
			chunkID, ok := chunkBySrcDst[[2]int{sk.Root, v}]
			if !ok {
				return nil, fmt.Errorf("core: no chunk for pair %d→%d", sk.Root, v)
			}
			pieces[v] = addPiece(bytes, chunkID)
			holder[v] = sk.Root
		}
		for k, st := range sk.Stages {
			for _, sd := range st {
				cd := cell(cellKey{k, sd.Dim, sd.Group})
				for _, w := range sd.Dsts {
					for _, v := range sortedKeysReference(subtree[w]) {
						h := holder[v]
						cd.demand.Pieces = append(cd.demand.Pieces, solve.Piece{
							ID:    pieces[v],
							Bytes: bytes,
							Srcs:  []int{cd.local[h]},
							Dsts:  []int{cd.local[w]},
						})
						holder[v] = w
					}
				}
			}
		}
	}

	sort.Slice(a.cells, func(x, y int) bool {
		kx, ky := a.cells[x].key, a.cells[y].key
		if kx.stage != ky.stage {
			return kx.stage < ky.stage
		}
		if kx.dim != ky.dim {
			return kx.dim < ky.dim
		}
		return kx.group < ky.group
	})
	return a, nil
}

func sortedKeysReference(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// scatterSubtreesReference computes, per GPU, the set of final
// destinations (plus itself) routed through it under the sketch's
// canonical parenting.
func scatterSubtreesReference(sk *sketch.Sketch) map[int]map[int]bool {
	parent := map[int]int{}
	for _, st := range sk.Stages {
		for _, sd := range st {
			for d, p := range parentAssignmentReference(&sd) {
				parent[d] = p
			}
		}
	}
	out := map[int]map[int]bool{sk.Root: {sk.Root: true}}
	for v := range parent {
		out[v] = map[int]bool{v: true}
	}
	for v := range parent {
		// Walk up the tree marking v in every ancestor's subtree.
		cur := v
		for {
			p, ok := parent[cur]
			if !ok {
				break
			}
			out[p][v] = true
			cur = p
		}
	}
	return out
}

// parentAssignmentReference assigns each destination a parent source,
// round-robin over the sub-demand's sorted sources.
func parentAssignmentReference(sd *sketch.SubDemand) map[int]int {
	out := make(map[int]int, len(sd.Dsts))
	for i, d := range sd.Dsts {
		out[d] = sd.Srcs[i%len(sd.Srcs)]
	}
	return out
}

// sameAssembly fails the test unless newAssembly and the reference agree
// on the combination: both refuse it, or both build the same pieces,
// origins, cells (key, GPUs) and demands. The reference runs only where
// it is safe — when newAssembly accepted the combination (its checks rule
// out what would crash the reference or hang it) or when every sketch it
// reads passes Sketch.Validate. It reports whether newAssembly accepted.
func sameAssembly(t testing.TB, what string, top *topology.Topology, col *collective.Collective, combo *sketch.Combination) bool {
	t.Helper()
	got, err := newAssembly(nil, top, col, combo)
	if err != nil {
		for j, sk := range combo.Sketches {
			if combo.Fracs[j] > 0 && sk.Validate(top) != nil {
				return false
			}
		}
	}
	want, refErr := newAssemblyReference(top, col, combo)
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf("%s: newAssembly: %v; reference: %v", what, err, refErr)
	case err != nil:
		return false
	}
	// An empty combination's slices may be nil on one side only.
	if got.numGPUs != want.numGPUs || len(got.pieces) != len(want.pieces) ||
		len(got.pieces) > 0 && (!reflect.DeepEqual(got.pieces, want.pieces) || !reflect.DeepEqual(got.origin, want.origin)) {
		t.Fatalf("%s: pieces or origins differ:\n got %v %v\nwant %v %v", what, got.pieces, got.origin, want.pieces, want.origin)
	}
	if len(got.cells) != len(want.cells) {
		t.Fatalf("%s: %d cells, reference %d", what, len(got.cells), len(want.cells))
	}
	for i, cd := range got.cells {
		ref := want.cells[i]
		if cd.key != ref.key || !reflect.DeepEqual(cd.gpus, ref.gpus) || !reflect.DeepEqual(cd.demand, ref.demand) {
			t.Fatalf("%s: cell %d: got %+v %v %+v, reference %+v %v %+v", what, i, cd.key, cd.gpus, *cd.demand, ref.key, ref.gpus, *ref.demand)
		}
	}
	return true
}

// forwardCombinations returns the forward collective the pipeline runs
// for col, and every combination its search and combine phases make
// (none for SendRecv, which is routed).
func forwardCombinations(t testing.TB, top *topology.Topology, col *collective.Collective) (*collective.Collective, []*sketch.Combination) {
	t.Helper()
	opts := Options{}.withDefaults()
	fwd, _ := col.Phases()
	var root int
	var scatter, allToAll bool
	switch fwd.Kind {
	case collective.KindBroadcast:
		root = fwd.Root
	case collective.KindScatter:
		root, scatter = fwd.Root, true
	case collective.KindAllGather:
		allToAll = true
	case collective.KindAlltoAll:
		allToAll, scatter = true, true
	default:
		return fwd, nil
	}
	ctx := context.Background()
	sketches := searchCached(ctx, top, root, scatter, opts)
	return fwd, buildCombinations(ctx, top, fwd, sketches, allToAll, scatter, opts)
}

// TestAssemblyEquivalence holds newAssembly to the map-based reference on
// every combination the pipeline makes for the pinned cold cases and for
// random fabrics × the nine collectives.
func TestAssemblyEquivalence(t *testing.T) {
	checked := 0
	check := func(name string, top *topology.Topology, col *collective.Collective) {
		fwd, combos := forwardCombinations(t, top, col)
		for i, combo := range combos {
			if sameAssembly(t, fmt.Sprintf("%s combination %d", name, i), top, fwd, combo) {
				checked++
			}
		}
	}
	for _, spec := range coldDigestSpecs() {
		top, col := digestCase(t, spec)
		check(spec, top, col)
	}
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 6; round++ {
		top := verify.RandomTopology(rng)
		for _, kind := range verify.AllKinds {
			col := verify.RandomCollective(rng, kind, top.NumGPUs())
			check(fmt.Sprintf("%s %v", top.Name, kind), top, col)
		}
	}
	if checked < 500 {
		t.Fatalf("only %d combinations assembled", checked)
	}
}

// fuzzCombination decodes a collective and a combination on top from fuzz
// input. Sketches grow the way the search grows them — each sub-demand in
// one group, from GPUs already informed to GPUs not yet — unless a
// corruption byte swaps in an arbitrary GPU, dimension or group, or drops
// the sources; fractions range over -1/4..1. An exhausted input reads as
// zeros.
func fuzzCombination(top *topology.Topology, data []byte) (*collective.Collective, *sketch.Combination) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	n, dims := top.NumGPUs(), top.NumDims()
	kinds := []collective.Kind{collective.KindBroadcast, collective.KindScatter, collective.KindAllGather,
		collective.KindAlltoAll, collective.KindGather}
	col := verify.RandomCollective(rand.New(rand.NewSource(int64(next()))), kinds[next()%len(kinds)], n)
	combo := &sketch.Combination{}
	for s := 1 + next()%3; s > 0; s-- {
		sk := &sketch.Sketch{Root: next() % n, Scatter: next()%2 == 1}
		informed := make([]bool, n)
		informed[sk.Root] = true
		for k := 1 + next()%3; k > 0; k-- {
			var st sketch.Stage
			var reached []int
			for m := 1 + next()%2; m > 0; m-- {
				d := next() % dims
				dim := top.Dim(d)
				g := dim.GroupOf(next() % n)
				if g < 0 {
					continue
				}
				sd := sketch.SubDemand{Dim: d, Group: g}
				srcMask, dstMask := next(), next()
				for i, v := range dim.Groups[g] {
					if informed[v] && (len(sd.Srcs) == 0 || srcMask&(1<<(i%8)) != 0) {
						sd.Srcs = append(sd.Srcs, v)
					} else if !informed[v] && dstMask&(1<<(i%8)) != 0 {
						sd.Dsts = append(sd.Dsts, v)
					}
				}
				switch next() % 16 {
				case 0:
					sd.Srcs = append(sd.Srcs[:0:0], next()%(n+1))
				case 1:
					if len(sd.Dsts) > 0 {
						sd.Dsts[0] = next() % (n + 1)
					}
				case 2:
					sd.Dim = next() % (dims + 1)
				case 3:
					sd.Group = next() % (len(dim.Groups) + 1)
				case 4:
					sd.Srcs = nil
				}
				if len(sd.Dsts) == 0 {
					continue
				}
				st = append(st, sd)
				reached = append(reached, sd.Dsts...)
			}
			for _, v := range reached {
				if v >= 0 && v < n {
					informed[v] = true
				}
			}
			if len(st) > 0 {
				sk.Stages = append(sk.Stages, st)
			}
		}
		combo.Sketches = append(combo.Sketches, sk)
		combo.Fracs = append(combo.Fracs, float64(next()%6-1)/4)
	}
	return col, combo
}

// FuzzAssemblyEquivalence holds newAssembly to the reference on arbitrary
// combinations, malformed ones included: it must refuse, never crash or
// hang, what the reference trusts, and build what the reference builds.
func FuzzAssemblyEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 1, 0, 2, 0, 0, 1, 255, 7, 1, 0, 5, 255, 255, 5, 4})
	f.Add([]byte{3, 2, 3, 1, 4, 1, 2, 1, 0, 3, 3, 255, 9, 0, 1, 4, 1, 255, 9, 2, 3, 9, 1, 7, 1, 5, 0, 2, 1, 3, 15, 15, 5})
	f.Add([]byte{9, 1, 2, 2, 6, 0, 3, 1, 1, 0, 6, 1, 255, 0, 0, 2, 4, 3, 255, 3, 6, 0, 1, 1, 1, 2, 0, 255, 255, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		seed := int64(0)
		if len(data) > 0 {
			seed, data = int64(data[0]), data[1:]
		}
		top := verify.RandomTopology(rand.New(rand.NewSource(seed)))
		col, combo := fuzzCombination(top, data)
		sameAssembly(t, "fuzz", top, col, combo)
	})
}
