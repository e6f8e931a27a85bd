package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

func TestScatterSubtrees(t *testing.T) {
	top := topology.H800Small(2)
	sk := &sketch.Sketch{Root: 0, Scatter: true, Stages: []sketch.Stage{
		{{Dim: 1, Group: 0, Srcs: []int{0}, Dsts: []int{4}}},
		{{Dim: 0, Group: 1, Srcs: []int{4}, Dsts: []int{5, 6, 7}}},
		{{Dim: 0, Group: 0, Srcs: []int{0}, Dsts: []int{1, 2, 3}}},
	}}
	if err := sk.Validate(top); err != nil {
		t.Fatal(err)
	}
	var tree sketch.ScatterTree
	if err := tree.Build(sk, top.NumGPUs()); err != nil {
		t.Fatal(err)
	}
	// Subtrees list the GPU itself and everything routed through it,
	// ascending: GPU 4 relays 5, 6 and 7, leaves carry only themselves,
	// and the root's subtree covers all.
	for v, want := range map[int][]int32{
		4: {4, 5, 6, 7},
		5: {5},
		1: {1},
		0: {0, 1, 2, 3, 4, 5, 6, 7},
	} {
		if got := tree.Subtree(v); !reflect.DeepEqual(got, want) || tree.Size(v) != len(want) {
			t.Errorf("subtree(%d) = %v, want %v", v, got, want)
		}
	}

	// A tree that does not reach every destination from the root is an
	// error, and what it cannot route is in no subtree.
	for name, stages := range map[string][]sketch.Stage{
		"uninformed source": {{{Dim: 0, Group: 1, Srcs: []int{4}, Dsts: []int{5}}}},
		"cycle": {
			{{Dim: 0, Group: 1, Srcs: []int{5}, Dsts: []int{4}}},
			{{Dim: 0, Group: 1, Srcs: []int{4}, Dsts: []int{5}}},
		},
		"root as destination": {{{Dim: 0, Group: 0, Srcs: []int{1}, Dsts: []int{0}}}},
		"no sources":          {{{Dim: 0, Group: 0, Dsts: []int{1}}}},
		"out of range":        {{{Dim: 0, Group: 0, Srcs: []int{0}, Dsts: []int{8}}}},
	} {
		bad := &sketch.Sketch{Root: 0, Scatter: true, Stages: stages}
		if err := tree.Build(bad, top.NumGPUs()); err == nil {
			t.Errorf("%s: no error", name)
		}
		if tree.Size(4) != 0 || tree.Size(5) != 0 || tree.Size(0) != 1 {
			t.Errorf("%s: sizes %d, %d, %d", name, tree.Size(4), tree.Size(5), tree.Size(0))
		}
	}
}

func TestAssemblyCellsMergedPerGroupStage(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(8, 1024)
	// Two-sketch combination: hierarchical sketches rooted at 0 and 4.
	base := sketch.SearchBroadcast(context.Background(), top, 0, sketch.SearchOptions{})[0]
	combo, missing := sketch.ExpandAllToAll(top, base)
	if len(missing) > 0 {
		t.Fatalf("healthy topology left roots uncovered: %v", missing)
	}
	a, err := newAssembly(nil, top, col, combo)
	if err != nil {
		t.Fatal(err)
	}
	// One piece per sketch (forward AllGather).
	if len(a.pieces) != 8 {
		t.Errorf("pieces = %d, want 8", len(a.pieces))
	}
	// Every cell demand must aggregate pieces from multiple sketches
	// whenever their sub-demands share (stage, dim, group).
	merged := false
	for _, cd := range a.cells {
		if len(cd.demand.Pieces) > 1 {
			merged = true
		}
		if err := cd.demand.Validate(); err != nil {
			t.Fatalf("cell %+v: %v", cd.key, err)
		}
	}
	if !merged {
		t.Error("no cell merged sub-demands across sketches")
	}
}

func TestAssemblyRejectsForeignRoot(t *testing.T) {
	top := topology.H800Small(2)
	// Broadcast collective rooted at 0 but sketch rooted at 1: the
	// sketch's root chunk does not exist.
	col := collective.Broadcast(8, 0, 1024)
	sk := sketch.SearchBroadcast(context.Background(), top, 1, sketch.SearchOptions{})[0]
	if _, err := newAssembly(nil, top, col, sketch.Single(sk)); err == nil {
		t.Error("accepted sketch rooted at a GPU without a chunk")
	}
}

func TestBuildDependencyWiring(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.Broadcast(8, 0, 1024)
	sk := sketch.SearchBroadcast(context.Background(), top, 0, sketch.SearchOptions{})
	// Pick a 2-stage hierarchical sketch so cross-stage deps exist.
	var hier *sketch.Sketch
	for _, s := range sk {
		if len(s.Stages) == 2 {
			hier = s
			break
		}
	}
	if hier == nil {
		t.Skip("no 2-stage sketch found")
	}
	res := synth(t, top, col, Options{})
	// Every non-origin transfer must carry at least one dependency.
	origin := col.Chunks[0].Src
	for i, tr := range res.Schedule.Transfers {
		if tr.Src != origin && len(tr.Deps) == 0 {
			t.Errorf("transfer %d from non-origin %d has no deps", i, tr.Src)
		}
	}
}

// TestBuildDeliveryIndexForms: the flat delivery index and the hashed
// one that replaces it where it would be the larger wire the same
// dependencies — the pinned bytes either way — and each form is chosen
// where it is the smaller.
func TestBuildDeliveryIndexForms(t *testing.T) {
	pinned := loadColdDigests(t)
	defer func(slots int) { flatDeliverySlots = slots }(flatDeliverySlots)
	for _, slots := range []int{0, math.MaxInt32, flatDeliverySlots} { // 0: always hashed, MaxInt32: always flat
		flatDeliverySlots = slots
		for _, spec := range []string{"dgx4:allreduce:1M", "server8:broadcast:64M", "a100x16:alltoall:64M", "h800small:allgather:1M"} {
			top, col := digestCase(t, spec)
			if got := digestOf(synth(t, top, col, Options{})); got != pinned[spec] {
				t.Errorf("%s, %d slots per entry: got %+v, pinned %+v", spec, slots, got, pinned[spec])
			}
		}
	}
	flatDeliverySlots = 3
	for _, c := range []struct {
		name             string
		slots, transfers int
		flat             bool
	}{
		{"512-GPU AlltoAll", 512 * 511 * 512, 3 * 512 * 511, false},
		{"64-GPU AlltoAll", 4032 * 64, 7168, false},
		{"64-GPU AllGather", 64 * 64, 4032, true},
	} {
		var table []int32
		d := deliveriesIn(&table, c.slots, c.transfers)
		if (d.mask < 0) != c.flat || len(d.table) > min(c.slots, 12*c.transfers) {
			t.Errorf("%s: %d words, flat %v; want flat %v and no more than the smaller form", c.name, len(d.table), d.mask < 0, c.flat)
		}
	}

	// Slots past 2³² take both key words; a slot keeps its first index;
	// forgetting and resetting leaves the table all zeros.
	var table []int32
	d := deliveriesIn(&table, 1<<40, 4)
	slots := []int{7, 7 + 1<<32, 1<<40 - 1, 0}
	for i, slot := range slots {
		d.record(slot, i)
		d.record(slot, i+10)
	}
	for i, slot := range slots {
		if got := d.first(slot); got != int32(i+1) {
			t.Errorf("slot %d: first %d, want %d", slot, got, i+1)
		}
	}
	if d.first(8) != 0 {
		t.Error("an unrecorded slot has a delivery")
	}
	for _, slot := range slots {
		d.forget(slot)
	}
	d.reset()
	for _, w := range d.table {
		if w != 0 {
			t.Fatal("a reset hashed table is not all zeros")
		}
	}
}

// TestSolvedSubSchedulesInStartArriveOrder pins the fast path of
// assembly.build, which sorts a sub-schedule only when it is out of
// (Start, Arrive) order: every sub-schedule the solver returns on the
// pinned cold cases, and every cell sub-schedule their winners were built
// from, arrives in that order already.
func TestSolvedSubSchedulesInStartArriveOrder(t *testing.T) {
	specs := coldDigestSpecs()
	if testing.Short() {
		specs = specs[:36] // dgx4 and server8
	}
	subs := 0
	for _, spec := range specs {
		top, col := digestCase(t, spec)
		cache := &mapSolveCache{}
		res := synth(t, top, col, Options{SolveCache: cache})
		var cells []*solve.SubSchedule
		if res.Recipe != nil {
			cells = res.Recipe.Subs
		}
		for key, sub := range cache.subs {
			if !inStartArriveOrder(sub.Transfers) {
				t.Errorf("%s: solver output %s out of (Start, Arrive) order", spec, key)
			}
		}
		for i, sub := range cells {
			if !inStartArriveOrder(sub.Transfers) {
				t.Errorf("%s: the winner's cell %d is out of (Start, Arrive) order", spec, i)
			}
		}
		subs += len(cache.subs) + len(cells)
	}
	if subs == 0 {
		t.Fatal("no sub-schedules seen")
	}
}

// TestBuildSortsOutOfOrderSubSchedules: a sub-schedule out of (Start,
// Arrive) order — one from outside the solvers — is sorted on a copy,
// stably, so it builds what the ordered one builds and stays as it was.
func TestBuildSortsOutOfOrderSubSchedules(t *testing.T) {
	top, col := digestCase(t, "h800small:allgather:1M")
	rc := synth(t, top, col, Options{}).Recipe
	a, err := newAssembly(nil, top, col, rc.Combination)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.build(new(buildBuffer), rc.Subs)
	if err != nil {
		t.Fatal(err)
	}
	// Descending (Start, Arrive), ties in their original order: the
	// stable ascending sort restores the solver's order exactly.
	shuffled := make([]*solve.SubSchedule, len(rc.Subs))
	sorted := 0
	for i, sub := range rc.Subs {
		cp := *sub
		cp.Transfers = append([]solve.Transfer(nil), sub.Transfers...)
		sort.SliceStable(cp.Transfers, func(x, y int) bool {
			tx, ty := cp.Transfers[x], cp.Transfers[y]
			return tx.Start > ty.Start || (tx.Start == ty.Start && tx.Arrive > ty.Arrive)
		})
		if !inStartArriveOrder(cp.Transfers) {
			sorted++
		}
		shuffled[i] = &cp
	}
	if sorted == 0 {
		t.Fatal("no sub-schedule left out of order")
	}
	before := fmt.Sprint(shuffled[0].Transfers)
	got, err := a.build(new(buildBuffer), shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("an out-of-order sub-schedule built another schedule")
	}
	if fmt.Sprint(shuffled[0].Transfers) != before {
		t.Error("build reordered its input")
	}
}
