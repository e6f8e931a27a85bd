package core

import (
	"context"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/sketch"
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
	sub := scatterSubtrees(sk)
	// GPU 4's subtree: itself plus 5,6,7.
	if len(sub[4]) != 4 {
		t.Errorf("subtree(4) = %v", sub[4])
	}
	for _, v := range []int{4, 5, 6, 7} {
		if !sub[4][v] {
			t.Errorf("subtree(4) missing %d", v)
		}
	}
	// Leaves carry only themselves.
	if len(sub[5]) != 1 || !sub[5][5] {
		t.Errorf("subtree(5) = %v", sub[5])
	}
	// Root's subtree covers all.
	if len(sub[0]) != 8 {
		t.Errorf("subtree(root) = %d nodes", len(sub[0]))
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
	a, err := newAssembly(top, col, combo)
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
	if _, err := newAssembly(top, col, sketch.Single(sk)); err == nil {
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

// TestBuildDeliveryIndexForms: the flat delivery index and the map that
// replaces it on schedules with many more (piece, GPU) slots than
// transfers wire the same dependencies — the pinned bytes either way.
func TestBuildDeliveryIndexForms(t *testing.T) {
	pinned := loadColdDigests(t)
	defer func(slots int) { denseDeliverySlots = slots }(denseDeliverySlots)
	for _, slots := range []int{0, denseDeliverySlots} { // 0: always the map
		denseDeliverySlots = slots
		for _, spec := range []string{"dgx4:allreduce:1M", "server8:broadcast:64M", "a100x16:alltoall:64M", "h800small:allgather:1M"} {
			top, col := digestCase(t, spec)
			if got := digestOf(synth(t, top, col, Options{})); got != pinned[spec] {
				t.Errorf("%s, %d slots per transfer: got %+v, pinned %+v", spec, slots, got, pinned[spec])
			}
		}
	}
	if d := newDeliveries(512*511*512, 3*512*511); d.sparse == nil {
		t.Error("a 512-GPU AlltoAll would index 134M slots flat")
	}
	if d := newDeliveries(4032*64, 7168); d.dense == nil {
		t.Error("the 64-GPU AlltoAll lost its flat index")
	}
}
