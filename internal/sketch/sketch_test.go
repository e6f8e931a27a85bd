package sketch

import (
	"context"
	"math"
	"strings"
	"testing"

	"syccl/internal/topology"
)

func TestSearchBroadcastFig5(t *testing.T) {
	top := topology.Fig3()
	sketches := SearchBroadcast(context.Background(), top, 0, SearchOptions{})
	if len(sketches) == 0 {
		t.Fatal("no sketches found")
	}
	foundFig5 := false
	for _, sk := range sketches {
		if err := sk.Validate(top); err != nil {
			t.Fatalf("invalid sketch %v: %v", sk, err)
		}
		if !complete(sk, top) {
			t.Fatalf("incomplete sketch %v", sk)
		}
		// Fig 5 sketch ①: stage 0 = {dim0 root server fan-out (3 dsts) +
		// dim1 rail fan-out (3 dsts)}, stage 1 = {dim0 in 3 servers}.
		if len(sk.Stages) == 2 && len(sk.Stages[0]) == 2 && len(sk.Stages[1]) == 3 {
			dims := map[int]bool{}
			for _, sd := range sk.Stages[0] {
				dims[sd.Dim] = true
			}
			ok := dims[0] && dims[1]
			for _, sd := range sk.Stages[1] {
				if sd.Dim != 0 {
					ok = false
				}
			}
			if ok {
				foundFig5 = true
			}
		}
	}
	if !foundFig5 {
		t.Error("search did not produce the Fig 5 sketch shape")
	}
}

func TestSearchEmitsHierarchicalH800(t *testing.T) {
	// On the rail topology the classic hierarchical AllGather sketch is
	// NVLink fan-out then rail fan-out (or rail then NVLink): 2 stages,
	// single dim each.
	top := topology.H800Rail(4) // 32 GPUs
	sketches := SearchBroadcast(context.Background(), top, 0, SearchOptions{})
	shapes := map[string]bool{}
	for _, sk := range sketches {
		if err := sk.Validate(top); err != nil {
			t.Fatal(err)
		}
		if len(sk.Stages) == 2 && len(sk.Stages[0]) == 1 {
			key := ""
			for _, st := range sk.Stages {
				key += string(rune('0' + st[0].Dim))
			}
			shapes[key] = true
		}
	}
	if !shapes["01"] {
		t.Errorf("missing NVLink→rail hierarchical sketch; shapes: %v", shapes)
	}
	if !shapes["10"] {
		t.Errorf("missing rail→NVLink hierarchical sketch; shapes: %v", shapes)
	}
}

func TestSearchFindsAlternativeHierarchical(t *testing.T) {
	// Appendix C: the improved H800 sketch sends to one NVLink peer,
	// then both spread along their rails, then NVLink fan-out (3 stages:
	// dim0 c=1, dim1 full, dim0 full).
	top := topology.H800Rail(4)
	sketches := SearchBroadcast(context.Background(), top, 0, SearchOptions{})
	found := false
	for _, sk := range sketches {
		if len(sk.Stages) != 3 {
			continue
		}
		if len(sk.Stages[0]) == 1 && sk.Stages[0][0].Dim == 0 && len(sk.Stages[0][0].Dsts) == 1 &&
			sk.Stages[1][0].Dim == 1 && len(sk.Stages[1]) == 2 &&
			sk.Stages[2][0].Dim == 0 {
			found = true
		}
	}
	if !found {
		t.Error("alternative hierarchical sketch (Appendix C) not found")
	}
}

func TestPrune1ReducesSketches(t *testing.T) {
	top := topology.H800Small(4)
	with := SearchBroadcast(context.Background(), top, 0, SearchOptions{MaxSketches: 1 << 20})
	without := SearchBroadcast(context.Background(), top, 0, SearchOptions{MaxSketches: 1 << 20, DisablePrune1: true})
	if len(without) < len(with) {
		t.Errorf("disabling prune1 reduced sketches: %d < %d", len(without), len(with))
	}
}

func TestPrune2ReducesSketches(t *testing.T) {
	top := topology.H800Small(4)
	with := SearchBroadcast(context.Background(), top, 0, SearchOptions{MaxSketches: 1 << 20})
	without := SearchBroadcast(context.Background(), top, 0, SearchOptions{MaxSketches: 1 << 20, DisablePrune2: true})
	if len(without) <= len(with) {
		t.Errorf("disabling prune2 did not expand the space: %d <= %d", len(without), len(with))
	}
	for _, sk := range without {
		if err := sk.Validate(top); err != nil {
			t.Fatalf("invalid sketch with prune2 off: %v", err)
		}
	}
}

func TestScatterSearchRespectsPrune3(t *testing.T) {
	top := topology.H800Rail(4)
	sketches := SearchScatter(context.Background(), top, 0, SearchOptions{})
	if len(sketches) == 0 {
		t.Fatal("no scatter sketches")
	}
	for _, sk := range sketches {
		if err := sk.Validate(top); err != nil {
			t.Fatal(err)
		}
		if len(sk.Stages) > top.NumDims() {
			t.Errorf("scatter sketch has %d stages > %d dims", len(sk.Stages), top.NumDims())
		}
		// Each dimension at most once.
		used := map[int]int{}
		for _, st := range sk.Stages {
			for _, sd := range st {
				used[sd.Dim] = used[sd.Dim] + 1
			}
		}
	}
}

func TestWorkloadBroadcast(t *testing.T) {
	top := topology.H800Rail(2) // 16 GPUs, 2 servers, 8 rails of 2
	sketches := SearchBroadcast(context.Background(), top, 0, SearchOptions{})
	var hier *Sketch
	for _, sk := range sketches {
		if len(sk.Stages) == 2 && len(sk.Stages[0]) == 1 && sk.Stages[0][0].Dim == 0 &&
			len(sk.Stages[0][0].Dsts) == 7 {
			hier = sk
			break
		}
	}
	if hier == nil {
		t.Fatal("no NVLink→rail hierarchical sketch")
	}
	w := hier.Workload(top)
	// Stage 0: server 0 fan-out = 7 deliveries in dim0 group 0.
	if w[0][0] != 7 {
		t.Errorf("dim0 server0 workload = %g, want 7", w[0][0])
	}
	// Stage 1: each of 8 rails delivers 1.
	for g := 0; g < 8; g++ {
		if w[1][g] != 1 {
			t.Errorf("rail %d workload = %g, want 1", g, w[1][g])
		}
	}
	// Server 1 idle in dim 0.
	if w[0][1] != 0 {
		t.Errorf("dim0 server1 workload = %g, want 0", w[0][1])
	}
}

func TestWorkloadScatterCountsSubtrees(t *testing.T) {
	// Hand-built scatter: root 0 sends to rail peer 4 the bundle for
	// server 1 (stage 0, dim 1), then 4 scatters inside server 1
	// (stage 1, dim 0). Edge 0→4 relays 4 chunks (subtree of 4 = itself
	// + 3 server peers).
	top := topology.H800Small(2) // 2 servers × 4 GPUs
	sk := &Sketch{Root: 0, Scatter: true, Stages: []Stage{
		{{Dim: 1, Group: 0, Srcs: []int{0}, Dsts: []int{4}}},
		{{Dim: 0, Group: 1, Srcs: []int{4}, Dsts: []int{5, 6, 7}}},
		{{Dim: 0, Group: 0, Srcs: []int{0}, Dsts: []int{1, 2, 3}}},
	}}
	if err := sk.Validate(top); err != nil {
		t.Fatal(err)
	}
	w := sk.Workload(top)
	if w[1][0] != 4 {
		t.Errorf("rail edge workload = %g, want 4 (subtree size)", w[1][0])
	}
	if w[0][1] != 3 {
		t.Errorf("server1 scatter workload = %g, want 3", w[0][1])
	}
	if w[0][0] != 3 {
		t.Errorf("server0 scatter workload = %g, want 3", w[0][0])
	}
}

func TestReplicateBalances(t *testing.T) {
	top := topology.H800Rail(4)
	sketches := SearchBroadcast(context.Background(), top, 0, SearchOptions{})
	var hier *Sketch
	for _, sk := range sketches {
		if len(sk.Stages) == 2 && len(sk.Stages[0]) == 1 && sk.Stages[0][0].Dim == 0 {
			hier = sk
			break
		}
	}
	if hier == nil {
		t.Fatal("no hierarchical sketch")
	}
	base := imbalance(hier.Workload(top))
	if base == 0 {
		t.Fatal("base sketch unexpectedly balanced")
	}
	combo := Replicate(top, hier, 0)
	if len(combo.Sketches) < 2 {
		t.Fatalf("replication produced %d sketches", len(combo.Sketches))
	}
	w := combo.Workload(top)
	if got := imbalance(w); got > base*0.26 {
		t.Errorf("replication left imbalance %g (base %g)", got, base)
	}
	var sum float64
	for _, f := range combo.Fracs {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %g", sum)
	}
	for _, sk := range combo.Sketches {
		if err := sk.Validate(top); err != nil {
			t.Fatalf("replica invalid: %v", err)
		}
	}
}

func TestExpandAllToAll(t *testing.T) {
	top := topology.H800Small(2) // 8 GPUs
	sketches := SearchBroadcast(context.Background(), top, 0, SearchOptions{})
	combo, missing := ExpandAllToAll(top, sketches[0])
	if len(missing) > 0 {
		t.Fatalf("healthy topology left roots uncovered: %v", missing)
	}
	if len(combo.Sketches) != 8 {
		t.Fatalf("expanded to %d sketches, want 8", len(combo.Sketches))
	}
	roots := map[int]bool{}
	for _, sk := range combo.Sketches {
		if err := sk.Validate(top); err != nil {
			t.Fatalf("replica for root %d invalid: %v", sk.Root, err)
		}
		if !complete(sk, top) {
			t.Fatalf("replica for root %d incomplete", sk.Root)
		}
		roots[sk.Root] = true
	}
	if len(roots) != 8 {
		t.Errorf("roots covered: %d, want 8", len(roots))
	}
	// Per-dimension group workloads must be even.
	w := combo.Workload(top)
	for d := range w {
		for g := 1; g < len(w[d]); g++ {
			if math.Abs(w[d][g]-w[d][0]) > 1e-9 {
				t.Errorf("dim %d uneven workload: %v", d, w[d])
			}
		}
	}
}

func TestIntegrateMatchesBandwidthShares(t *testing.T) {
	top := topology.H800Rail(4)
	sketches := SearchBroadcast(context.Background(), top, 0, SearchOptions{})
	// Pick two hierarchical flavors with opposite dim orderings.
	var ab, ba *Sketch
	for _, sk := range sketches {
		if len(sk.Stages) == 2 && len(sk.Stages[0]) == 1 {
			if sk.Stages[0][0].Dim == 0 && ab == nil {
				ab = sk
			}
			if sk.Stages[0][0].Dim == 1 && ba == nil {
				ba = sk
			}
		}
	}
	if ab == nil || ba == nil {
		t.Fatal("missing hierarchical flavors")
	}
	ca := Replicate(top, ab, 0)
	cb := Replicate(top, ba, 0)
	out := Integrate(top, []*Combination{ca, cb})
	if out == nil {
		t.Fatal("integration failed")
	}
	w := out.DimWorkload(top)
	total := w[0] + w[1]
	shareErr := math.Abs(w[0]/total-top.BandwidthShare(0)) + math.Abs(w[1]/total-top.BandwidthShare(1))
	if shareErr > 0.15 {
		t.Errorf("integrated shares %v deviate from bandwidth shares (%g, %g)",
			[]float64{w[0] / total, w[1] / total}, top.BandwidthShare(0), top.BandwidthShare(1))
	}
}

func TestIntegrateRejectsDegenerate(t *testing.T) {
	top := topology.H800Rail(4)
	sketches := SearchBroadcast(context.Background(), top, 0, SearchOptions{})
	// Same combo twice: cannot shift share between dimensions; the
	// deviation check decides. Whatever the outcome, it must not panic
	// and the nil/valid contract must hold.
	c := Replicate(top, sketches[0], 0)
	out := Integrate(top, []*Combination{c, c})
	if out != nil {
		w := out.DimWorkload(top)
		if w[0] == 0 && w[1] == 0 {
			t.Error("integration returned empty workload combo")
		}
	}
	if Integrate(top, nil) != nil {
		t.Error("Integrate(nil) should be nil")
	}
}

func TestSketchMapPreservesStructure(t *testing.T) {
	top := topology.H800Rail(2)
	sk := SearchBroadcast(context.Background(), top, 0, SearchOptions{})[0]
	perm := rootPermReference(top, 0, 9)
	m := sk.Map(top, perm)
	if m.Root != 9 {
		t.Errorf("mapped root = %d, want 9", m.Root)
	}
	if err := m.Validate(top); err != nil {
		t.Fatalf("mapped sketch invalid: %v", err)
	}
	if !complete(m, top) {
		t.Error("mapped sketch incomplete")
	}
	if m.Descriptor() != sk.Descriptor() {
		t.Error("mapping changed the structural descriptor")
	}
}

func TestValidateRejectsBadSketches(t *testing.T) {
	top := topology.H800Small(2)
	n := top.NumGPUs()
	cases := []struct {
		name string
		sk   *Sketch
	}{
		{"uninformed source", &Sketch{Root: 0, Stages: []Stage{
			{{Dim: 0, Group: 1, Srcs: []int{4}, Dsts: []int{5}}},
		}}},
		{"source informed in the same stage", &Sketch{Root: 0, Stages: []Stage{
			{{Dim: 0, Group: 0, Srcs: []int{0}, Dsts: []int{1}}, {Dim: 0, Group: 0, Srcs: []int{1}, Dsts: []int{2}}},
		}}},
		{"double destination", &Sketch{Root: 0, Stages: []Stage{
			{{Dim: 0, Group: 0, Srcs: []int{0}, Dsts: []int{1}}},
			{{Dim: 0, Group: 0, Srcs: []int{0}, Dsts: []int{1}}},
		}}},
		{"root as destination", &Sketch{Root: 0, Stages: []Stage{
			{{Dim: 0, Group: 0, Srcs: []int{0}, Dsts: []int{0}}},
		}}},
		{"cross-group destination", &Sketch{Root: 0, Stages: []Stage{
			{{Dim: 0, Group: 0, Srcs: []int{0}, Dsts: []int{5}}},
		}}},
		{"empty sub-demand", &Sketch{Root: 0, Stages: []Stage{
			{{Dim: 0, Group: 0, Srcs: []int{0}}},
		}}},
		{"missing dimension", &Sketch{Root: 0, Stages: []Stage{
			{{Dim: top.NumDims(), Group: 0, Srcs: []int{0}, Dsts: []int{1}}},
		}}},
		{"negative dimension", &Sketch{Root: 0, Stages: []Stage{
			{{Dim: -1, Group: 0, Srcs: []int{0}, Dsts: []int{1}}},
		}}},
		{"source out of range", &Sketch{Root: 0, Stages: []Stage{
			{{Dim: 0, Group: 0, Srcs: []int{n}, Dsts: []int{1}}},
		}}},
		{"destination out of range", &Sketch{Root: 0, Stages: []Stage{
			{{Dim: 0, Group: 0, Srcs: []int{0}, Dsts: []int{n}}},
		}}},
		{"negative destination", &Sketch{Root: 0, Stages: []Stage{
			{{Dim: 0, Group: 0, Srcs: []int{0}, Dsts: []int{-1}}},
		}}},
		{"root out of range", &Sketch{Root: n, Stages: []Stage{
			{{Dim: 0, Group: 0, Srcs: []int{0}, Dsts: []int{1}}},
		}}},
		{"negative root", &Sketch{Root: -1}},
	}
	for _, c := range cases {
		if err := c.sk.Validate(top); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDescriptorDistinguishesShapes(t *testing.T) {
	top := topology.H800Rail(4)
	sketches := SearchBroadcast(context.Background(), top, 0, SearchOptions{})
	seen := map[string]bool{}
	for _, sk := range sketches {
		d := sk.Descriptor()
		if seen[d] {
			t.Errorf("duplicate descriptor emitted: %s", d)
		}
		seen[d] = true
	}
}

func TestAutomorphismsIncludeRootStabilizers(t *testing.T) {
	top := topology.H800Rail(2)
	perms := top.Automorphisms()
	if len(perms) == 0 {
		t.Fatal("no automorphisms")
	}
	found := false
	for _, p := range perms {
		if p[0] == 0 {
			id := true
			for i, v := range p {
				if i != v {
					id = false
					break
				}
			}
			if !id {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("no non-trivial automorphism fixes GPU 0 (needed for Broadcast replication)")
	}
	// All returned permutations must preserve every dimension's groups.
	for _, p := range perms {
		for _, dim := range top.Dims {
			for _, grp := range dim.Groups {
				img := dim.GroupOf(p[grp[0]])
				for _, gpu := range grp {
					if dim.GroupOf(p[gpu]) != img {
						t.Fatalf("automorphism %v splits a %s group", p, dim.Name)
					}
				}
			}
		}
	}
}

func TestAutomorphismsHierarchical(t *testing.T) {
	top := topology.Fig20() // Clos with nested server blocks
	perms := top.Automorphisms()
	// Cyclic server rotation by 1 is NOT an automorphism (breaks leaf
	// pairs); XOR shifts are. All survivors must preserve groups, and the
	// family must still be transitive enough to move server 0's GPUs to
	// every server.
	targets := map[int]bool{}
	for _, p := range perms {
		targets[p[0]/4] = true
	}
	if len(targets) != 8 {
		t.Errorf("automorphisms reach %d servers for GPU 0, want 8", len(targets))
	}
}

func TestDescribe(t *testing.T) {
	top := topology.H800Rail(2)
	sk := SearchBroadcast(context.Background(), top, 0, SearchOptions{})[0]
	out := sk.Describe(top)
	for _, want := range []string{"Broadcast sketch rooted at GPU 0", "stage 0", "workload:"} {
		if !contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
	combo := Replicate(top, sk, 0)
	cd := combo.DescribeCombination(top)
	if !contains(cd, "distinct shapes") {
		t.Errorf("DescribeCombination malformed:\n%s", cd)
	}
}

func TestIntSet(t *testing.T) {
	cases := map[string]string{}
	_ = cases
	if got := intSet([]int{1, 2, 3, 4}); got != "{1..4}" {
		t.Errorf("intSet = %q", got)
	}
	if got := intSet([]int{5, 7, 8}); got != "{5,7,8}" {
		t.Errorf("intSet = %q", got)
	}
	if got := intSet([]int{2}); got != "{2}" {
		t.Errorf("intSet = %q", got)
	}
	if got := intSet(nil); got != "{}" {
		t.Errorf("intSet = %q", got)
	}
	if got := intSet([]int{3, 1, 2, 9}); got != "{1..3,9}" {
		t.Errorf("intSet = %q", got)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

// complete reports whether the sketch informs every GPU of the topology.
func complete(s *Sketch, top *topology.Topology) bool {
	covered := map[int]bool{s.Root: true}
	for _, st := range s.Stages {
		for _, sd := range st {
			for _, d := range sd.Dsts {
				covered[d] = true
			}
		}
	}
	return len(covered) == top.NumGPUs()
}

// imbalance measures, per dimension, the spread between the most and
// least loaded active groups, summed over dimensions with any load.
func imbalance(w [][]float64) float64 {
	total := 0.0
	for d := range w {
		lo, hi := math.Inf(1), 0.0
		for _, v := range w[d] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi > 0 {
			total += hi - lo
		}
	}
	return total
}
