package sketch

// ExpandAllToAll and Validate as they stood before the all-roots copies
// moved into one arena: every root's copy is a fresh Map and every
// validation a fresh state array. Kept verbatim (renamed, calling
// mapReference and validateReference where they called Map and
// Validate, and rootPermReference where they built the symmetry element
// carrying the root) as the reference TestExpandAllToAllEquivalence and
// FuzzExpandAllToAllEquivalence hold the arena expansion to.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"syccl/internal/topology"
)

func expandAllToAllReference(top *topology.Topology, sk *Sketch) (combo *Combination, missing []int) {
	n := top.NumGPUs()
	sketches := make([]*Sketch, 0, n)
	var autos [][]int // lazily fetched verified automorphisms
	for r := 0; r < n; r++ {
		if r == sk.Root {
			sketches = append(sketches, sk)
			continue
		}
		if m := mapReference(sk, top, rootPermReference(top, sk.Root, r)); validateReference(m, top) == nil {
			sketches = append(sketches, m)
			continue
		}
		if autos == nil {
			autos = top.Automorphisms()
		}
		found := false
		for _, perm := range autos {
			if perm[sk.Root] != r {
				continue
			}
			if m := mapReference(sk, top, perm); validateReference(m, top) == nil {
				sketches = append(sketches, m)
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, r)
		}
	}
	fracs := make([]float64, len(sketches))
	for i := range fracs {
		fracs[i] = 1 // each root's chunk is carried whole by its sketch
	}
	return &Combination{Sketches: sketches, Fracs: fracs}, missing
}

// rootPermReference returns a fresh copy of the symmetry element
// carrying GPU from to GPU to.
func rootPermReference(top *topology.Topology, from, to int) []int {
	perm := make([]int, top.NumGPUs())
	top.Sym.RootPerm(perm, from, to)
	return perm
}

func validateReference(s *Sketch, top *topology.Topology) error {
	// state[g] is 0 while GPU g is uninformed, else 1 + the stage that
	// informed it, the root's stage being 0.
	state := make([]int32, top.NumGPUs())
	if s.Root < 0 || s.Root >= len(state) {
		return fmt.Errorf("sketch: root %d out of range", s.Root)
	}
	state[s.Root] = 1
	for k, st := range s.Stages {
		// A GPU informed before stage k has 0 < state ≤ before.
		before := int32(k + 1)
		for _, sd := range st {
			if sd.Dim < 0 || sd.Dim >= top.NumDims() {
				return fmt.Errorf("sketch: stage %d: missing dimension %d", k, sd.Dim)
			}
			dim := top.Dim(sd.Dim)
			for _, src := range sd.Srcs {
				if src < 0 || src >= len(state) || state[src] == 0 || state[src] > before {
					return fmt.Errorf("sketch: stage %d: source %d not informed", k, src)
				}
				if dim.GroupOf(src) != sd.Group {
					return fmt.Errorf("sketch: stage %d: source %d not in dim %d group %d", k, src, sd.Dim, sd.Group)
				}
			}
			for _, dst := range sd.Dsts {
				if dst >= 0 && dst < len(state) && state[dst] != 0 {
					return fmt.Errorf("sketch: stage %d: GPU %d is a destination twice", k, dst)
				}
				if dst < 0 || dst >= len(state) || dim.GroupOf(dst) != sd.Group {
					return fmt.Errorf("sketch: stage %d: destination %d not in dim %d group %d", k, dst, sd.Dim, sd.Group)
				}
				state[dst] = before + 1
			}
			if len(sd.Srcs) == 0 || len(sd.Dsts) == 0 {
				return fmt.Errorf("sketch: stage %d has empty sub-demand", k)
			}
		}
	}
	return nil
}

// expandStats counts what an expansion of sk went through: roots whose
// regular-action copy failed validation, and of those the ones no
// verified automorphism reached either.
type expandStats struct{ fallbacks, missing int }

// checkExpand fails unless ExpandAllToAll returns what the reference
// returns for sk — DeepEqual combinations, identical missing lists — and
// Validate agrees with the reference on every copy.
func checkExpand(t *testing.T, what string, top *topology.Topology, sk *Sketch, stats *expandStats) {
	t.Helper()
	got, gotMissing := ExpandAllToAll(top, sk)
	want, wantMissing := expandAllToAllReference(top, sk)
	if !reflect.DeepEqual(gotMissing, wantMissing) {
		t.Fatalf("%s: %v: missing %v, reference %v", what, sk, gotMissing, wantMissing)
	}
	if !reflect.DeepEqual(got, want) {
		i := 0
		for i < len(got.Sketches) && i < len(want.Sketches) && reflect.DeepEqual(got.Sketches[i], want.Sketches[i]) {
			i++
		}
		t.Fatalf("%s: %v: %d copies, reference %d; first difference at %d", what, sk, len(got.Sketches), len(want.Sketches), i)
	}
	for _, m := range got.Sketches {
		if g, w := fmt.Sprint(m.Validate(top)), fmt.Sprint(validateReference(m, top)); g != w {
			t.Fatalf("%s: Validate %s, reference %s", what, g, w)
		}
	}
	n := top.NumGPUs()
	for r := 0; r < n; r++ {
		if r != sk.Root && validateReference(mapReference(sk, top, rootPermReference(top, sk.Root, r)), top) != nil {
			stats.fallbacks++
		}
	}
	stats.missing += len(wantMissing)
}

// degradedFabrics are presets with rail or leaf uplinks killed, which
// breaks the regular symmetry action: GPU 0's, and GPU 0's and GPU 1's.
func degradedFabrics(t *testing.T) []struct {
	name string
	top  *topology.Topology
} {
	var out []struct {
		name string
		top  *topology.Topology
	}
	for _, c := range []struct {
		name string
		base *topology.Topology
	}{
		{"h800small", topology.H800Small(6)},
		{"h800x16", topology.H800Rail(2)},
		{"a100x16", topology.A100Clos(2)},
	} {
		for _, gpus := range [][]int{{0}, {0, 1}} {
			d := &topology.Delta{}
			for _, g := range gpus {
				nic, leaf := uplink(c.base, g)
				if nic < 0 || leaf < 0 {
					t.Fatalf("%s: GPU %d has no NIC uplink", c.name, g)
				}
				d.FailLinks = append(d.FailLinks, topology.LinkFail{A: nic, B: leaf})
			}
			top, err := d.Apply(c.base)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, d, err)
			}
			out = append(out, struct {
				name string
				top  *topology.Topology
			}{c.name + "/" + d.String(), top})
		}
	}
	return out
}

// uplink returns GPU g's NIC and the leaf switch it connects to, -1 where
// there is none.
func uplink(top *topology.Topology, g int) (nic, leaf int) {
	nic, leaf = -1, -1
	for _, l := range top.Links {
		if l.Src == g && top.Nodes[l.Dst].Kind == topology.KindNIC {
			nic = l.Dst
			break
		}
	}
	for _, l := range top.Links {
		if nic >= 0 && l.Src == nic && top.Nodes[l.Dst].Kind == topology.KindLeafSwitch {
			leaf = l.Dst
			break
		}
	}
	return nic, leaf
}

// TestExpandAllToAllEquivalence holds ExpandAllToAll to the reference on
// every preset's searched Broadcast and Scatter sketches from root 0 and
// (up to 64 GPUs) the last GPU, and on degraded fabrics where copies fail
// validation, the automorphism fallback runs and roots stay missing.
func TestExpandAllToAllEquivalence(t *testing.T) {
	for _, p := range presets() {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			if raceEnabled && p.top.NumGPUs() > 64 {
				t.Skip("serial check; too slow under -race")
			}
			var stats expandStats
			roots := []int{0, p.top.NumGPUs() - 1}
			if p.top.NumGPUs() > 64 {
				roots = roots[:1]
			}
			for _, root := range roots {
				for _, scatter := range []bool{false, true} {
					for _, sk := range runSearch(context.Background(), p.top, root, scatter, SearchOptions{}) {
						checkExpand(t, p.name, p.top, sk, &stats)
					}
				}
			}
			if stats.fallbacks != 0 {
				t.Fatalf("%d regular-action copies failed validation on a healthy fabric", stats.fallbacks)
			}
		})
	}
	var stats expandStats
	for _, f := range degradedFabrics(t) {
		for _, root := range []int{0, 1, f.top.NumGPUs() - 1} {
			for _, scatter := range []bool{false, true} {
				for _, sk := range runSearch(context.Background(), f.top, root, scatter, SearchOptions{}) {
					checkExpand(t, f.name, f.top, sk, &stats)
				}
			}
		}
	}
	t.Logf("degraded fabrics: %d regular-action copies failed validation, %d roots missing", stats.fallbacks, stats.missing)
	if stats.fallbacks == 0 || stats.missing == 0 || stats.missing >= stats.fallbacks {
		t.Fatalf("test premise: the degraded fabrics must exercise both the automorphism fallback and missing roots (%+v)", stats)
	}
}

// FuzzExpandAllToAllEquivalence holds ExpandAllToAll to the reference on
// random fabrics, some degraded by a random delta, for the sketches a
// search from a random root finds.
func FuzzExpandAllToAllEquivalence(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint8(0), uint8(0), int64(1), uint16(0), uint8(0))
	f.Add(uint8(4), uint8(4), uint8(1), uint8(1), int64(7), uint16(5), uint8(1))
	f.Add(uint8(3), uint8(8), uint8(2), uint8(2), int64(3), uint16(17), uint8(0))
	f.Add(uint8(5), uint8(2), uint8(3), uint8(3), int64(9), uint16(9), uint8(1))
	f.Fuzz(func(t *testing.T, servers, gpus, layout, deltaOps uint8, deltaSeed int64, root uint16, scatter uint8) {
		top := fuzzTopology(servers, gpus, layout, deltaOps, deltaSeed)
		var stats expandStats
		sks := runSearch(context.Background(), top, int(root)%top.NumGPUs(), scatter&1 != 0, SearchOptions{MaxSketches: 8})
		for _, sk := range sks {
			checkExpand(t, "fuzz", top, sk, &stats)
		}
	})
}

// TestExpandAllToAllAllocs is an allocation tripwire on the all-roots
// expansion of h800x64's first broadcast and scatter sketches: the copies
// share one arena and the permutation and validation state are reused,
// so the count does not grow with the GPU count (a copy per root used to
// cost about six).
func TestExpandAllToAllAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	top := topology.H800Rail(8)
	for _, scatter := range []bool{false, true} {
		sk := runSearch(context.Background(), top, 0, scatter, SearchOptions{})[0]
		allocs := testing.AllocsPerRun(5, func() { ExpandAllToAll(top, sk) })
		t.Logf("%s: %.0f allocations per expansion over %d GPUs", shapeName(scatter), allocs, top.NumGPUs())
		if allocs > 16 {
			t.Errorf("%s: %.0f allocations per expansion, want ≤ 16", shapeName(scatter), allocs)
		}
	}
}

// BenchmarkExpandAllToAll times the all-roots expansion of the first
// sketch a search from root 0 finds, per preset and shape.
func BenchmarkExpandAllToAll(b *testing.B) {
	for _, p := range presets() {
		for _, scatter := range []bool{false, true} {
			b.Run(p.name+"/"+shapeName(scatter), func(b *testing.B) {
				sk := runSearch(context.Background(), p.top, 0, scatter, SearchOptions{})[0]
				b.ReportAllocs()
				for b.Loop() {
					ExpandAllToAll(p.top, sk)
				}
			})
		}
	}
}
