package sketch

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"syccl/internal/topology"
)

// presets are the topologies cli.ParseTopology names (cli imports this
// package, so its spec parser cannot be used here).
func presets() []struct {
	name string
	top  *topology.Topology
} {
	return []struct {
		name string
		top  *topology.Topology
	}{
		{"dgx4", topology.SingleServer(4)},
		{"server8", topology.SingleServer(8)},
		{"a100x16", topology.A100Clos(2)},
		{"a100x32", topology.A100Clos(4)},
		{"h800x16", topology.H800Rail(2)},
		{"h800x64", topology.H800Rail(8)},
		{"h800x512", topology.H800Rail(64)},
		{"h800small", topology.H800Small(6)},
		{"fig3", topology.Fig3()},
		{"fig19", topology.Fig19()},
		{"fig20", topology.Fig20()},
	}
}

// equivHints are the hints the equivalence checks run under: none, each
// family, a dimension order, a stage size, and an unsatisfiable size.
func equivHints(top *topology.Topology) []*Hint {
	return []*Hint{
		nil,
		{Family: FamilyFlat},
		{Family: FamilyTree},
		{DimOrder: []int{top.NumDims() - 1, 0}},
		{GroupSizes: []int{2}},
		{GroupSizes: []int{1 << 20}},
	}
}

// equivRoots returns the distinct roots among 0, 1 and n−1.
func equivRoots(n int) []int {
	roots := []int{0}
	for _, r := range []int{1, n - 1} {
		if r > roots[len(roots)-1] && r < n {
			roots = append(roots, r)
		}
	}
	return roots
}

// checkSearch fails unless the search returns what the reference search
// returns, and every sketch's descriptors render as the reference's do.
func checkSearch(t *testing.T, top *topology.Topology, root int, scatter bool, opts SearchOptions) []*Sketch {
	t.Helper()
	want := runSearchReference(context.Background(), top, root, scatter, opts)
	got := runSearch(context.Background(), top, root, scatter, opts)
	if !reflect.DeepEqual(got, want) {
		i := 0
		for i < len(got) && i < len(want) && reflect.DeepEqual(got[i], want[i]) {
			i++
		}
		t.Fatalf("root %d scatter %v opts %+v hint %q: %d sketches, reference %d; first difference at %d",
			root, scatter, opts, opts.Hint.Canonical(), len(got), len(want), i)
	}
	for _, sk := range got {
		if d, w := sk.Descriptor(), descriptorReference(sk); d != w {
			t.Fatalf("Descriptor %q, reference %q", d, w)
		}
		if d, w := string(sk.appendExact([]byte(sk.Descriptor()))), exactDescriptorReference(sk); d != w {
			t.Fatalf("exact descriptor %q, reference %q", d, w)
		}
	}
	return got
}

// checkReplicate fails unless Replicate, Clone, Map and the workloads
// return what their references return for sk.
func checkReplicate(t *testing.T, top *topology.Topology, sk *Sketch) {
	t.Helper()
	if got, want := sk.Clone(), cloneReference(sk); !reflect.DeepEqual(got, want) {
		t.Fatalf("Clone of %v differs from the reference", sk)
	}
	if got, want := sk.Workload(top), workloadReference(sk, top); !reflect.DeepEqual(got, want) {
		t.Fatalf("Workload of %v: %v, reference %v", sk, got, want)
	}
	perms := top.Automorphisms()
	for _, p := range []int{0, len(perms) / 2, len(perms) - 1} {
		if got, want := sk.Map(top, perms[p]), mapReference(sk, top, perms[p]); !reflect.DeepEqual(got, want) {
			t.Fatalf("Map of %v under automorphism %d differs from the reference", sk, p)
		}
	}
	for _, max := range []int{0, 2} {
		got, want := Replicate(top, sk, max), replicateReference(top, sk, max)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Replicate(%v, %d): %d sketches, reference %d", sk, max, len(got.Sketches), len(want.Sketches))
		}
		if w, rw := got.Workload(top), combinationWorkloadReference(want, top); !reflect.DeepEqual(w, rw) {
			t.Fatalf("Combination.Workload of Replicate(%v, %d): %v, reference %v", sk, max, w, rw)
		}
	}
}

// TestSearchMatchesReference holds the search to the reference search,
// sketch for sketch, over every preset, roots 0, 1 and n−1, both shapes,
// the equivalence hints, each prune toggle and two sketch budgets; and
// replication to its reference on every preset's first sketches.
func TestSearchMatchesReference(t *testing.T) {
	for _, p := range presets() {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			top := p.top
			if raceEnabled && top.NumGPUs() > 64 {
				t.Skip("serial check; too slow under -race")
			}
			for _, root := range equivRoots(top.NumGPUs()) {
				for _, scatter := range []bool{false, true} {
					for _, hint := range equivHints(top) {
						for _, prune := range [][2]bool{{false, false}, {true, false}, {false, true}} {
							for _, maxSketches := range []int{0, 5} {
								sks := checkSearch(t, top, root, scatter, SearchOptions{
									MaxSketches: maxSketches, DisablePrune1: prune[0], DisablePrune2: prune[1], Hint: hint,
								})
								if hint == nil && prune == [2]bool{} && maxSketches == 0 {
									for _, sk := range sks[:min(len(sks), 3)] {
										checkReplicate(t, top, sk)
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// FuzzSearchEquivalence holds the search and replication to their
// references on random fabrics, some degraded by a random delta, under a
// random root, shape, hint, prune toggles and sketch budget.
func FuzzSearchEquivalence(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint8(0), uint8(0), int64(1), uint16(0), uint8(0), uint8(63))
	f.Add(uint8(4), uint8(4), uint8(1), uint8(1), int64(7), uint16(5), uint8(0x13), uint8(4))
	f.Add(uint8(3), uint8(8), uint8(2), uint8(2), int64(3), uint16(17), uint8(0x2c), uint8(0))
	f.Add(uint8(5), uint8(2), uint8(3), uint8(1), int64(9), uint16(9), uint8(0x3b), uint8(20))
	f.Fuzz(func(t *testing.T, servers, gpus, layout, deltaOps uint8, deltaSeed int64, root uint16, flags, maxSketches uint8) {
		top := fuzzTopology(servers, gpus, layout, deltaOps, deltaSeed)
		hints := equivHints(top)
		opts := SearchOptions{
			MaxSketches:   1 + int(maxSketches)%64,
			DisablePrune1: flags&0x10 != 0,
			DisablePrune2: flags&0x20 != 0,
			Hint:          hints[int(flags>>1&0x7)%len(hints)],
		}
		sks := checkSearch(t, top, int(root)%top.NumGPUs(), flags&1 != 0, opts)
		for _, sk := range sks[:min(len(sks), 2)] {
			checkReplicate(t, top, sk)
		}
	})
}

// fuzzTopology builds a fabric of 1–6 servers of 1–8 GPUs — rail,
// Clos, Clos with spines, or Clos with spines and a core (a tier that
// breaks the builder's symmetry action is dropped) — and, when
// deltaOps is not zero, degrades it by up to deltaOps%4 random link kills
// and α/β slowdowns (a delta that does not apply is dropped).
func fuzzTopology(servers, gpus, layout, deltaOps uint8, deltaSeed int64) *topology.Topology {
	cfg := topology.Config{
		Name: "fuzz", Servers: 1 + int(servers)%6, GPUsPerServer: 1 + int(gpus)%8,
		NVAlpha: topology.NVAlpha, NVBeta: 1 / topology.H800NVBandwidth,
		NetAlpha: topology.NetAlpha, NetBeta: 1 / topology.H800NetBandwidth,
	}
	if kind := layout % 4; kind > 0 {
		var divisors []int
		for d := 1; d <= cfg.Servers; d++ {
			if cfg.Servers%d == 0 {
				divisors = append(divisors, d)
			}
		}
		cfg.ServersPerLeaf = divisors[int(layout>>2)%len(divisors)]
		if kind >= 2 {
			cfg.LeavesPerSpine = 2
		}
		cfg.WithCore = kind == 3
	}
	// Where a tier splits the builder's symmetry action, go without it.
	top := tryBuild(cfg)
	if top == nil {
		cfg.LeavesPerSpine, cfg.WithCore = 0, false
		top = tryBuild(cfg)
	}
	if top == nil {
		cfg.ServersPerLeaf = 0
		top = topology.Build(cfg)
	}
	rng := rand.New(rand.NewSource(deltaSeed))
	d := &topology.Delta{}
	for i := 0; i < int(deltaOps)%4 && len(top.Links) > 0; i++ {
		l := top.Links[rng.Intn(len(top.Links))]
		switch rng.Intn(3) {
		case 0:
			d.FailLinks = append(d.FailLinks, topology.LinkFail{A: l.Src, B: l.Dst})
		case 1:
			d.Degrade = append(d.Degrade, topology.LinkDegrade{A: l.Src, B: l.Dst, AlphaScale: 1, BetaScale: float64(2 + rng.Intn(7))})
		default:
			d.Degrade = append(d.Degrade, topology.LinkDegrade{A: l.Src, B: l.Dst, AlphaScale: float64(2 + rng.Intn(4)), BetaScale: 1})
		}
	}
	if d.Empty() {
		return top
	}
	if deg, err := d.Apply(top); err == nil {
		return deg
	}
	return top
}

// tryBuild is topology.Build, nil where Build refuses the configuration.
func tryBuild(cfg topology.Config) (top *topology.Topology) {
	defer func() {
		if recover() != nil {
			top = nil
		}
	}()
	return topology.Build(cfg)
}

// TestSearchAllocs is an allocation tripwire on two broadcast searches:
// the per-depth state is reused, so what remains is the dedupe map, the
// emitted sketches and the first visit of each depth.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, c := range []struct {
		name string
		top  *topology.Topology
		max  float64
	}{
		{"a100x16", topology.A100Clos(2), 1500},
		{"h800x64", topology.H800Rail(8), 1000},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			SearchBroadcast(context.Background(), c.top, 0, SearchOptions{})
		})
		t.Logf("%s: %.0f allocations per search", c.name, allocs)
		if allocs > c.max {
			t.Errorf("%s: %.0f allocations per search, want ≤ %.0f", c.name, allocs, c.max)
		}
	}
}

// BenchmarkSearch times one sketch search per preset and shape from
// root 0 at the default options.
func BenchmarkSearch(b *testing.B) {
	for _, p := range presets() {
		for _, scatter := range []bool{false, true} {
			b.Run(p.name+"/"+shapeName(scatter), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					runSearch(context.Background(), p.top, 0, scatter, SearchOptions{})
				}
			})
		}
	}
}

// BenchmarkReplicate times replication of the first sketch a search
// from root 0 finds, per preset and shape.
func BenchmarkReplicate(b *testing.B) {
	for _, p := range presets() {
		for _, scatter := range []bool{false, true} {
			b.Run(p.name+"/"+shapeName(scatter), func(b *testing.B) {
				sk := runSearch(context.Background(), p.top, 0, scatter, SearchOptions{})[0]
				p.top.Automorphisms() // memoized per topology; not what is timed
				b.ReportAllocs()
				for b.Loop() {
					Replicate(p.top, sk, 0)
				}
			})
		}
	}
}

func shapeName(scatter bool) string {
	if scatter {
		return "scatter"
	}
	return "broadcast"
}
