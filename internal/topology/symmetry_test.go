package topology

import (
	"slices"
	"testing"
)

// elements returns every element of top's action, RootPerm(0, r) for
// r = 0 … n-1: the action is regular, so these are all of them.
func elements(top *Topology) [][]int {
	out := make([][]int, top.NumGPUs())
	for r := range out {
		out[r] = make([]int, top.NumGPUs())
		top.Sym.RootPerm(out[r], 0, r)
	}
	return out
}

func TestSymmetryTransitive(t *testing.T) {
	for _, top := range []*Topology{Fig3(), Fig19(), Fig20(), A100Clos(4), H800Rail(8), H800Small(6)} {
		n := top.NumGPUs()
		perm := make([]int, n)
		for _, to := range []int{0, 1, n / 2, n - 1} {
			top.Sym.RootPerm(perm, 0, to)
			if perm[0] != to {
				t.Errorf("%s: RootPerm(0,%d) maps 0 to %d", top.Name, to, perm[0])
			}
		}
	}
}

func TestSymmetryIsPermutation(t *testing.T) {
	top := Fig20()
	for r, perm := range elements(top) {
		seen := make([]bool, len(perm))
		for _, v := range perm {
			if v < 0 || v >= len(perm) || seen[v] {
				t.Fatalf("element carrying 0 to %d is not a permutation: %v", r, perm)
			}
			seen[v] = true
		}
	}
}

func TestSymmetryPreservesGroups(t *testing.T) {
	// Validate checks only the generators; exercise every element of a
	// hierarchical topology.
	top := Fig3()
	for r, perm := range elements(top) {
		for _, dim := range top.Dims {
			for _, grp := range dim.Groups {
				img := dim.GroupOf(perm[grp[0]])
				for _, gpu := range grp {
					if dim.GroupOf(perm[gpu]) != img {
						t.Fatalf("element carrying 0 to %d splits dim %s group %v", r, dim.Name, grp)
					}
				}
			}
		}
	}
}

func TestSymmetryCyclicServers(t *testing.T) {
	top := Fig19() // 7 servers: cyclic axis
	if top.Sym.Server.Xor {
		t.Fatal("7-server axis should be cyclic")
	}
	perm := make([]int, top.NumGPUs())
	top.Sym.RootPerm(perm, 0, 4) // GPU 4 = server 1, local 0
	if perm[1] != 5 {
		t.Errorf("RootPerm(0,4) moves the local index: 1 -> %d", perm[1])
	}
	if perm[24] != 0 { // server 6 wraps to 0
		t.Errorf("wraparound: %d", perm[24])
	}
}

func TestSymmetryAllCount(t *testing.T) {
	top := H800Rail(8)
	perms := elements(top)
	for i := range perms {
		for _, q := range perms[:i] {
			if slices.Equal(perms[i], q) {
				t.Fatalf("element carrying 0 to %d repeats an earlier one", i)
			}
		}
	}
	if len(perms) != 64 {
		t.Errorf("%d elements, want 64", len(perms))
	}
}

// TestIdentity holds the first automorphism to the identity: sketch
// replication skips it without looking.
func TestIdentity(t *testing.T) {
	for _, top := range presets() {
		for i, v := range top.Automorphisms()[0] {
			if i != v {
				t.Fatalf("%s: Automorphisms()[0] maps %d to %d", top.Name, i, v)
			}
		}
	}
}

func TestAxisApply(t *testing.T) {
	x := Axis{N: 8, Xor: true}
	if x.apply(3, 5) != 6 { // 5^3
		t.Errorf("xor apply = %d", x.apply(3, 5))
	}
	c := Axis{N: 7, Xor: false}
	if c.apply(3, 5) != 1 { // (5+3)%7
		t.Errorf("cyclic apply = %d", c.apply(3, 5))
	}
	one := Axis{N: 1}
	if one.apply(5, 0) != 0 {
		t.Error("singleton axis must be identity")
	}
}

func TestRootPermRoundTripAllPairs(t *testing.T) {
	top := H800Small(6) // cyclic server axis × xor local axis
	n := top.NumGPUs()
	perm := make([]int, n)
	for from := 0; from < n; from += 5 {
		for to := 0; to < n; to += 3 {
			top.Sym.RootPerm(perm, from, to)
			if perm[from] != to {
				t.Fatalf("RootPerm(%d,%d): applied to %d", from, to, perm[from])
			}
		}
	}
}

// TestSymmetryConfigGrid holds Validate's generator check to the check of
// every element: over a grid of Build configs, Validate passes exactly
// when every element RootPerm(0, r) preserves the groups. Every preset
// passes; 8 servers × 1 GPU with 6 servers per leaf, whose shift-2
// element maps server 4 into the second leaf, is refused.
func TestSymmetryConfigGrid(t *testing.T) {
	for name, cfg := range presetConfigs() {
		if top := build(cfg); top.Sym.Validate(top) != nil {
			t.Errorf("preset %s refused", name)
		}
	}
	found := Config{Servers: 8, GPUsPerServer: 1, NetBeta: 1, ServersPerLeaf: 6}
	if top := build(found); top.Sym.Validate(top) == nil {
		t.Error("8 servers × 1 GPU, 6 servers per leaf accepted")
	}
	accepted, refused := 0, 0
	for servers := 1; servers <= 8; servers++ {
		for gpus := 1; gpus <= 8; gpus++ {
			for spl := 0; spl <= 8; spl++ {
				for lps := 0; lps <= 4; lps++ {
					for _, withCore := range []bool{false, true} {
						cfg := Config{
							Servers: servers, GPUsPerServer: gpus,
							NVAlpha: 1e-6, NVBeta: 1, NetAlpha: 1e-5, NetBeta: 4,
							ServersPerLeaf: spl, LeavesPerSpine: lps, WithCore: withCore,
						}
						top := build(cfg)
						whole := true
						for _, perm := range elements(top) {
							if !groupPreserving(top, perm) {
								whole = false
								break
							}
						}
						if err := top.Sym.Validate(top); (err == nil) != whole {
							t.Fatalf("%+v: Validate says %v, every-element check says %v", cfg, err, whole)
						}
						if whole {
							accepted++
						} else {
							refused++
						}
					}
				}
			}
		}
	}
	t.Logf("%d configs accepted, %d refused", accepted, refused)
}
