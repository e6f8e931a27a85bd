package topology

import (
	"fmt"
	"slices"
)

// Config describes a parametric GPU cluster for Build. It covers the
// paper's topology families: single-server, rail-optimized multi-rail
// (Figs 3, 13b, 19), and Clos (Figs 13a, 20).
//
// Each GPU gets one NVSwitch port (per-GPU NVLink bandwidth 1/NVBeta) and
// one logical NIC (per-GPU network bandwidth 1/NetBeta; shared physical
// NICs are expressed by setting NetBeta to the per-GPU share, e.g. 4×200
// Gbps NICs shared by 8 GPUs → 12.5 GB/s per GPU).
type Config struct {
	Name           string
	Servers        int // number of servers
	GPUsPerServer  int // GPUs (and logical NICs) per server
	NVAlpha        float64
	NVBeta         float64
	NetAlpha       float64
	NetBeta        float64
	ServersPerLeaf int // >0: Clos — leaf l serves this many consecutive servers; 0: rail-optimized — leaf r serves GPUs with local index r
	LeavesPerSpine int // >0: add a spine tier, each spine serving this many consecutive leaves; 0: no spine tier
	WithCore       bool
}

// Build constructs the physical topology described by cfg and extracts its
// dimensions. It panics on invalid configurations (builders are invoked
// with compile-time-known shapes), among them every config whose symmetry
// action splits a group.
func Build(cfg Config) *Topology {
	if cfg.Servers <= 0 || cfg.GPUsPerServer <= 0 {
		panic(fmt.Sprintf("topology.Build: bad shape %d×%d", cfg.Servers, cfg.GPUsPerServer))
	}
	t := build(cfg)
	if err := t.Validate(); err != nil {
		panic("topology.Build produced invalid topology: " + err.Error())
	}
	if err := t.Sym.Validate(t); err != nil {
		panic("topology.Build produced invalid symmetry: " + err.Error())
	}
	return t
}

// build constructs the topology of a well-shaped cfg without checking it.
func build(cfg Config) *Topology {
	t := &Topology{Name: cfg.Name}
	n := cfg.Servers * cfg.GPUsPerServer

	addNode := func(kind NodeKind, server, local int, name string) int {
		id := len(t.Nodes)
		t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, Server: server, Local: local, Name: name})
		return id
	}
	addBidi := func(a, b int, alpha, beta float64) {
		t.Links = append(t.Links, Link{Src: a, Dst: b, Alpha: alpha, Beta: beta})
		t.Links = append(t.Links, Link{Src: b, Dst: a, Alpha: alpha, Beta: beta})
	}

	// GPUs first so their node IDs are 0..n-1.
	for s := 0; s < cfg.Servers; s++ {
		for g := 0; g < cfg.GPUsPerServer; g++ {
			id := addNode(KindGPU, s, g, fmt.Sprintf("gpu%d.%d", s, g))
			t.GPUs = append(t.GPUs, id)
		}
	}

	// Intra-server NVSwitch fabric.
	for s := 0; s < cfg.Servers; s++ {
		if cfg.GPUsPerServer < 2 {
			continue
		}
		nv := addNode(KindNVSwitch, s, -1, fmt.Sprintf("nvswitch%d", s))
		for g := 0; g < cfg.GPUsPerServer; g++ {
			addBidi(s*cfg.GPUsPerServer+g, nv, cfg.NVAlpha/2, cfg.NVBeta)
		}
	}

	// One logical NIC per GPU.
	nics := make([]int, n)
	if cfg.NetBeta > 0 && cfg.Servers > 1 {
		for s := 0; s < cfg.Servers; s++ {
			for g := 0; g < cfg.GPUsPerServer; g++ {
				gpu := s*cfg.GPUsPerServer + g
				nic := addNode(KindNIC, s, g, fmt.Sprintf("nic%d.%d", s, g))
				nics[gpu] = nic
				addBidi(gpu, nic, 0, cfg.NetBeta)
			}
		}

		hopAlpha := cfg.NetAlpha / 2

		// Leaf tier.
		var leaves []int
		if cfg.ServersPerLeaf > 0 {
			// Clos: leaf l serves ServersPerLeaf consecutive servers.
			numLeaves := (cfg.Servers + cfg.ServersPerLeaf - 1) / cfg.ServersPerLeaf
			for l := 0; l < numLeaves; l++ {
				leaf := addNode(KindLeafSwitch, -1, -1, fmt.Sprintf("leaf%d", l))
				leaves = append(leaves, leaf)
				for s := l * cfg.ServersPerLeaf; s < (l+1)*cfg.ServersPerLeaf && s < cfg.Servers; s++ {
					for g := 0; g < cfg.GPUsPerServer; g++ {
						addBidi(nics[s*cfg.GPUsPerServer+g], leaf, hopAlpha, cfg.NetBeta)
					}
				}
			}
		} else {
			// Rail-optimized: leaf r serves all GPUs with local index r.
			for r := 0; r < cfg.GPUsPerServer; r++ {
				leaf := addNode(KindLeafSwitch, -1, -1, fmt.Sprintf("leaf%d", r))
				leaves = append(leaves, leaf)
				for s := 0; s < cfg.Servers; s++ {
					addBidi(nics[s*cfg.GPUsPerServer+r], leaf, hopAlpha, cfg.NetBeta)
				}
			}
		}

		// Spine tier.
		var spines []int
		if cfg.LeavesPerSpine > 0 && len(leaves) > 1 {
			numSpines := (len(leaves) + cfg.LeavesPerSpine - 1) / cfg.LeavesPerSpine
			for sp := 0; sp < numSpines; sp++ {
				spine := addNode(KindSpineSwitch, -1, -1, fmt.Sprintf("spine%d", sp))
				spines = append(spines, spine)
				for l := sp * cfg.LeavesPerSpine; l < (sp+1)*cfg.LeavesPerSpine && l < len(leaves); l++ {
					addBidi(leaves[l], spine, hopAlpha, cfg.NetBeta)
				}
			}
		}

		// Core tier.
		if cfg.WithCore && len(spines) > 1 {
			core := addNode(KindCoreSwitch, -1, -1, "core")
			for _, sp := range spines {
				addBidi(sp, core, hopAlpha, cfg.NetBeta)
			}
		}
	}

	extractDims(t, cfg)
	t.Sym = buildSymmetry(cfg)
	return t
}

// extractDims derives the logical dimensions from the physical graph
// (§3.1: "SyCCL automatically extracts the dimensions and groups according
// to connectivity and connection performance"). Every tier's groups and
// their costs come from tierGroups, the one extractor Delta.Apply uses
// too; the links carry the Config's costs, so a tier's dimension-level
// α/β is its groups' common bottleneck.
//
// Dimension 0 is the intra-server fabric: GPUs connected through NVSwitch
// nodes. Each subsequent dimension corresponds to a network switch tier t:
// its groups are the connected components of the graph restricted to GPUs,
// NICs, and network switches of tier ≤ t. A tier that does not coarsen the
// previous partition contributes no dimension. All network tiers traverse
// the same NIC, hence port class 1.
func extractDims(t *Topology, cfg Config) {
	maxTier := 0
	for _, nd := range t.Nodes {
		maxTier = max(maxTier, nd.Kind.tier())
	}
	names := [...]string{"nvswitch", "leaf", "spine", "core"}
	if cfg.ServersPerLeaf == 0 {
		names[1] = "rail"
	}
	var prev [][]int
	for tier := 0; tier <= maxTier; tier++ {
		groups, alpha, beta := tierGroups(t, tier)
		if slices.EqualFunc(groups, prev, slices.Equal) || !coarserThanSingletons(groups) {
			continue
		}
		dim := newDim(len(t.Dims), names[tier], alpha[0], beta[0], min(tier, 1), groups, t.NumGPUs())
		dim.Tier = tier
		dim.setGroupCosts(alpha, beta)
		t.Dims = append(t.Dims, dim)
		prev = groups
	}
}

// tierGroups is the dimension extractor. It returns the groups of a
// switch tier — the GPU components of the subgraph dimKindFilter(tier)
// admits, ordered by smallest member, members ascending — and each
// group's link bottleneck: β is the largest link β of the group's
// component and α is hops × its largest link α, where hops = 2·tier (2
// for tier 0) counts the way up to the tier's switches and back down. A
// group whose component has no links costs 0.
func tierGroups(t *Topology, tier int) (groups [][]int, alpha, beta []float64) {
	allowed := dimKindFilter(tier)
	in := make([]bool, len(t.Nodes))
	for i, nd := range t.Nodes {
		in[i] = allowed(nd.Kind)
	}
	uf := newUnionFind(len(t.Nodes))
	for _, l := range t.Links {
		if in[l.Src] && in[l.Dst] {
			uf.union(l.Src, l.Dst)
		}
	}
	// GPUs are nodes 0..n-1, so visiting them in order numbers the groups
	// by smallest member and fills each in ascending order. Members are
	// cut from one slab.
	n := t.NumGPUs()
	groupOf := make([]int, len(t.Nodes)) // component root -> group + 1
	size := make([]int, 0, n)
	for gpu := 0; gpu < n; gpu++ {
		r := uf.find(gpu)
		if groupOf[r] == 0 {
			size = append(size, 0)
			groupOf[r] = len(size)
		}
		size[groupOf[r]-1]++
	}
	groups = make([][]int, len(size))
	slab := make([]int, 0, n)
	for g, sz := range size {
		groups[g] = slab[len(slab) : len(slab) : len(slab)+sz]
		slab = slab[:len(slab)+sz]
	}
	for gpu := 0; gpu < n; gpu++ {
		g := groupOf[uf.find(gpu)] - 1
		groups[g] = append(groups[g], gpu)
	}

	alpha = make([]float64, len(groups))
	beta = make([]float64, len(groups))
	for _, l := range t.Links {
		if !in[l.Src] || !in[l.Dst] {
			continue
		}
		g := groupOf[uf.find(l.Src)] - 1
		if g < 0 {
			continue // a component without GPUs
		}
		if l.Alpha > alpha[g] {
			alpha[g] = l.Alpha
		}
		if l.Beta > beta[g] {
			beta[g] = l.Beta
		}
	}
	hops := float64(max(2*tier, 2))
	for g := range alpha {
		alpha[g] *= hops
	}
	return groups, alpha, beta
}

func coarserThanSingletons(groups [][]int) bool {
	for _, g := range groups {
		if len(g) > 1 {
			return true
		}
	}
	return false
}

type unionFind struct{ parent, rank []int }

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
