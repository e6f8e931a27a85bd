package topology

// The dimension extraction as it stood before Build and Delta.Apply
// shared one per-tier extractor, kept verbatim (renamed) as the oracle
// for TestExtractMatchesReference and FuzzApplyEquivalence. Build took
// groups from graph components and costs from its Config; Apply copied
// the costs of groups a delta did not touch from the base and priced
// touched groups by their worst surviving link.

import "fmt"

// extractDimsReference derives the logical dimensions from the physical graph
// (§3.1: "SyCCL automatically extracts the dimensions and groups according
// to connectivity and connection performance").
//
// Dimension 0 is the intra-server fabric: GPUs connected through NVSwitch
// nodes. Each subsequent dimension corresponds to a network switch tier t:
// its groups are the connected components of the graph restricted to GPUs,
// NICs, and network switches of tier ≤ t. A tier that does not coarsen the
// previous partition contributes no dimension.
func extractDimsReference(t *Topology, cfg Config) {
	n := t.NumGPUs()

	components := func(allowed func(NodeKind) bool) [][]int {
		uf := newUnionFind(len(t.Nodes))
		for _, l := range t.Links {
			if allowed(t.Nodes[l.Src].Kind) && allowed(t.Nodes[l.Dst].Kind) {
				uf.union(l.Src, l.Dst)
			}
		}
		byRoot := make(map[int][]int)
		for _, gpu := range t.GPUs {
			r := uf.find(gpu)
			byRoot[r] = append(byRoot[r], gpu)
		}
		groups := make([][]int, 0, len(byRoot))
		for _, grp := range byRoot {
			groups = append(groups, grp)
		}
		sortGroupsReference(groups)
		return groups
	}

	// Dimension 0: intra-server fabric.
	d0 := components(func(k NodeKind) bool { return k == KindGPU || k == KindNVSwitch })
	if coarserThanSingletons(d0) {
		dim := newDim(len(t.Dims), "nvswitch", cfg.NVAlpha, cfg.NVBeta, 0, d0, n)
		dim.Tier = 0
		t.Dims = append(t.Dims, dim)
	}

	// Network tiers.
	prev := d0
	names := map[int]string{1: "leaf", 2: "spine", 3: "core"}
	if cfg.ServersPerLeaf == 0 {
		names[1] = "rail"
	}
	for tier := 1; tier <= 3; tier++ {
		hasTier := false
		for _, nd := range t.Nodes {
			if nd.Kind.tier() == tier {
				hasTier = true
				break
			}
		}
		if !hasTier {
			continue
		}
		maxTier := tier
		grp := components(func(k NodeKind) bool {
			if k == KindGPU || k == KindNIC {
				return true
			}
			tt := k.tier()
			return tt >= 1 && tt <= maxTier
		})
		if samePartitionReference(grp, prev) || !coarserThanSingletons(grp) {
			continue
		}
		// α grows with tier depth: GPU→NIC (0) + tier hops up and down.
		// All network tiers traverse the same NIC, hence port class 1.
		alpha := float64(tier) * cfg.NetAlpha
		dim := newDim(len(t.Dims), names[tier], alpha, cfg.NetBeta, 1, grp, n)
		dim.Tier = tier
		t.Dims = append(t.Dims, dim)
		prev = grp
	}
}

func samePartitionReference(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// sortGroupsReference orders groups by their smallest member and sorts members.
func sortGroupsReference(groups [][]int) {
	for _, g := range groups {
		sortIntsReference(g)
	}
	for i := 1; i < len(groups); i++ {
		for j := i; j > 0 && groups[j][0] < groups[j-1][0]; j-- {
			groups[j], groups[j-1] = groups[j-1], groups[j]
		}
	}
}

func sortIntsReference(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// applyReference produces the degraded topology that results from applying the
// delta to base. Base is never mutated. The degraded topology keeps
// base's node table (stable IDs — failed nodes simply lose all links),
// drops failed and orphaned links, scales degraded ones, and re-extracts
// each dimension's groups from the surviving physical graph.
//
// Groups whose physical component the delta does not touch keep
// bit-identical α/β with base, so their sub-demands hash to the same
// cache keys; touched groups get per-group overrides recomputed from the
// surviving links of their component (worst surviving link, the
// non-blocking-fabric bottleneck). Apply fails if a delta term references
// a non-existent node or link, removes a GPU, or disconnects any GPU
// from the rest of the fabric.
func applyReference(d *Delta, base *Topology) (*Topology, error) {
	c := d.Canonical()

	// Validate node references.
	failedNode := make(map[int]bool, len(c.FailNodes))
	for _, n := range c.FailNodes {
		if n < 0 || n >= len(base.Nodes) {
			return nil, fmt.Errorf("delta: node %d does not exist in %s (%d nodes)", n, base.Name, len(base.Nodes))
		}
		if base.Nodes[n].Kind == KindGPU {
			return nil, fmt.Errorf("delta: cannot remove GPU node %d; GPUs are collective participants", n)
		}
		failedNode[n] = true
	}

	// Index base links by undirected pair and validate link references.
	type pair = LinkFail
	norm := func(a, b int) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	havePair := make(map[pair]bool, len(base.Links)/2)
	for _, l := range base.Links {
		havePair[norm(l.Src, l.Dst)] = true
	}
	killed := make(map[pair]bool, len(c.FailLinks))
	for _, l := range c.FailLinks {
		p := pair{l.A, l.B}
		if !havePair[p] {
			return nil, fmt.Errorf("delta: no link between nodes %d and %d in %s", l.A, l.B, base.Name)
		}
		killed[p] = true
	}
	degrade := make(map[pair]LinkDegrade, len(c.Degrade))
	for _, dg := range c.Degrade {
		p := pair{dg.A, dg.B}
		if !havePair[p] {
			return nil, fmt.Errorf("delta: no link between nodes %d and %d in %s", dg.A, dg.B, base.Name)
		}
		degrade[p] = dg
	}

	// touchedNode marks every node a delta term references; a dimension
	// group is recomputed only when its base component contains one.
	touchedNode := make(map[int]bool)
	for n := range failedNode {
		touchedNode[n] = true
	}
	for p := range killed {
		touchedNode[p.A] = true
		touchedNode[p.B] = true
	}
	for p := range degrade {
		touchedNode[p.A] = true
		touchedNode[p.B] = true
	}

	// Surviving links with scaled costs.
	deg := &Topology{
		Name:  base.Name + "+" + c.Fingerprint(),
		Nodes: append([]Node(nil), base.Nodes...),
		GPUs:  append([]int(nil), base.GPUs...),
		Sym:   base.Sym,
	}
	for _, l := range base.Links {
		if failedNode[l.Src] || failedNode[l.Dst] {
			continue
		}
		p := norm(l.Src, l.Dst)
		if killed[p] {
			continue
		}
		if dg, ok := degrade[p]; ok {
			l.Alpha *= dg.AlphaScale
			l.Beta *= dg.BetaScale
		}
		deg.Links = append(deg.Links, l)
	}

	// Re-extract each base dimension from the surviving graph.
	n := base.NumGPUs()
	for _, bd := range base.Dims {
		allowed := dimKindFilter(bd.Tier)

		// Base-graph components of this dimension, to decide which groups
		// the delta touches (surviving-graph components only shrink, so an
		// untouched base component survives intact).
		baseUF := newUnionFind(len(base.Nodes))
		for _, l := range base.Links {
			if allowed(base.Nodes[l.Src].Kind) && allowed(base.Nodes[l.Dst].Kind) {
				baseUF.union(l.Src, l.Dst)
			}
		}
		touchedRoot := make(map[int]bool)
		for nd := range touchedNode {
			if allowed(base.Nodes[nd].Kind) {
				touchedRoot[baseUF.find(nd)] = true
			}
		}

		// Surviving-graph components and their worst surviving link costs.
		uf := newUnionFind(len(deg.Nodes))
		for _, l := range deg.Links {
			if allowed(deg.Nodes[l.Src].Kind) && allowed(deg.Nodes[l.Dst].Kind) {
				uf.union(l.Src, l.Dst)
			}
		}
		maxAlpha := make(map[int]float64)
		maxBeta := make(map[int]float64)
		for _, l := range deg.Links {
			if !allowed(deg.Nodes[l.Src].Kind) || !allowed(deg.Nodes[l.Dst].Kind) {
				continue
			}
			r := uf.find(l.Src)
			if l.Alpha > maxAlpha[r] {
				maxAlpha[r] = l.Alpha
			}
			if l.Beta > maxBeta[r] {
				maxBeta[r] = l.Beta
			}
		}

		byRoot := make(map[int][]int)
		for _, gpu := range deg.GPUs {
			byRoot[uf.find(gpu)] = append(byRoot[uf.find(gpu)], gpu)
		}
		groups := make([][]int, 0, len(byRoot))
		for _, grp := range byRoot {
			groups = append(groups, grp)
		}
		sortGroupsReference(groups)
		if !coarserThanSingletons(groups) {
			continue // dimension collapsed entirely; drop it
		}

		nd := newDim(len(deg.Dims), bd.Name, bd.Alpha, bd.Beta, bd.PortClass, groups, n)
		nd.Tier = bd.Tier
		alphas := make([]float64, len(groups))
		betas := make([]float64, len(groups))
		overridden := false
		hops := 2 * bd.Tier
		if hops == 0 {
			hops = 2
		}
		for g, grp := range groups {
			if bg := bd.GroupOf(grp[0]); bg >= 0 && !touchedRoot[baseUF.find(grp[0])] {
				// Untouched component: keep base costs bit-exactly.
				alphas[g], betas[g] = bd.AlphaOf(bg), bd.BetaOf(bg)
			} else {
				// Touched (or new) component: bottleneck over its
				// surviving links, α counting the up-and-down traversal
				// of the dimension's switch tier.
				r := uf.find(grp[0])
				alphas[g] = float64(hops) * maxAlpha[r]
				betas[g] = maxBeta[r]
			}
			if len(grp) > 1 && betas[g] <= 0 {
				return nil, fmt.Errorf("delta: dim %s group %d left with no usable links", bd.Name, g)
			}
			if betas[g] <= 0 {
				// Isolated singleton group: carry the dimension-level β so
				// the topology stays valid; no transfer can use it anyway.
				betas[g] = bd.Beta
				alphas[g] = bd.Alpha
			}
			if alphas[g] != bd.Alpha || betas[g] != bd.Beta {
				overridden = true
			}
		}
		if overridden {
			nd.alphaOf, nd.betaOf = alphas, betas
		}
		deg.Dims = append(deg.Dims, nd)
	}

	// Every GPU must remain reachable through some dimension.
	reach := newUnionFind(n)
	for _, dim := range deg.Dims {
		for _, grp := range dim.Groups {
			for _, gpu := range grp[1:] {
				reach.union(grp[0], gpu)
			}
		}
	}
	if n > 0 {
		// Name a GPU from the smaller side of the partition, so killing a
		// single GPU's only link blames that GPU rather than GPU 1.
		r0 := reach.find(0)
		inR0 := 0
		for gpu := 0; gpu < n; gpu++ {
			if reach.find(gpu) == r0 {
				inR0++
			}
		}
		for gpu := 1; gpu < n; gpu++ {
			if reach.find(gpu) != r0 {
				blame := gpu
				if inR0 <= n-inR0 {
					blame = 0
				}
				return nil, fmt.Errorf("delta %q disconnects GPU %d from the fabric", c.String(), blame)
			}
		}
	}

	if err := deg.Validate(); err != nil {
		return nil, fmt.Errorf("delta produced invalid topology: %v", err)
	}
	return deg, nil
}

// The first-connecting-dimension lookups and PXN relays the baselines
// kept before DimOf and PXNRoute, as the oracle for
// TestRouteMatchesReference: nccl's dimFor, the closures of
// core.sendRecvSchedule and teccl.greedyGlobalFast, crafted.Direct's
// inline loop, and the relay each of core, nccl.AlltoAll and teccl
// computed.

func ncclDimForReference(top *Topology, a, b int) (int, error) {
	for d := 0; d < top.NumDims(); d++ {
		if top.SameGroup(d, a, b) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("nccl: GPUs %d and %d share no dimension", a, b)
}

func coreDimForReference(top *Topology, a, b int) int {
	for d := 0; d < top.NumDims(); d++ {
		if top.SameGroup(d, a, b) {
			return d
		}
	}
	return -1
}

func tecclDimOfReference(top *Topology, a, b int) int {
	for d := 0; d < top.NumDims(); d++ {
		if top.SameGroup(d, a, b) {
			return d
		}
	}
	return -1
}

func craftedDirectDimReference(top *Topology, src, dst int) int {
	dim := -1
	for d := 0; d < top.NumDims(); d++ {
		if top.SameGroup(d, src, dst) {
			dim = d
			break
		}
	}
	return dim
}

func corePXNRelayReference(top *Topology, src, dst int) int {
	g := top.Sym.Local.N
	return (src/g)*g + dst%g
}

func ncclPXNRelayReference(top *Topology, src, dst int) int {
	g := top.Sym.Local.N
	return (src/g)*g + dst%g
}

func tecclPXNRelayReference(top *Topology, src, dst int) int {
	g := 1
	if top.Sym != nil && top.Sym.Local.N > 0 {
		g = top.Sym.Local.N
	}
	return (src/g)*g + dst%g
}
