package topology

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Delta describes a fault event against a physical topology: links that
// failed outright, non-GPU nodes (switches, NICs) that failed, and links
// whose α/β degraded by a multiplicative factor. Deltas are expressed in
// physical node IDs, so one delta spec applies to any topology large
// enough to contain the referenced nodes.
//
// The textual syntax (ParseDelta / String) is a comma-separated list of
// terms:
//
//	kill:A-B    remove the physical link between nodes A and B (both directions)
//	node:N      remove node N and every link touching it (N must not be a GPU)
//	slow:A-B*F  multiply the β (sec/byte) of link A-B by factor F
//	lag:A-B*F   multiply the α (latency) of link A-B by factor F
//
// Application (Apply) is canonical: the same delta always yields the same
// degraded topology. Every group is priced by the link bottleneck of its
// surviving component, the rule Build's dimensions follow too, so a group
// whose component the delta does not touch keeps bit-identical costs (and
// hence bit-identical cache identities) with the healthy base.
type Delta struct {
	FailLinks []LinkFail
	FailNodes []int
	Degrade   []LinkDegrade
}

// LinkFail names an undirected physical link by its two endpoint node IDs.
type LinkFail struct {
	A, B int
}

// LinkDegrade scales the α and/or β of the undirected link A-B. A scale
// of 1 leaves the corresponding cost unchanged.
type LinkDegrade struct {
	A, B       int
	AlphaScale float64
	BetaScale  float64
}

// maxNodeID bounds node references in parsed deltas; it exists to keep
// fuzzed inputs from allocating absurd structures, not as a topology
// limit (real topologies stay far below it).
const maxNodeID = 1 << 20

// maxScale bounds degradation factors in parsed deltas.
const maxScale = 1e9

// Empty reports whether the delta has no effect: it contains no
// operations, or only operations that canonicalize away (such as
// scale-1 degradations). Empty() is true exactly when String() == "".
func (d *Delta) Empty() bool {
	if d == nil || (len(d.FailLinks) == 0 && len(d.FailNodes) == 0 && len(d.Degrade) == 0) {
		return true
	}
	c := d.Canonical()
	return len(c.FailLinks) == 0 && len(c.FailNodes) == 0 && len(c.Degrade) == 0
}

// Canonical returns a normalized copy: link endpoints ordered A<B, terms
// sorted and deduplicated, degradations on the same link merged
// multiplicatively, and no-op or shadowed terms (scale 1, degrades on
// killed links, links touching failed nodes) dropped. Two deltas with the
// same effect canonicalize to the same value.
func (d *Delta) Canonical() *Delta {
	c := &Delta{}
	if d == nil {
		return c
	}

	failedNode := make(map[int]bool, len(d.FailNodes))
	for _, n := range d.FailNodes {
		if !failedNode[n] {
			failedNode[n] = true
			c.FailNodes = append(c.FailNodes, n)
		}
	}
	sort.Ints(c.FailNodes)

	killed := make(map[LinkFail]bool, len(d.FailLinks))
	for _, l := range d.FailLinks {
		if l.A > l.B {
			l.A, l.B = l.B, l.A
		}
		if failedNode[l.A] || failedNode[l.B] || killed[l] {
			continue
		}
		killed[l] = true
		c.FailLinks = append(c.FailLinks, l)
	}
	sort.Slice(c.FailLinks, func(i, j int) bool {
		if c.FailLinks[i].A != c.FailLinks[j].A {
			return c.FailLinks[i].A < c.FailLinks[j].A
		}
		return c.FailLinks[i].B < c.FailLinks[j].B
	})

	merged := make(map[LinkFail]*LinkDegrade)
	var order []LinkFail
	for _, dg := range d.Degrade {
		if dg.A > dg.B {
			dg.A, dg.B = dg.B, dg.A
		}
		pair := LinkFail{dg.A, dg.B}
		if failedNode[dg.A] || failedNode[dg.B] || killed[pair] {
			continue
		}
		as, bs := dg.AlphaScale, dg.BetaScale
		if as == 0 {
			as = 1
		}
		if bs == 0 {
			bs = 1
		}
		if m, ok := merged[pair]; ok {
			m.AlphaScale *= as
			m.BetaScale *= bs
		} else {
			merged[pair] = &LinkDegrade{A: dg.A, B: dg.B, AlphaScale: as, BetaScale: bs}
			order = append(order, pair)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].A != order[j].A {
			return order[i].A < order[j].A
		}
		return order[i].B < order[j].B
	})
	for _, pair := range order {
		m := merged[pair]
		if m.AlphaScale == 1 && m.BetaScale == 1 {
			continue
		}
		c.Degrade = append(c.Degrade, *m)
	}
	return c
}

// String renders the canonical textual form of the delta, parseable by
// ParseDelta. The empty delta renders as "".
func (d *Delta) String() string {
	c := d.Canonical()
	var terms []string
	for _, n := range c.FailNodes {
		terms = append(terms, fmt.Sprintf("node:%d", n))
	}
	for _, l := range c.FailLinks {
		terms = append(terms, fmt.Sprintf("kill:%d-%d", l.A, l.B))
	}
	for _, dg := range c.Degrade {
		if dg.AlphaScale != 1 {
			terms = append(terms, fmt.Sprintf("lag:%d-%d*%.9g", dg.A, dg.B, dg.AlphaScale))
		}
		if dg.BetaScale != 1 {
			terms = append(terms, fmt.Sprintf("slow:%d-%d*%.9g", dg.A, dg.B, dg.BetaScale))
		}
	}
	return strings.Join(terms, ",")
}

// Fingerprint returns a short stable digest of the canonical delta,
// suitable for embedding in topology names and cache keys.
func (d *Delta) Fingerprint() string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(d.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// ParseDelta parses the textual delta syntax. It rejects empty specs,
// unknown terms, malformed numbers, self-loops, out-of-range node IDs,
// and non-positive or non-finite scale factors. The result is not yet
// validated against a concrete topology; Apply does that.
func ParseDelta(spec string) (*Delta, error) {
	d := &Delta{}
	any := false
	for _, raw := range strings.Split(spec, ",") {
		term := strings.TrimSpace(raw)
		if term == "" {
			continue
		}
		any = true
		op, rest, ok := strings.Cut(term, ":")
		if !ok {
			return nil, fmt.Errorf("delta term %q: missing ':'", term)
		}
		switch op {
		case "node":
			n, err := parseNodeID(rest)
			if err != nil {
				return nil, fmt.Errorf("delta term %q: %v", term, err)
			}
			d.FailNodes = append(d.FailNodes, n)
		case "kill":
			a, b, err := parseLinkPair(rest)
			if err != nil {
				return nil, fmt.Errorf("delta term %q: %v", term, err)
			}
			d.FailLinks = append(d.FailLinks, LinkFail{A: a, B: b})
		case "slow", "lag":
			pair, scaleStr, ok := strings.Cut(rest, "*")
			if !ok {
				return nil, fmt.Errorf("delta term %q: missing '*factor'", term)
			}
			a, b, err := parseLinkPair(pair)
			if err != nil {
				return nil, fmt.Errorf("delta term %q: %v", term, err)
			}
			f, err := strconv.ParseFloat(scaleStr, 64)
			if err != nil {
				return nil, fmt.Errorf("delta term %q: bad factor %q", term, scaleStr)
			}
			if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 || f > maxScale {
				return nil, fmt.Errorf("delta term %q: factor %g out of range (0, %g]", term, f, float64(maxScale))
			}
			dg := LinkDegrade{A: a, B: b, AlphaScale: 1, BetaScale: 1}
			if op == "slow" {
				dg.BetaScale = f
			} else {
				dg.AlphaScale = f
			}
			d.Degrade = append(d.Degrade, dg)
		default:
			return nil, fmt.Errorf("delta term %q: unknown op %q (want kill, node, slow, or lag)", term, op)
		}
	}
	if !any {
		return nil, fmt.Errorf("empty delta spec")
	}
	return d, nil
}

func parseNodeID(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad node ID %q", s)
	}
	if n < 0 || n >= maxNodeID {
		return 0, fmt.Errorf("node ID %d out of range [0, %d)", n, maxNodeID)
	}
	return n, nil
}

func parseLinkPair(s string) (int, int, error) {
	as, bs, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("bad link %q: want A-B", s)
	}
	a, err := parseNodeID(as)
	if err != nil {
		return 0, 0, err
	}
	b, err := parseNodeID(bs)
	if err != nil {
		return 0, 0, err
	}
	if a == b {
		return 0, 0, fmt.Errorf("bad link %d-%d: self-loop", a, b)
	}
	return a, b, nil
}

// Apply produces the degraded topology that results from applying the
// delta to base. Base is never mutated. The degraded topology keeps
// base's node table (stable IDs — failed nodes simply lose all links),
// drops failed and orphaned links, scales degraded ones, and re-extracts
// each dimension's groups from the surviving physical graph with
// tierGroups, the extractor Build uses.
//
// Each group is priced by its surviving component's link bottleneck
// (worst link, the non-blocking-fabric rule). Build's costs are that
// bottleneck bit for bit, so a group the delta does not touch keeps its
// base α/β and its sub-demands hash to the same cache keys
// (TestExtractMatchesReference and FuzzApplyEquivalence check both
// against the reference in extract_reference_test.go). Apply fails if a
// delta term references a non-existent node or link, removes a GPU, or
// disconnects any GPU from the rest of the fabric.
func (d *Delta) Apply(base *Topology) (*Topology, error) {
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

	// Re-extract each base dimension from the surviving graph. A
	// dimension keeps its tier and its base-level α/β, and is dropped only
	// when it collapses to singletons; groups whose bottleneck differs
	// from the base level carry per-group overrides.
	n := base.NumGPUs()
	for _, bd := range base.Dims {
		groups, alphas, betas := tierGroups(deg, bd.Tier)
		if !coarserThanSingletons(groups) {
			continue // dimension collapsed entirely; drop it
		}
		for g, grp := range groups {
			if len(grp) > 1 && betas[g] <= 0 {
				return nil, fmt.Errorf("delta: dim %s group %d left with no usable links", bd.Name, g)
			}
			if betas[g] <= 0 {
				// Isolated singleton group: carry the dimension-level β so
				// the topology stays valid; no transfer can use it anyway.
				alphas[g], betas[g] = bd.Alpha, bd.Beta
			}
		}
		nd := newDim(len(deg.Dims), bd.Name, bd.Alpha, bd.Beta, bd.PortClass, groups, n)
		nd.Tier = bd.Tier
		nd.setGroupCosts(alphas, betas)
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

// dimKindFilter returns the node-kind filter that defines a dimension's
// physical subgraph: the intra-server fabric (tier 0) spans GPUs and
// NVSwitches; network tier t spans GPUs, NICs, and switch tiers 1..t.
func dimKindFilter(tier int) func(NodeKind) bool {
	if tier == 0 {
		return func(k NodeKind) bool { return k == KindGPU || k == KindNVSwitch }
	}
	return func(k NodeKind) bool {
		if k == KindGPU || k == KindNIC {
			return true
		}
		tt := k.tier()
		return tt >= 1 && tt <= tier
	}
}
