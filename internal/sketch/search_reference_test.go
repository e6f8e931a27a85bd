package sketch

// The sketch search, descriptors, copies and replication as they stood
// before the search moved onto reused per-depth state: a recursive
// enumeration that allocates its state per node, a map per (node,
// dimension) and per stage, fmt-built descriptors, deep per-sub-demand
// copies, and a [][]float64 workload per automorphism. Kept verbatim
// (renamed) as the reference the flat code is held to, byte for byte,
// by TestSearchMatchesReference, TestReplicateMatchesReference and
// FuzzSearchEquivalence.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"syccl/internal/topology"
)

type searcherReference struct {
	top     *topology.Topology
	opts    SearchOptions
	scatter bool
	// fullFanout restricts each sub-demand to cover all remaining GPUs of
	// its group: always for Scatter, where partial coverage multiplies
	// relayed volume, and for a flat-family hint.
	fullFanout bool
	seen       map[string]bool
	out        []*Sketch
	nodes      int
	ctx        context.Context
	cancelled  bool
}

func runSearchReference(ctx context.Context, top *topology.Topology, root int, scatter bool, opts SearchOptions) []*Sketch {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := opts.Rec.StartSpan("sketch.search")
	sp.SetInt("root", int64(root))
	if scatter {
		sp.SetStr("shape", "scatter")
	} else {
		sp.SetStr("shape", "broadcast")
	}
	defer sp.End()
	s := &searcherReference{
		top:        top,
		opts:       opts.forTopology(top, scatter),
		scatter:    scatter,
		fullFanout: scatter || (opts.Hint != nil && opts.Hint.Family == FamilyFlat),
		seen:       make(map[string]bool),
		ctx:        ctx,
	}
	informed := make([]bool, top.NumGPUs())
	informed[root] = true
	start := func() ([]bool, *Sketch) {
		inf := append([]bool(nil), informed...)
		return inf, &Sketch{Root: root, Scatter: scatter}
	}
	// Pass 1: full fan-out only. This small space contains every
	// classic hierarchical shape (including multi-dimension stages such
	// as Fig 5's sketch ①) and must not be crowded out of the sketch
	// budget by deep partial-count variants.
	if !s.fullFanout {
		s.fullFanout = true
		inf, sk := start()
		s.recurse(sk, inf, top.NumGPUs()-1, 0)
		s.fullFanout = false
	}
	// Pass 2: the general enumeration (a no-op re-walk of pass 1's
	// shapes thanks to descriptor dedupe).
	inf, sk := start()
	s.recurse(sk, inf, top.NumGPUs()-1, 0)
	sp.SetInt("nodes", int64(s.nodes))
	sp.SetInt("sketches", int64(len(s.out)))
	sp.Count("sketch.nodes", float64(s.nodes))
	sp.Count("sketch.emitted", float64(len(s.out)))
	return s.out
}

func (s *searcherReference) done() bool {
	// Cancellation is polled every 64 nodes (ctx.Err takes an atomic load
	// plus a mutex on the done path; the mask keeps it off the hot path).
	if !s.cancelled && s.ctx.Done() != nil && s.nodes&63 == 0 && s.ctx.Err() != nil {
		s.cancelled = true
	}
	return s.cancelled || len(s.out) >= s.opts.MaxSketches || s.nodes >= maxNodes
}

// recurse runs the three-step stage enumeration of §4.1: choose the
// dimensions D_k, the participating groups (all groups holding both
// informed and uninformed GPUs), and the per-group destination count.
// Sources are all informed GPUs of a group; destinations are chosen
// canonically (lowest index first) — replication (§4.2) later rebalances
// the concrete choice across isomorphic alternatives.
func (s *searcherReference) recurse(sk *Sketch, informed []bool, remaining, usedDims int) {
	if remaining == 0 {
		s.emit(sk)
		return
	}
	if len(sk.Stages) >= s.opts.MaxStages || s.done() {
		return
	}
	s.nodes++

	// Pruning #3 (Scatter relay limit): each dimension is passed at most
	// once along a root-to-leaf path. Raising MaxStages beyond the
	// dimension count is the explicit opt-out the Fig 17b ablation
	// sweeps — deeper trees with dimension reuse become searchable.
	limitRelays := s.scatter && s.opts.MaxStages <= s.top.NumDims()

	stage := len(sk.Stages)
	var eligible []dimState
	for d := 0; d < s.top.NumDims(); d++ {
		if limitRelays && usedDims&(1<<d) != 0 {
			continue
		}
		// Hint: a constrained stage only walks its named dimension.
		if !s.opts.Hint.allowsDim(stage, d) {
			continue
		}
		dim := s.top.Dim(d)
		ds := dimState{dim: d, minUn: 1 << 30, minInf: 1 << 30}
		for g := range dim.Groups {
			inf, un := 0, 0
			for _, gpu := range dim.Groups[g] {
				if informed[gpu] {
					inf++
				} else {
					un++
				}
			}
			if inf > 0 && un > 0 {
				ds.groups = append(ds.groups, g)
				if un < ds.minUn {
					ds.minUn = un
				}
				if un > ds.maxUn {
					ds.maxUn = un
				}
				if inf < ds.minInf {
					ds.minInf = inf
				}
				if inf > ds.maxInf {
					ds.maxInf = inf
				}
			}
		}
		if len(ds.groups) == 0 {
			continue
		}
		// Pruning #2: participating groups must present a consistent
		// destination/source ratio (|Vr|/|Vs| uniform, §4.1); groups in
		// asymmetric states cannot.
		if !s.opts.DisablePrune2 && (ds.minUn != ds.maxUn || ds.minInf != ds.maxInf) {
			continue
		}
		// Structure-derived counts from the first group (consistent
		// across groups under pruning #2): one destination per lower-dim
		// sub-structure present among the uninformed.
		rep := ds.groups[0]
		for d2 := 0; d2 < s.top.NumDims(); d2++ {
			if d2 == d {
				continue
			}
			dim2 := s.top.Dim(d2)
			seen := map[int]bool{}
			for _, gpu := range dim.Groups[rep] {
				if !informed[gpu] {
					if g2 := dim2.GroupOf(gpu); g2 >= 0 {
						seen[g2] = true
					}
				}
			}
			if c := len(seen); c >= 1 && c < ds.minUn {
				ds.suggested = append(ds.suggested, c)
			}
		}
		eligible = append(eligible, ds)
	}
	if len(eligible) == 0 {
		return
	}

	// Non-empty dimension subsets, smaller first (hierarchical
	// one-dim-per-stage sketches are explored first).
	subsets := make([]int, 0, 1<<len(eligible)-1)
	for m := 1; m < 1<<len(eligible); m++ {
		subsets = append(subsets, m)
	}
	sort.Slice(subsets, func(a, b int) bool {
		pa, pb := popcount(subsets[a]), popcount(subsets[b])
		if pa != pb {
			return pa < pb
		}
		return subsets[a] < subsets[b]
	})

	for _, mask := range subsets {
		// Hint: tree-family (and explicitly dim-ordered) stages use
		// exactly one dimension.
		if s.opts.Hint.singleDim(stage) && popcount(mask) != 1 {
			continue
		}
		var chosen []dimState
		for i := range eligible {
			if mask&(1<<i) != 0 {
				chosen = append(chosen, eligible[i])
			}
		}
		s.enumCounts(sk, informed, usedDims, chosen, nil)
		if s.done() {
			return
		}
	}
}

// countChoices returns the destination counts to try for a dimension at
// the given stage, largest (full fan-out) first. A hinted stage size
// forces one count (or none, pruning the branch, when it is infeasible
// from this state or contradicts full fan-out).
func (s *searcherReference) countChoices(ds dimState, stage int) []int {
	full := ds.minUn
	if forced := s.opts.Hint.stageSize(stage); forced > 0 {
		if forced > full || (s.fullFanout && forced != full) {
			return nil
		}
		return []int{forced}
	}
	if s.fullFanout || full == 1 {
		return []int{full}
	}
	choices := []int{full}
	seen := map[int]bool{full: true}
	add := func(c int) {
		if c >= 1 && !seen[c] {
			choices = append(choices, c)
			seen[c] = true
		}
	}
	for _, c := range ds.suggested {
		add(c)
	}
	add(full / 2)
	add(1)
	if len(choices) > maxCountChoices {
		choices = choices[:maxCountChoices]
	}
	return choices
}

// enumCounts assigns a destination count to each chosen dimension and,
// once all are fixed, materializes the stage and recurses.
func (s *searcherReference) enumCounts(sk *Sketch, informed []bool, usedDims int, chosen []dimState, counts []int) {
	if s.done() {
		return
	}
	if len(counts) == len(chosen) {
		s.applyStage(sk, informed, usedDims, chosen, counts)
		return
	}
	for _, c := range s.countChoices(chosen[len(counts)], len(sk.Stages)) {
		s.enumCounts(sk, informed, usedDims, chosen, append(counts, c))
		if s.done() {
			return
		}
	}
}

// applyStage materializes one stage: per participating group, sources are
// the informed members; destinations are the `count` FARTHEST uninformed
// members — those whose cheapest connection to any informed GPU uses the
// highest dimension — with index as tie-break. Farthest-first matters on
// Clos fabrics: when a network group spans several servers, partial
// fan-out should reach one GPU per remote server (which NVLink cannot
// serve) rather than burn network bandwidth on server-mates.
func (s *searcherReference) applyStage(sk *Sketch, informed []bool, usedDims int, chosen []dimState, counts []int) {
	taken := map[int]bool{}
	var stage Stage
	newUsed := usedDims

	// farness(g) = the smallest dimension index connecting g to an
	// informed GPU (bigger = farther from the informed set).
	farness := func(gpu int) int {
		for d := 0; d < s.top.NumDims(); d++ {
			dim := s.top.Dim(d)
			grp := dim.GroupOf(gpu)
			if grp < 0 {
				continue
			}
			for _, other := range dim.Groups[grp] {
				if informed[other] {
					return d
				}
			}
		}
		return s.top.NumDims()
	}

	for ci, ds := range chosen {
		dim := s.top.Dim(ds.dim)
		newUsed |= 1 << ds.dim
		for _, g := range ds.groups {
			var srcs, candidates []int
			for _, gpu := range dim.Groups[g] {
				if informed[gpu] {
					srcs = append(srcs, gpu)
				} else if !taken[gpu] {
					candidates = append(candidates, gpu)
				}
			}
			if len(candidates) < counts[ci] {
				return // another dimension claimed the GPUs; skip combo
			}
			var dsts []int
			if counts[ci] >= len(candidates) {
				dsts = append(dsts, candidates...)
			} else {
				// Greedy farthest-first with spreading: a candidate's
				// effective distance drops once a nearby destination has
				// been picked, so partial fan-out lands one destination
				// per far sub-structure (e.g. one per remote server).
				static := make(map[int]int, len(candidates))
				for _, c := range candidates {
					static[c] = farness(c)
				}
				var picked []int
				remaining := append([]int(nil), candidates...)
				for len(picked) < counts[ci] {
					bestIdx, bestScore := -1, -1
					for idx, c := range remaining {
						score := static[c]
						for _, p := range picked {
							for d := 0; d < s.top.NumDims() && d < score; d++ {
								if s.top.SameGroup(d, c, p) {
									score = d
									break
								}
							}
						}
						if score > bestScore || (score == bestScore && bestIdx >= 0 && c < remaining[bestIdx]) {
							bestScore = score
							bestIdx = idx
						}
					}
					picked = append(picked, remaining[bestIdx])
					remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
				}
				dsts = picked
			}
			sort.Ints(dsts)
			for _, d := range dsts {
				taken[d] = true
			}
			stage = append(stage, SubDemand{Dim: ds.dim, Group: g, Srcs: srcs, Dsts: dsts})
		}
	}
	if len(stage) == 0 {
		return
	}
	newInformed := append([]bool(nil), informed...)
	covered := 0
	for _, sd := range stage {
		for _, d := range sd.Dsts {
			newInformed[d] = true
			covered++
		}
	}
	sk.Stages = append(sk.Stages, stage)
	remaining := 0
	for _, inf := range newInformed {
		if !inf {
			remaining++
		}
	}
	s.recurse(sk, newInformed, remaining, newUsed)
	sk.Stages = sk.Stages[:len(sk.Stages)-1]
}

func (s *searcherReference) emit(sk *Sketch) {
	key := descriptorReference(sk)
	if s.opts.DisablePrune1 {
		key = exactDescriptorReference(sk)
	}
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	s.out = append(s.out, cloneReference(sk))
}

// cloneReference returns a deep copy.
func cloneReference(s *Sketch) *Sketch {
	out := &Sketch{Root: s.Root, Scatter: s.Scatter, Stages: make([]Stage, len(s.Stages))}
	for k, st := range s.Stages {
		out.Stages[k] = make(Stage, len(st))
		for i, sd := range st {
			out.Stages[k][i] = SubDemand{
				Dim:   sd.Dim,
				Group: sd.Group,
				Srcs:  append([]int(nil), sd.Srcs...),
				Dsts:  append([]int(nil), sd.Dsts...),
			}
		}
	}
	return out
}

// Workload computes w_{d,g} (§4.2): for Broadcast, the number of
// deliveries each group carries; for Scatter, deliveries weighted by the
// receiving GPU's subtree size (a GPU with f descendants receives f+1
// chunks through its inbound edge).
func workloadReference(s *Sketch, top *topology.Topology) [][]float64 {
	w := make([][]float64, top.NumDims())
	for d := range w {
		w[d] = make([]float64, len(top.Dim(d).Groups))
	}
	var tree ScatterTree
	if s.Scatter {
		_ = tree.Build(s, top.NumGPUs()) // destinations it leaves out weigh 0
	}
	for _, st := range s.Stages {
		for _, sd := range st {
			for _, dst := range sd.Dsts {
				if s.Scatter {
					w[sd.Dim][sd.Group] += float64(tree.Size(dst))
				} else {
					w[sd.Dim][sd.Group]++
				}
			}
		}
	}
	return w
}

// mappedWorkload is Workload of the broadcast sketch s.Map(top, perm):
// every sub-demand's deliveries land in the group its sources map to.
func mappedWorkloadReference(s *Sketch, top *topology.Topology, perm []int) [][]float64 {
	w := make([][]float64, top.NumDims())
	for d := range w {
		w[d] = make([]float64, len(top.Dim(d).Groups))
	}
	for _, st := range s.Stages {
		for _, sd := range st {
			g := top.Dim(sd.Dim).GroupOf(perm[sd.Srcs[0]])
			w[sd.Dim][g] += float64(len(sd.Dsts))
		}
	}
	return w
}

// Map applies a GPU permutation to the sketch, recomputing group indices
// from the topology. perm must be an automorphism (group-preserving), as
// produced by topology.Symmetry.
//
// The stages' sub-demands and their GPU lists are cut, without spare
// capacity, from one array each.
func mapReference(s *Sketch, top *topology.Topology, perm []int) *Sketch {
	subs, gpus := 0, 0
	for _, st := range s.Stages {
		subs += len(st)
		for _, sd := range st {
			gpus += len(sd.Srcs) + len(sd.Dsts)
		}
	}
	sds := make([]SubDemand, subs)
	ids := make([]int, gpus)
	mapped := func(from []int) []int {
		if len(from) == 0 {
			return nil
		}
		out := ids[:len(from):len(from)]
		ids = ids[len(from):]
		for i, v := range from {
			out[i] = perm[v]
		}
		slices.Sort(out)
		return out
	}
	out := &Sketch{Root: perm[s.Root], Scatter: s.Scatter, Stages: make([]Stage, len(s.Stages))}
	for k, st := range s.Stages {
		out.Stages[k], sds = sds[:len(st):len(st)], sds[len(st):]
		for i, sd := range st {
			nd := SubDemand{Dim: sd.Dim, Srcs: mapped(sd.Srcs), Dsts: mapped(sd.Dsts)}
			nd.Group = top.Dim(sd.Dim).GroupOf(nd.Srcs[0])
			out.Stages[k][i] = nd
		}
	}
	return out
}

// Descriptor returns the canonical structural key used by pruning #1:
// sketches generated with canonical destination selection that share a
// descriptor are isomorphic under the topology's symmetry.
func descriptorReference(s *Sketch) string {
	var sb strings.Builder
	if s.Scatter {
		sb.WriteString("S|")
	} else {
		sb.WriteString("B|")
	}
	for k, st := range s.Stages {
		parts := make([]string, len(st))
		for i, sd := range st {
			parts[i] = fmt.Sprintf("d%d:s%d:r%d", sd.Dim, len(sd.Srcs), len(sd.Dsts))
		}
		sort.Strings(parts)
		fmt.Fprintf(&sb, "k%d[%s]", k, strings.Join(parts, ","))
	}
	return sb.String()
}

// ExactDescriptor includes the concrete GPU sets; used when pruning #1 is
// disabled so only literally identical sketches collapse.
func exactDescriptorReference(s *Sketch) string {
	var sb strings.Builder
	sb.WriteString(descriptorReference(s))
	for _, st := range s.Stages {
		for _, sd := range st {
			fmt.Fprintf(&sb, "|%v>%v", sd.Srcs, sd.Dsts)
		}
	}
	return sb.String()
}

// deficit is the replication objective: the total headroom below each
// dimension's most loaded group, Σ_d Σ_g (max_g' w[d][g'] − w[d][g]).
// Unlike max−min it strictly decreases as under-loaded groups fill, which
// lets the greedy replica selection make progress one replica at a time.
func deficitReference(w [][]float64) float64 {
	total := 0.0
	for d := range w {
		hi := 0.0
		for _, v := range w[d] {
			if v > hi {
				hi = v
			}
		}
		for _, v := range w[d] {
			total += hi - v
		}
	}
	return total
}

// deficitPlus is deficit(a + b), without building the sum.
func deficitPlusReference(a, b [][]float64) float64 {
	total := 0.0
	for d := range a {
		hi := 0.0
		for g, v := range a[d] {
			if s := v + b[d][g]; s > hi {
				hi = s
			}
		}
		for g, v := range a[d] {
			total += hi - (v + b[d][g])
		}
	}
	return total
}

// Replicate implements §4.2 step 1: it replicates the sketch through the
// topology's symmetry action until the workload is balanced across groups
// in every dimension, and returns the resulting equal-fraction
// combination. maxReplicas ≤ 0 defaults to the symmetry order.
func replicateReference(top *topology.Topology, sk *Sketch, maxReplicas int) *Combination {
	perms := top.Automorphisms()
	if maxReplicas <= 0 {
		maxReplicas = len(perms)
	}

	sketches := []*Sketch{sk}
	load := workloadReference(sk, top)

	// The workload of the sketch under every non-identity automorphism.
	// A broadcast sketch's is its own moved group by group — each
	// sub-demand lands in the group its sources map to — so only the
	// replicas chosen below are mapped; a scatter sketch's depends on
	// its mapped tree, so it is mapped up front.
	type variant struct {
		perm []int
		sk   *Sketch
		w    [][]float64
	}
	variants := make([]variant, 0, len(perms))
	for _, p := range perms {
		if isIdentityPerm(p) {
			continue
		}
		v := variant{perm: p}
		if sk.Scatter {
			v.sk = mapReference(sk, top, p)
			v.w = workloadReference(v.sk, top)
		} else {
			v.w = mappedWorkloadReference(sk, top, p)
		}
		variants = append(variants, v)
	}

	for len(sketches) < maxReplicas {
		cur := deficitReference(load)
		if cur < 1e-9 {
			break
		}
		bestIdx, bestScore := -1, cur
		for i, v := range variants {
			score := deficitPlusReference(load, v.w)
			if score < bestScore-1e-12 {
				bestScore = score
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break // no replica improves balance further
		}
		v := &variants[bestIdx]
		if v.sk == nil {
			v.sk = mapReference(sk, top, v.perm)
		}
		sketches = append(sketches, v.sk)
		for d := range load {
			for g := range load[d] {
				load[d][g] += v.w[d][g]
			}
		}
	}

	fracs := make([]float64, len(sketches))
	for i := range fracs {
		fracs[i] = 1 / float64(len(sketches))
	}
	return &Combination{Sketches: sketches, Fracs: fracs}
}

// combinationWorkloadReference returns the fraction-weighted per-dimension, per-group
// workload of the combination.
func combinationWorkloadReference(c *Combination, top *topology.Topology) [][]float64 {
	w := make([][]float64, top.NumDims())
	for d := range w {
		w[d] = make([]float64, len(top.Dim(d).Groups))
	}
	for i, sk := range c.Sketches {
		sw := workloadReference(sk, top)
		for d := range sw {
			for g := range sw[d] {
				w[d][g] += c.Fracs[i] * sw[d][g]
			}
		}
	}
	return w
}

func isIdentityPerm(p []int) bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}
