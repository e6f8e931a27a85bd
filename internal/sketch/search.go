package sketch

import (
	"context"
	"sort"
	"strconv"

	"syccl/internal/obs"
	"syccl/internal/topology"
)

// SearchOptions controls the enumeration-based sketch search (§4.1).
type SearchOptions struct {
	// MaxStages bounds K. Zero defaults to NumDims+1 for Broadcast and
	// NumDims for Scatter (pruning #3: each dimension passed at most
	// once on a root-to-leaf path).
	MaxStages int
	// MaxSketches caps the number of complete sketches returned
	// (default 64). The search explores shallow, full-fan-out shapes
	// first so the classic hierarchical sketches always survive the cap.
	MaxSketches int
	// DisablePrune1 turns off isomorphism deduplication (Fig 17a).
	DisablePrune1 bool
	// DisablePrune2 turns off the cross-group consistency requirement
	// (Fig 17a).
	DisablePrune2 bool
	// Hint optionally constrains the enumeration (TACCL-style sketch
	// hints): per-stage dimension order, per-stage destination counts,
	// and an algorithm family. Constraints are hard filters, so hinted
	// searches must key caches differently from unhinted ones (see
	// Hint.Canonical). Nil constrains nothing.
	Hint *Hint
	// Rec optionally records a search span plus node/sketch counters
	// (nil: no instrumentation).
	Rec *obs.Recorder
}

// Fingerprint renders every option that influences the search's result
// set (Rec is instrumentation only), at its defaulted value. It is the
// search's share of every cache key — core's sketch-cache key and
// core.Options.Fingerprint both embed it — so a new option is keyed
// everywhere by adding it here. MaxStages renders 0 for its
// per-topology default, which a topology-free rendering cannot resolve.
func (o SearchOptions) Fingerprint() string {
	o = o.withDefaults()
	b := make([]byte, 0, 64)
	b = strconv.AppendInt(append(b, 'k'), int64(o.MaxStages), 10)
	b = strconv.AppendInt(append(b, ",m"...), int64(o.MaxSketches), 10)
	b = strconv.AppendBool(append(b, ",p1:"...), o.DisablePrune1)
	b = strconv.AppendBool(append(b, ",p2:"...), o.DisablePrune2)
	b = append(append(b, ",h="...), o.Hint.Canonical()...)
	return string(b)
}

// withDefaults fills the defaults that need no topology; MaxStages stays
// 0 until forTopology resolves it.
func (o SearchOptions) withDefaults() SearchOptions {
	if o.MaxStages < 0 {
		o.MaxStages = 0
	}
	if o.MaxSketches <= 0 {
		o.MaxSketches = 64
	}
	return o
}

// forTopology is withDefaults plus the stage budget the topology and
// search shape decide.
func (o SearchOptions) forTopology(top *topology.Topology, scatter bool) SearchOptions {
	o = o.withDefaults()
	if o.MaxStages == 0 {
		o.MaxStages = top.NumDims() + 1
		if scatter {
			o.MaxStages = top.NumDims()
		}
	}
	// A hinted dimension order longer than the stage budget is an explicit
	// ask for a deeper tree (including dimension reuse on Scatter, where
	// MaxStages > NumDims is the documented relay opt-out).
	if o.Hint != nil && len(o.Hint.DimOrder) > o.MaxStages {
		o.MaxStages = len(o.Hint.DimOrder)
	}
	return o
}

// SearchBroadcast enumerates Broadcast sketches rooted at root. A
// cancelled ctx stops the enumeration early and returns the sketches
// found so far (possibly none).
func SearchBroadcast(ctx context.Context, top *topology.Topology, root int, opts SearchOptions) []*Sketch {
	return runSearch(ctx, top, root, false, opts)
}

// SearchScatter enumerates Scatter sketches rooted at root (used for
// AlltoAll decomposition; pruning #3 bounds the relay count). Cancellation
// behaves as in SearchBroadcast.
func SearchScatter(ctx context.Context, top *topology.Topology, root int, opts SearchOptions) []*Sketch {
	return runSearch(ctx, top, root, true, opts)
}

// dimState is one eligible dimension at a stage: the groups holding both
// informed and uninformed GPUs, and their uninformed counts.
type dimState struct {
	dim            int
	groups         []int
	minUn, maxUn   int
	minInf, maxInf int
	// suggested holds structure-derived destination counts: for each
	// lower dimension, the number of its groups represented among the
	// uninformed GPUs ("one per remote server"-style fan-outs).
	suggested []int
}

// Search budgets: at most maxNodes explored nodes per search, and at most
// maxCountChoices destination counts per dimension per stage (full
// fan-out, the structure-derived counts, half, one — in that order).
const (
	maxNodes        = 50000
	maxCountChoices = 4
)

type searcher struct {
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

func runSearch(ctx context.Context, top *topology.Topology, root int, scatter bool, opts SearchOptions) []*Sketch {
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
	s := &searcher{
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

func (s *searcher) done() bool {
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
func (s *searcher) recurse(sk *Sketch, informed []bool, remaining, usedDims int) {
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
func (s *searcher) countChoices(ds dimState, stage int) []int {
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
func (s *searcher) enumCounts(sk *Sketch, informed []bool, usedDims int, chosen []dimState, counts []int) {
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
func (s *searcher) applyStage(sk *Sketch, informed []bool, usedDims int, chosen []dimState, counts []int) {
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

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func (s *searcher) emit(sk *Sketch) {
	key := sk.Descriptor()
	if s.opts.DisablePrune1 {
		key = sk.ExactDescriptor()
	}
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	s.out = append(s.out, sk.Clone())
}
