package sketch

import (
	"context"
	"slices"
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

// searcher is one depth-first enumeration. Its state is allocated once
// and reused: a node's eligible dimensions, chosen subset, counts and
// stage live in the level of its depth, which the node's siblings
// overwrite, and informed and taken are marked on the way down and
// cleared on the way back.
type searcher struct {
	top     *topology.Topology
	opts    SearchOptions
	scatter bool
	// fullFanout restricts each sub-demand to cover all remaining GPUs of
	// its group: always for Scatter, where partial coverage multiplies
	// relayed volume, and for a flat-family hint.
	fullFanout bool
	seen       map[string]struct{}
	out        []*Sketch
	nodes      int
	ctx        context.Context
	cancelled  bool

	sk       Sketch   // the partial sketch; Stages[k] is levels[k].stage
	levels   []*level // by depth
	informed []bool
	taken    []bool  // destinations of the stage being built
	stamp    []int32 // stamp[g] == gen: group g counted for this (node, dimension)
	gen      int32
	subsets  [][]int // subsets[m]: the masks over m eligible dimensions, in visiting order
	cand     []int   // farthest-first candidates, in ascending order
	far      []int   // far[i] = farness(cand[i])
	desc     []byte  // the descriptor emit dedupes on
	parts    []descPart
}

// level is the state of the node at one depth.
type level struct {
	remaining, used int // uninformed GPUs; mask of the dimensions used on the path
	eligible        []dimState
	chosen          []int // indices into eligible
	counts          []int // destination count per chosen dimension
	stage           Stage
	ids             []int // the stage's Srcs and Dsts are cut from it
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
	n, groups := top.NumGPUs(), 0
	for _, dim := range top.Dims {
		groups = max(groups, len(dim.Groups))
	}
	s := &searcher{
		top:        top,
		opts:       opts.forTopology(top, scatter),
		scatter:    scatter,
		fullFanout: scatter || (opts.Hint != nil && opts.Hint.Family == FamilyFlat),
		seen:       make(map[string]struct{}),
		ctx:        ctx,
		sk:         Sketch{Root: root, Scatter: scatter},
		informed:   make([]bool, n),
		taken:      make([]bool, n),
		stamp:      make([]int32, groups),
		subsets:    make([][]int, top.NumDims()+1),
	}
	s.informed[root] = true
	// Pass 1: full fan-out only. This small space contains every
	// classic hierarchical shape (including multi-dimension stages such
	// as Fig 5's sketch ①) and must not be crowded out of the sketch
	// budget by deep partial-count variants.
	if !s.fullFanout {
		s.fullFanout = true
		s.recurse(n-1, 0)
		s.fullFanout = false
	}
	// Pass 2: the general enumeration (a no-op re-walk of pass 1's
	// shapes thanks to descriptor dedupe).
	s.recurse(n-1, 0)
	sp.SetInt("nodes", int64(s.nodes))
	sp.SetInt("sketches", int64(len(s.out)))
	sp.Count("sketch.nodes", float64(s.nodes))
	sp.Count("sketch.emitted", float64(len(s.out)))
	return s.out
}

func (s *searcher) done() bool {
	return s.cancelled || len(s.out) >= s.opts.MaxSketches || s.nodes >= maxNodes
}

// recurse runs the three-step stage enumeration of §4.1: choose the
// dimensions D_k, the participating groups (all groups holding both
// informed and uninformed GPUs), and the per-group destination count.
// Sources are all informed GPUs of a group; destinations are chosen
// canonically (lowest index first) — replication (§4.2) later rebalances
// the concrete choice across isomorphic alternatives.
func (s *searcher) recurse(remaining, usedDims int) {
	if remaining == 0 {
		s.emit()
		return
	}
	stage := len(s.sk.Stages)
	if stage >= s.opts.MaxStages || s.done() {
		return
	}
	s.nodes++
	if stage == len(s.levels) {
		s.levels = append(s.levels, &level{})
	}
	lv := s.levels[stage]
	lv.remaining, lv.used = remaining, usedDims

	// Pruning #3 (Scatter relay limit): each dimension is passed at most
	// once along a root-to-leaf path. Raising MaxStages beyond the
	// dimension count is the explicit opt-out the Fig 17b ablation
	// sweeps — deeper trees with dimension reuse become searchable.
	limitRelays := s.scatter && s.opts.MaxStages <= s.top.NumDims()

	lv.eligible = lv.eligible[:0]
	for d, dim := range s.top.Dims {
		if limitRelays && usedDims&(1<<d) != 0 {
			continue
		}
		// Hint: a constrained stage only walks its named dimension.
		if !s.opts.Hint.allowsDim(stage, d) {
			continue
		}
		// Reuse the slot's slices from an earlier node at this depth.
		lv.eligible = slices.Grow(lv.eligible, 1)[:len(lv.eligible)+1]
		ds := &lv.eligible[len(lv.eligible)-1]
		*ds = dimState{dim: d, groups: ds.groups[:0], suggested: ds.suggested[:0], minUn: 1 << 30, minInf: 1 << 30}
		for g, members := range dim.Groups {
			inf := 0
			for _, gpu := range members {
				if s.informed[gpu] {
					inf++
				}
			}
			if un := len(members) - inf; inf > 0 && un > 0 {
				ds.groups = append(ds.groups, g)
				ds.minUn, ds.maxUn = min(ds.minUn, un), max(ds.maxUn, un)
				ds.minInf, ds.maxInf = min(ds.minInf, inf), max(ds.maxInf, inf)
			}
		}
		// Pruning #2: participating groups must present a consistent
		// destination/source ratio (|Vr|/|Vs| uniform, §4.1); groups in
		// asymmetric states cannot.
		if len(ds.groups) == 0 || (!s.opts.DisablePrune2 && (ds.minUn != ds.maxUn || ds.minInf != ds.maxInf)) {
			lv.eligible = lv.eligible[:len(lv.eligible)-1]
			continue
		}
		// Structure-derived counts from the first group (consistent
		// across groups under pruning #2): one destination per lower-dim
		// sub-structure present among the uninformed.
		for d2, dim2 := range s.top.Dims {
			if d2 == d {
				continue
			}
			s.gen++
			c := 0
			for _, gpu := range dim.Groups[ds.groups[0]] {
				if g2 := dim2.GroupOf(gpu); g2 >= 0 && !s.informed[gpu] && s.stamp[g2] != s.gen {
					s.stamp[g2] = s.gen
					c++
				}
			}
			if c >= 1 && c < ds.minUn {
				ds.suggested = append(ds.suggested, c)
			}
		}
	}
	if len(lv.eligible) == 0 {
		return
	}

	for _, mask := range s.subsetsOf(len(lv.eligible)) {
		// Hint: tree-family (and explicitly dim-ordered) stages use
		// exactly one dimension.
		if s.opts.Hint.singleDim(stage) && popcount(mask) != 1 {
			continue
		}
		lv.chosen = lv.chosen[:0]
		for i := range lv.eligible {
			if mask&(1<<i) != 0 {
				lv.chosen = append(lv.chosen, i)
			}
		}
		lv.counts = slices.Grow(lv.counts[:0], len(lv.chosen))[:len(lv.chosen)]
		s.enumCounts(lv, 0)
		if s.done() {
			return
		}
	}
}

// subsetsOf returns the non-empty subsets of m eligible dimensions as
// bit masks, smaller first (hierarchical one-dim-per-stage sketches are
// explored first), then by value.
func (s *searcher) subsetsOf(m int) []int {
	if s.subsets[m] == nil {
		masks := make([]int, 0, 1<<m-1)
		for mask := 1; mask < 1<<m; mask++ {
			masks = append(masks, mask)
		}
		slices.SortFunc(masks, func(a, b int) int {
			if pa, pb := popcount(a), popcount(b); pa != pb {
				return pa - pb
			}
			return a - b
		})
		s.subsets[m] = masks
	}
	return s.subsets[m]
}

// countChoices returns the destination counts to try for a dimension at
// the given stage, largest (full fan-out) first: c[:n]. A hinted stage
// size forces one count (or none, pruning the branch, when it is
// infeasible from this state or contradicts full fan-out).
func (s *searcher) countChoices(ds *dimState, stage int) (c [maxCountChoices]int, n int) {
	full := ds.minUn
	if forced := s.opts.Hint.stageSize(stage); forced > 0 {
		if forced > full || (s.fullFanout && forced != full) {
			return c, 0
		}
		c[0] = forced
		return c, 1
	}
	c[0], n = full, 1
	if s.fullFanout || full == 1 {
		return c, n
	}
	add := func(x int) {
		if x >= 1 && n < maxCountChoices && !slices.Contains(c[:n], x) {
			c[n] = x
			n++
		}
	}
	for _, x := range ds.suggested {
		add(x)
	}
	add(full / 2)
	add(1)
	return c, n
}

// enumCounts assigns a destination count to each chosen dimension from
// position i on and, once all are fixed, materializes the stage.
func (s *searcher) enumCounts(lv *level, i int) {
	if s.done() {
		return
	}
	if i == len(lv.chosen) {
		s.applyStage(lv)
		return
	}
	choices, n := s.countChoices(&lv.eligible[lv.chosen[i]], len(s.sk.Stages))
	for _, c := range choices[:n] {
		lv.counts[i] = c
		s.enumCounts(lv, i+1)
		if s.done() {
			return
		}
	}
}

// applyStage materializes one stage and recurses into it. Per
// participating group, sources are the informed members; destinations are
// the `count` FARTHEST uninformed members — those whose cheapest
// connection to any informed GPU uses the highest dimension — with index
// as tie-break. Farthest-first matters on Clos fabrics: when a network
// group spans several servers, partial fan-out should reach one GPU per
// remote server (which NVLink cannot serve) rather than burn network
// bandwidth on server-mates.
//
// Cancellation is polled here, once per stage (ctx.Err takes an atomic
// load plus a mutex on the done path, and a stage costs far more).
func (s *searcher) applyStage(lv *level) {
	if s.ctx.Done() != nil && s.ctx.Err() != nil {
		s.cancelled = true
		return
	}
	lv.stage, lv.ids = lv.stage[:0], lv.ids[:0]
	newUsed, complete := lv.used, true
	for ci, ei := range lv.chosen {
		ds := &lv.eligible[ei]
		dim, count := s.top.Dims[ds.dim], lv.counts[ci]
		newUsed |= 1 << ds.dim
		for _, g := range ds.groups {
			lo := len(lv.ids)
			s.cand = s.cand[:0]
			for _, gpu := range dim.Groups[g] {
				if s.informed[gpu] {
					lv.ids = append(lv.ids, gpu)
				} else if !s.taken[gpu] {
					s.cand = append(s.cand, gpu)
				}
			}
			if len(s.cand) < count {
				complete = false // another dimension claimed the GPUs; skip combo
				break
			}
			mid := len(lv.ids)
			if count >= len(s.cand) {
				lv.ids = append(lv.ids, s.cand...)
			} else {
				lv.ids = s.pickFarthest(lv.ids, count)
			}
			dsts := lv.ids[mid:len(lv.ids):len(lv.ids)]
			slices.Sort(dsts)
			for _, d := range dsts {
				s.taken[d] = true
			}
			lv.stage = append(lv.stage, SubDemand{Dim: ds.dim, Group: g, Srcs: lv.ids[lo:mid:mid], Dsts: dsts})
		}
		if !complete {
			break
		}
	}
	for _, sd := range lv.stage {
		for _, d := range sd.Dsts {
			s.taken[d] = false
		}
	}
	if !complete {
		return
	}
	covered := s.inform(lv.stage, true)
	s.sk.Stages = append(s.sk.Stages, lv.stage)
	s.recurse(lv.remaining-covered, newUsed)
	s.sk.Stages = s.sk.Stages[:len(s.sk.Stages)-1]
	s.inform(lv.stage, false)
}

// inform sets the informed state of the stage's destinations and returns
// how many there are.
func (s *searcher) inform(st Stage, v bool) int {
	n := 0
	for _, sd := range st {
		for _, d := range sd.Dsts {
			s.informed[d] = v
		}
		n += len(sd.Dsts)
	}
	return n
}

// pickFarthest appends count of the candidates to ids, greedily farthest
// first with spreading: a candidate's effective distance drops once a
// nearby destination has been picked, so partial fan-out lands one
// destination per far sub-structure (e.g. one per remote server).
func (s *searcher) pickFarthest(ids []int, count int) []int {
	s.far = s.far[:0]
	for _, c := range s.cand {
		s.far = append(s.far, s.farness(c))
	}
	for n := 0; n < count; n++ {
		best := 0
		for i, c := range s.cand {
			if s.far[i] > s.far[best] || (s.far[i] == s.far[best] && c < s.cand[best]) {
				best = i
			}
		}
		p := s.cand[best]
		ids = append(ids, p)
		s.cand = slices.Delete(s.cand, best, best+1)
		s.far = slices.Delete(s.far, best, best+1)
		// A candidate sharing a group of dimension d with p is now at
		// most d away.
		for i, c := range s.cand {
			for d := 0; d < s.far[i]; d++ {
				if s.top.SameGroup(d, c, p) {
					s.far[i] = d
					break
				}
			}
		}
	}
	return ids
}

// farness is the smallest dimension index connecting gpu to an informed
// GPU (bigger = farther from the informed set).
func (s *searcher) farness(gpu int) int {
	for d, dim := range s.top.Dims {
		grp := dim.GroupOf(gpu)
		if grp < 0 {
			continue
		}
		for _, other := range dim.Groups[grp] {
			if s.informed[other] {
				return d
			}
		}
	}
	return s.top.NumDims()
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// emit records the complete sketch unless an isomorphic one (pruning #1)
// or, with pruning #1 off, an identical one was recorded before.
func (s *searcher) emit() {
	s.desc, s.parts = s.sk.appendDescriptor(s.desc[:0], s.parts)
	if s.opts.DisablePrune1 {
		s.desc = s.sk.appendExact(s.desc)
	}
	if _, dup := s.seen[string(s.desc)]; dup {
		return
	}
	s.seen[string(s.desc)] = struct{}{}
	s.out = append(s.out, s.sk.Clone())
}
