package core

import (
	"context"
	"sort"

	"syccl/internal/collective"
	"syccl/internal/isomorph"
	"syccl/internal/obs"
	"syccl/internal/schedule"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// candidate is one sketch combination under evaluation. asm and cells are
// made once, before the coarse pass, and shared by every pass after it:
// cells[i] is the demand-table id of asm.cells[i]. subs are the per-cell
// sub-schedules sched was built from (read-only; a winner's become its
// Recipe.Subs). Injected fixed schedules (the ring) have none of the
// three. source and engine record which pass produced the schedule —
// provenance for the incumbent published when the candidate wins the
// pipeline.
type candidate struct {
	combo  *sketch.Combination
	asm    *assembly
	cells  []int
	subs   []*solve.SubSchedule
	sched  *schedule.Schedule
	time   float64
	source string
	engine string
}

// assembleAll builds every combination's assembly (in parallel) and
// interns their cell demands into the call's demand table, in
// candidate-then-cell order: from here on a cell is known by the id of the
// first structurally equal demand, and per-demand work is done once per
// id. An unrealizable combination leaves a nil entry.
func assembleAll(top *topology.Topology, col *collective.Collective, combos []*sketch.Combination,
	tab *isomorph.Table, opts Options, span *obs.Span) []*candidate {

	out := make([]*candidate, len(combos))
	parallelFor(len(combos), opts.Workers, func(ci int) {
		a, err := newAssembly(top, col, combos[ci])
		if err != nil {
			cs := span.ChildLane("candidate")
			cs.SetInt("index", int64(ci))
			cs.SetStr("outcome", "unrealizable")
			cs.End()
			return // a candidate may be unrealizable; skip it
		}
		out[ci] = &candidate{combo: combos[ci], asm: a}
	})
	for _, c := range out {
		if c == nil {
			continue
		}
		c.cells = make([]int, len(c.asm.cells))
		for i, cd := range c.asm.cells {
			c.cells[i] = tab.Intern(cd.demand)
		}
	}
	return out
}

// distinctCells lists the demand ids the candidates' cells use, in
// first-occurrence order (candidate, then cell), with the number of cells
// using each id and in all. Nil candidates and ones without an assembly
// have none.
func distinctCells(tab *isomorph.Table, cands []*candidate) (ids, uses []int, cells int) {
	uses = make([]int, tab.Len())
	for _, c := range cands {
		if c == nil {
			continue
		}
		cells += len(c.cells)
		for _, id := range c.cells {
			if uses[id] == 0 {
				ids = append(ids, id)
			}
			uses[id]++
		}
	}
	return ids, uses, cells
}

// buildCombinations generates the candidate sketch combinations for a
// collective (§4.2, §4.3):
//
//   - every ranked sketch alone (best for latency-bound small sizes);
//   - its replication balanced across groups (one-to-all collectives) or
//     its all-roots expansion (all-to-all collectives);
//   - integrated multi-flavor combinations whose chunk ratios match the
//     per-dimension bandwidth shares (best for bandwidth-bound sizes).
//
// Since "it is difficult to classify chunk sizes as small or large, SyCCL
// generates both types of combinations for all chunk sizes" — the
// simulator-ranked evaluation picks the winner.
func buildCombinations(ctx context.Context, top *topology.Topology, col *collective.Collective,
	sketches []*sketch.Sketch, allToAll, scatter bool, opts Options) []*sketch.Combination {

	ranked := rankSketches(top, col.ChunkSize, sketches)
	take := maxCombos
	if take > len(ranked) {
		take = len(ranked)
	}

	var combos []*sketch.Combination
	if allToAll {
		for _, sk := range ranked[:take] {
			combo, missing := sketch.ExpandAllToAll(top, sk)
			if len(missing) > 0 {
				// Degraded symmetry: some roots are unreachable through
				// any verified automorphism. Fill them with a per-root
				// sketch search; drop the candidate if a root stays
				// uncoverable.
				combo = fillMissingRoots(ctx, top, col.ChunkSize, combo, missing, scatter, opts)
				if combo == nil {
					continue
				}
			}
			combos = append(combos, combo)
		}
	} else {
		for _, sk := range ranked[:take] {
			combos = append(combos, sketch.Single(sk))
			if rep := sketch.Replicate(top, sk, 0); len(rep.Sketches) > 1 {
				combos = append(combos, rep)
			}
		}
	}

	// Integrated flavors: pick, per physical port class, the combination
	// that loads it most (relative to its bandwidth share) and let the
	// §4.2 step-2 allocation split the chunk across them.
	byClass := map[int]*sketch.Combination{}
	var classes []int
	for _, c := range combos {
		w := c.DimWorkload(top)
		cw := make([]float64, top.NumPortClasses())
		var total float64
		for d, v := range w {
			cw[top.Dim(d).PortClass] += v
			total += v
		}
		if total == 0 {
			continue
		}
		// Ascending class order, so a tie goes to the lowest class on
		// every run: the choice decides the integrated candidate.
		dom, domScore := -1, 0.0
		for cl, v := range cw {
			share := top.ClassShare(cl)
			if share <= 0 {
				continue
			}
			score := v / total / share
			if score > domScore {
				domScore = score
				dom = cl
			}
		}
		if dom >= 0 && byClass[dom] == nil {
			byClass[dom] = c
			classes = append(classes, dom)
		}
	}
	if len(classes) >= 2 {
		sort.Ints(classes)
		flavors := make([]*sketch.Combination, 0, len(classes))
		for _, cl := range classes {
			flavors = append(flavors, byClass[cl])
		}
		if integ := sketch.Integrate(top, flavors); integ != nil {
			combos = append(combos, integ)
		}
		// Pairwise integrations when more than two flavors exist.
		if len(flavors) > 2 {
			for i := 0; i < len(flavors); i++ {
				for j := i + 1; j < len(flavors); j++ {
					if integ := sketch.Integrate(top, []*sketch.Combination{flavors[i], flavors[j]}); integ != nil {
						combos = append(combos, integ)
					}
				}
			}
		}
	}

	if len(combos) > 2*maxCombos {
		combos = combos[:2*maxCombos]
	}
	// Pipelined pieces: on the one-to-all path every combination also
	// runs split k ways along time, the same mechanism as the §4.2
	// step-2 split across sketches. The all-to-all expansion already
	// pipelines across its N roots.
	if !allToAll {
		for _, c := range combos[:len(combos):len(combos)] {
			if k := splitFactor(top, col.ChunkSize, c); k > 1 {
				combos = append(combos, c.Split(k))
			}
		}
	}
	return combos
}

// maxSplit caps the pipelining factor of a split combination: k = 16
// buys little over k = 8 (NCCL's time over ours 1.637 against 1.571 on
// the 8-GPU server's 64 MiB Broadcast) for 1.4× the synthesis time
// (DESIGN.md, "Pipelined pieces").
const maxSplit = 8

// splitFactor is how many ways combination c splits along time: the
// largest power of two k ≤ maxSplit that keeps every piece at least the
// Hockney half-bandwidth size n½ = α/β of every (dim, group) it crosses,
// and keeps k times the deliveries of the combination's largest cell
// within solve.FlattenDeliveries, so no split cell leaves the search
// engines. 1: no split.
func splitFactor(top *topology.Topology, chunkBytes float64, c *sketch.Combination) int {
	k := maxSplit
	cells := map[cellKey]int{}
	var tree sketch.ScatterTree
	for j, sk := range c.Sketches {
		frac := c.Fracs[j]
		if frac <= 0 {
			continue
		}
		if sk.Scatter && tree.Build(sk, top.NumGPUs()) != nil {
			return 1 // newAssembly rejects it
		}
		bytes := frac * chunkBytes
		for st, stage := range sk.Stages {
			for _, sd := range stage {
				dim := top.Dim(sd.Dim)
				for k > 1 && bytes/float64(k) < dim.AlphaOf(sd.Group)/dim.BetaOf(sd.Group) {
					k /= 2
				}
				m := len(sd.Dsts)
				if sk.Scatter {
					m = 0
					for _, w := range sd.Dsts {
						m += tree.Size(w)
					}
				}
				cells[cellKey{st, sd.Dim, sd.Group}] += m
			}
		}
	}
	for _, m := range cells {
		for k > 1 && k*m > solve.FlattenDeliveries {
			k /= 2
		}
	}
	return k
}

// fillMissingRoots completes a partially-expanded all-to-all combination
// (§4.3 under broken symmetry): for every root the symmetry action could
// not reach, it runs the cached per-root sketch search and grafts the
// best-ranked sketch rooted there. Returns nil when any root remains
// uncoverable (the candidate cannot form a complete all-to-all).
func fillMissingRoots(ctx context.Context, top *topology.Topology, chunkBytes float64, combo *sketch.Combination,
	missing []int, scatter bool, opts Options) *sketch.Combination {

	for _, r := range missing {
		found := false
		for _, cand := range rankSketches(top, chunkBytes, searchCached(ctx, top, r, scatter, opts)) {
			if cand.Root == r && cand.Validate(top) == nil {
				combo.Sketches = append(combo.Sketches, cand)
				combo.Fracs = append(combo.Fracs, 1)
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	// Restore ascending root order for deterministic assembly.
	sort.SliceStable(combo.Sketches, func(a, b int) bool {
		return combo.Sketches[a].Root < combo.Sketches[b].Root
	})
	return combo
}

// rankSketches orders sketches by a cheap analytic estimate of their
// single-chunk completion time at the given chunk size: per stage, the
// slowest sub-demand's α + β·s·(deliveries per source); stages sum.
// Ties break on the structural descriptor for determinism.
func rankSketches(top *topology.Topology, chunkBytes float64, sketches []*sketch.Sketch) []*sketch.Sketch {
	type scored struct {
		sk   *sketch.Sketch
		est  float64
		desc string
	}
	list := make([]scored, len(sketches))
	for i, sk := range sketches {
		list[i] = scored{sk: sk, est: estimateTime(top, chunkBytes, sk), desc: sk.Descriptor()}
	}
	sort.SliceStable(list, func(a, b int) bool {
		if list[a].est != list[b].est {
			return list[a].est < list[b].est
		}
		return list[a].desc < list[b].desc
	})
	out := make([]*sketch.Sketch, len(list))
	for i, s := range list {
		out[i] = s.sk
	}
	return out
}

func estimateTime(top *topology.Topology, chunkBytes float64, sk *sketch.Sketch) float64 {
	var tree sketch.ScatterTree
	if sk.Scatter {
		_ = tree.Build(sk, top.NumGPUs()) // destinations it leaves out weigh 0
	}
	total := 0.0
	for _, st := range sk.Stages {
		worst := 0.0
		for _, sd := range st {
			dim := top.Dim(sd.Dim)
			deliveries := float64(len(sd.Dsts))
			if sk.Scatter {
				deliveries = 0
				for _, d := range sd.Dsts {
					deliveries += float64(tree.Size(d))
				}
			}
			perSrc := deliveries / float64(len(sd.Srcs))
			if perSrc < 1 {
				perSrc = 1
			}
			t := dim.AlphaOf(sd.Group) + dim.BetaOf(sd.Group)*chunkBytes*perSrc
			if t > worst {
				worst = t
			}
		}
		total += worst
	}
	return total
}
