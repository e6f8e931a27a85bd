package core

import (
	"context"
	"math"

	"syccl/internal/isomorph"
	"syccl/internal/obs"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// The reported bound: between the coarse and fine passes, the coarse
// incumbent gets a provable lower bound on the simulated completion time
// of ANY schedule realizing its combination. It is reported as
// Result.Bound, carried on the incumbent stream, and read by the
// StopWithin gate; it never decides which candidates the fine pass
// refines.
//
// The bound combines three sound ingredients:
//
//   - per cell, the seconds-domain flow relaxation solve.FlowTimeBound
//     (LP port work in β·b units plus one α tail), valid against the α-β
//     simulator regardless of epoch discretization or block pipelining,
//     since every required delivery still moves its full payload through
//     the destination's ingress port;
//   - across stages, required-delivery ingress load summed per physical
//     (dimension, GPU) port: cells of different stages in the same
//     dimension contend for the same ports, so their loads add;
//   - per piece, an arrival chain: a stage's transfer of a piece cannot
//     start before some designated source holds it, so walking cells in
//     stage order and propagating min-over-sources arrival plus one
//     α+β·b hop lower-bounds the piece's last delivery. Unknown sources
//     (original holders) contribute 0, keeping the chain conservative.
//
// The LPs are deterministic, so the bound is the same for any Workers
// setting. A cancelled LP yields 0 (no bound); anytime semantics are
// unaffected.

// demandTimeBounds returns, indexed by demand id, the seconds lower bound
// of every demand the candidates' cells use: one solve.FlowTimeBound LP
// per distinct demand, and 0 where unavailable (cancelled LP). The LPs
// run through parallelFor in first-occurrence order, each into its own
// slot, so the result does not depend on Workers; the span records the
// simplex pivots they spent (the lp.pivots counter stays the exact
// engine's).
func demandTimeBounds(ctx context.Context, tab *isomorph.Table, cands []*candidate, opts Options, span *obs.Span) []float64 {
	ids, _, cells := distinctCells(tab, cands)
	sec := make([]float64, tab.Len())
	pivots := make([]int, len(ids))
	parallelFor(len(ids), opts.Workers, func(_, k int) {
		v, n, err := solve.FlowTimeBound(ctx, tab.Demand(ids[k]))
		pivots[k] = n
		if err == nil {
			sec[ids[k]] = v
		}
	})
	span.SetInt("cells", int64(cells))
	span.SetInt("distinct", int64(len(ids)))
	total := 0
	for _, n := range pivots {
		total += n
	}
	span.SetInt("pivots", int64(total))
	return sec
}

// candidateTimeBound bounds the simulated completion time of any
// schedule realizing the candidate's combination, given the per-demand
// bounds of demandTimeBounds, or returns 0 when no bound is available
// (injected fixed schedules have no assembly). Its working memory comes
// from sc.
func candidateTimeBound(top *topology.Topology, c *candidate, sec []float64, sc *boundScratch) float64 {
	a := c.asm
	if a == nil {
		return 0
	}
	n := a.numGPUs
	// Port tables are flat over dim*n+gpu. (piece, GPU) tables follow
	// assembly.build's flat-or-hashed rule and zeroing, sized by the
	// deliveries:
	// arrivals index into arrival (1 + position, in first-delivery order),
	// and counted marks, per (piece, GPU, dim), a delivery whose ingress
	// load is on its port already.
	total := 0
	for _, cd := range a.cells {
		for _, p := range cd.demand.Pieces {
			total += len(p.Dsts)
		}
	}
	dims := top.NumDims()
	load := zeroed(&sc.load, dims*n)
	alphaOf := zeroed(&sc.alphaOf, len(load))
	loaded := zeroed(&sc.loaded, len(load))
	counted := deliveriesIn(&sc.counted, len(a.pieces)*n*dims, total)
	arrivals := deliveriesIn(&sc.arrivals, len(a.pieces)*n, total)
	// The slots recorded are every demanded delivery's.
	defer func() {
		for _, cd := range a.cells {
			for _, p := range cd.demand.Pieces {
				for _, j := range p.Dsts {
					slot := p.ID*n + cd.gpus[j]
					counted.forget(slot*dims + cd.key.dim)
					arrivals.forget(slot)
				}
			}
		}
		counted.reset()
		arrivals.reset()
	}()
	arrival := zeroed(&sc.arrival, total)[:0]
	best := 0.0
	// Cells are sorted by ascending stage, so arrival chains propagate
	// forward; same-stage cells processed out of dependency order only
	// loosen the chain (unseen sources read as 0), never tighten it.
	for i, cd := range a.cells {
		k := cd.key
		if v := sec[c.cells[i]]; v > best {
			best = v
		}
		dim := top.Dim(k.dim)
		alpha, beta := dim.AlphaOf(k.group), dim.BetaOf(k.group)
		for _, p := range cd.demand.Pieces {
			start := math.Inf(1)
			for _, s := range p.Srcs {
				v := 0.0
				if at := arrivals.first(p.ID*n + cd.gpus[s]); at != 0 {
					v = arrival[at-1]
				}
				if v < start {
					start = v
				}
			}
			if math.IsInf(start, 1) {
				start = 0
			}
			hop := start + alpha + beta*p.Bytes
			for _, j := range p.Dsts {
				g := cd.gpus[j]
				slot := p.ID*n + g
				if d := slot*dims + k.dim; counted.first(d) == 0 {
					counted.record(d, 0)
					pt := k.dim*n + g
					load[pt] += beta * p.Bytes
					alphaOf[pt] = alpha
					loaded[pt] = true
				}
				if at := arrivals.first(slot); at == 0 {
					arrival = append(arrival, hop)
					arrivals.record(slot, len(arrival)-1)
				} else if hop < arrival[at-1] {
					arrival[at-1] = hop
				}
			}
		}
	}
	for pt, l := range load {
		if v := l + alphaOf[pt]; loaded[pt] && v > best {
			best = v
		}
	}
	for _, v := range arrival {
		if v > best {
			best = v
		}
	}
	return best
}

// boundScratch is candidateTimeBound's working memory: the two delivery
// tables, all zeros between uses, the per-port loads and the arrivals.
type boundScratch struct {
	counted, arrivals      []int32
	load, alphaOf, arrival []float64
	loaded                 []bool
}

// incumbentBound returns the coarse incumbent's flow lower bound, or 0
// when none is available (an injected fixed schedule such as the ring, a
// cancelled LP), under one solve.bound span, in ws.
func incumbentBound(ctx context.Context, top *topology.Topology, tab *isomorph.Table,
	inc *candidate, opts Options, ws *workspace, parent *obs.Span) float64 {

	bs := parent.Child("solve.bound")
	defer bs.End()
	sec := demandTimeBounds(ctx, tab, []*candidate{inc}, opts, bs)
	lb := candidateTimeBound(top, inc, sec, &ws.bound)
	bs.SetFloat("incumbent-lb", lb)
	return lb
}
