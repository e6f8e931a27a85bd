package solve

import (
	"math/rand"
	"slices"
	"sort"
)

// greedySolve runs earliest-finish list scheduling on the epoch grid.
// At every step it considers all (piece, holder, needy destination)
// triples, computes the earliest epoch at which that send could start
// given port reservations and piece availability, and commits the send
// with the earliest arrival. rng, when non-nil, randomizes near-ties to
// diversify restarts; a nil rng is fully deterministic.
func greedySolve(d *Demand, tau float64, rng *rand.Rand) *SubSchedule {
	return greedyGuided(d, tau, rng, nil)
}

// greedyWeighted is greedySolve biased by the flow relaxation: among
// equal-arrival candidates it prefers sends from GPUs the fractional
// flow routes more outflow through (quantized weights from flowWeights),
// steering the rounding toward the LP's relay structure. Deterministic.
func greedyWeighted(d *Demand, tau float64, weights [][]int) *SubSchedule {
	s := greedyGuided(d, tau, nil, weights)
	s.Engine = "greedy+flow"
	return s
}

// interval is one busy [start, end) port reservation in epochs.
type interval struct{ start, end int }

// earliestFree returns the first epoch ≥ from at which span consecutive
// epochs are free in busy, which is sorted by start and non-overlapping.
func earliestFree(busy []interval, from, span int) int {
	t := from
	for _, iv := range busy {
		if iv.end <= t {
			continue
		}
		if t+span <= iv.start {
			break
		}
		t = iv.end
	}
	return t
}

// reserve inserts [start, start+span) into busy, keeping it sorted.
func reserve(busy []interval, start, span int) []interval {
	i := len(busy)
	for i > 0 && busy[i-1].start > start {
		i--
	}
	return slices.Insert(busy, i, interval{start, start + span})
}

// holder is a GPU that has (or will have) a piece: from epoch avail on
// it can forward it.
type holder struct{ gpu, avail int }

// cachedStart is the earliest start of one (open delivery, source)
// candidate, valid while its source's egress and its destination's
// ingress hold as many reservations as when it was computed (the counts
// are stored plus one, so the zero value is "never computed"). A port
// only ever gains reservations, so a stale start is still a floor for
// the fresh one.
type cachedStart struct {
	start       int
	egressSeen  int32
	ingressSeen int32
}

// openDelivery is one outstanding (piece, destination) pair with its
// per-source start cache.
type openDelivery struct {
	piece, dst int
	starts     []cachedStart // indexed by source GPU
}

// greedyGuided is the list scheduler behind greedySolve and
// greedyWeighted. Every round visits the candidates in (piece,
// destination, source) order — open deliveries and per-piece holder
// lists are kept sorted for that — and a committed send invalidates
// only the cached starts that share its egress or ingress port.
func greedyGuided(d *Demand, tau float64, rng *rand.Rand, weights [][]int) *SubSchedule {
	n := d.NumGPUs
	eps := make([]epochParams, len(d.Pieces))
	holders := make([][]holder, len(d.Pieces))
	var open []openDelivery
	role := make([]byte, n) // per piece: 1 = source, 2 = needs it
	for pi, p := range d.Pieces {
		eps[pi] = paramsFor(d, tau, p.Bytes)
		clear(role)
		for _, t := range p.Dsts {
			role[t] = 2
		}
		for _, s := range p.Srcs {
			role[s] = 1
		}
		for g, r := range role {
			switch r {
			case 1:
				holders[pi] = append(holders[pi], holder{g, 0})
			case 2:
				open = append(open, openDelivery{piece: pi, dst: g})
			}
		}
	}
	out := &SubSchedule{Tau: tau, Engine: "greedy"}
	if len(open) == 0 {
		return out
	}
	out.Transfers = make([]Transfer, 0, len(open))
	slab := make([]cachedStart, len(open)*n)
	for i := range open {
		open[i].starts = slab[i*n : (i+1)*n]
	}

	// Port reservations: for each GPU and direction, the busy intervals
	// in start order. Group sub-demands are small, so linear scans are
	// fine.
	egress := make([][]interval, n)
	ingress := make([][]interval, n)

	type cand struct {
		piece, src, dst int
		start, arrive   int
		open            int // index into open
	}

	// less orders candidates by earliest arrival, then (when flow weights
	// are present) by descending fractional outflow at the source, then
	// by ring offset (dst−src mod n): the offset bias makes symmetric
	// demands such as AllGather fall into rotation patterns that keep
	// every port busy instead of piling deliveries onto few ingresses.
	less := func(a, b cand) bool {
		if a.arrive != b.arrive {
			return a.arrive < b.arrive
		}
		if weights != nil {
			aw, bw := weights[a.piece][a.src], weights[b.piece][b.src]
			if aw != bw {
				return aw > bw
			}
		}
		ao := ((a.dst-a.src)%n + n) % n
		bo := ((b.dst-b.src)%n + n) % n
		if ao != bo {
			return ao < bo
		}
		if a.piece != b.piece {
			return a.piece < b.piece
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	}

	var nearBest []cand
	for len(open) > 0 {
		found := false
		var best cand
		nearBest = nearBest[:0]
		for oi := range open {
			o := &open[oi]
			ep := eps[o.piece]
			in := ingress[o.dst]
			for _, h := range holders[o.piece] {
				eg := egress[h.gpu]
				cs := &o.starts[h.gpu]
				if cs.egressSeen != int32(len(eg))+1 || cs.ingressSeen != int32(len(in))+1 {
					// Earliest epoch where both ports are free for span.
					start := max(h.avail, cs.start)
					for {
						s1 := earliestFree(eg, start, ep.span)
						s2 := earliestFree(in, s1, ep.span)
						if s1 == s2 {
							start = s1
							break
						}
						start = s2
					}
					*cs = cachedStart{start, int32(len(eg)) + 1, int32(len(in)) + 1}
				}
				c := cand{o.piece, h.gpu, o.dst, cs.start, cs.start + ep.lat, oi}
				if !found || less(c, best) {
					found = true
					best = c
				}
				if rng != nil {
					nearBest = append(nearBest, c)
				}
			}
		}
		choice := best
		if rng != nil {
			// Pick uniformly among candidates arriving within one epoch
			// of the best.
			k := 0
			for _, c := range nearBest {
				if c.arrive <= best.arrive+1 {
					nearBest[k] = c
					k++
				}
			}
			choice = nearBest[rng.Intn(k)]
		}
		span := eps[choice.piece].span
		egress[choice.src] = reserve(egress[choice.src], choice.start, span)
		ingress[choice.dst] = reserve(ingress[choice.dst], choice.start, span)
		open = slices.Delete(open, choice.open, choice.open+1)
		hs := holders[choice.piece]
		i := len(hs)
		for i > 0 && hs[i-1].gpu > choice.dst {
			i--
		}
		holders[choice.piece] = slices.Insert(hs, i, holder{choice.dst, choice.arrive})
		out.Transfers = append(out.Transfers, Transfer{
			Src: choice.src, Dst: choice.dst, Piece: choice.piece,
			Start: choice.start, Arrive: choice.arrive,
		})
		if choice.arrive > out.Epochs {
			out.Epochs = choice.arrive
		}
	}
	sort.SliceStable(out.Transfers, func(a, b int) bool { return out.Transfers[a].Start < out.Transfers[b].Start })
	return out
}

// improveSolve runs up to 16 randomized greedy restarts and returns the
// first schedule that attains the fewest epochs among best and the
// restarts; the count scales down on large demands where each greedy
// pass is itself expensive, keeping per-demand solve cost roughly flat.
func improveSolve(d *Demand, tau float64, seed int64, best *SubSchedule) *SubSchedule {
	restarts := 16
	if dc := deliveryCount(d); dc > 0 {
		if limit := 2000 / dc; limit < restarts {
			restarts = limit
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < restarts; i++ {
		s := greedySolve(d, tau, rng)
		if s.Epochs < best.Epochs {
			best = s
		}
	}
	return best
}
