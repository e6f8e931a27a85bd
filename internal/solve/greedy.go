package solve

import (
	"math/rand"
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

func greedyGuided(d *Demand, tau float64, rng *rand.Rand, weights [][]int) *SubSchedule {
	n := d.NumGPUs
	// avail[p][g]: epoch at which g can forward piece p; -1 = never (yet).
	avail := make([][]int, len(d.Pieces))
	needed := make([][]bool, len(d.Pieces))
	remaining := 0
	for pi, p := range d.Pieces {
		avail[pi] = make([]int, n)
		for g := range avail[pi] {
			avail[pi][g] = -1
		}
		for _, s := range p.Srcs {
			avail[pi][s] = 0
		}
		needed[pi] = make([]bool, n)
		for _, t := range p.Dsts {
			if !needed[pi][t] {
				needed[pi][t] = true
				remaining++
			}
		}
	}

	// Port reservations: for each GPU and direction, busy [start, end)
	// intervals in epochs. Group sub-demands are small, so linear scans
	// are fine.
	type interval struct{ start, end int }
	egress := make([][]interval, n)
	ingress := make([][]interval, n)

	earliestFree := func(busy []interval, from, span int) int {
		t := from
		for {
			ok := true
			for _, iv := range busy {
				if t < iv.end && t+span > iv.start {
					t = iv.end
					ok = false
					break
				}
			}
			if ok {
				return t
			}
		}
	}
	reserve := func(busy *[]interval, start, span int) {
		*busy = append(*busy, interval{start, start + span})
		sort.Slice(*busy, func(a, b int) bool { return (*busy)[a].start < (*busy)[b].start })
	}

	out := &SubSchedule{Tau: tau, Engine: "greedy"}

	type cand struct {
		piece, src, dst int
		start, arrive   int
	}

	// less orders candidates by earliest arrival, then (when flow weights
	// are present) by descending fractional outflow at the source, then
	// by ring offset (dst−src mod n): the offset bias makes symmetric
	// demands such as AllGather fall into rotation patterns that keep
	// every port busy instead of piling deliveries onto few ingresses.
	less := func(a, b cand, n int) bool {
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

	for remaining > 0 {
		found := false
		var best cand
		var nearBest []cand
		for pi, p := range d.Pieces {
			ep := paramsFor(d, tau, p.Bytes)
			for dst := 0; dst < n; dst++ {
				if !needed[pi][dst] {
					continue
				}
				for src := 0; src < n; src++ {
					if avail[pi][src] < 0 || src == dst {
						continue
					}
					// Earliest epoch where both ports are free for span.
					start := avail[pi][src]
					for {
						s1 := earliestFree(egress[src], start, ep.span)
						s2 := earliestFree(ingress[dst], s1, ep.span)
						if s1 == s2 {
							start = s1
							break
						}
						start = s2
					}
					c := cand{pi, src, dst, start, start + ep.lat}
					if !found || less(c, best, n) {
						found = true
						best = c
					}
					if rng != nil {
						nearBest = append(nearBest, c)
					}
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
		p := d.Pieces[choice.piece]
		ep := paramsFor(d, tau, p.Bytes)
		reserve(&egress[choice.src], choice.start, ep.span)
		reserve(&ingress[choice.dst], choice.start, ep.span)
		avail[choice.piece][choice.dst] = choice.arrive
		needed[choice.piece][choice.dst] = false
		remaining--
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

// improveSolve runs up to 16 randomized greedy restarts and keeps the
// best schedule; the count scales down on large demands where each greedy
// pass is itself expensive (the quadratic candidate scan), keeping
// per-demand solve cost roughly flat.
func improveSolve(d *Demand, tau float64, seed int64) *SubSchedule {
	restarts := 16
	if dc := deliveryCount(d); dc > 0 {
		if limit := 2000 / dc; limit < restarts {
			restarts = limit
		}
	}
	best := greedySolve(d, tau, nil)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < restarts; i++ {
		s := greedySolve(d, tau, rng)
		if s.Epochs < best.Epochs {
			best = s
		}
	}
	best.Engine = "greedy+restarts"
	return best
}
