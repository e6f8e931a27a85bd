package solve

import (
	"cmp"
	"slices"
	"sync"
)

// interval is one busy [start, end) port reservation in epochs.
type interval struct{ start, end int }

// earliestFree returns the first epoch ≥ from at which span consecutive
// epochs are free in busy, which is sorted by start and non-overlapping
// (so by end too): the scan starts at the first interval ending after
// from, found by binary search.
func earliestFree(busy []interval, from, span int) int {
	lo, hi := 0, len(busy)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if busy[m].end <= from {
			lo = m + 1
		} else {
			hi = m
		}
	}
	t := from
	for _, iv := range busy[lo:] {
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
	rank       uint64        // piece·n² + dst: a send's rank less its source terms
	starts     []cachedStart // indexed by source GPU
}

// greedySolve runs earliest-finish list scheduling on the epoch grid.
// At every step it considers all (piece, holder, needy destination)
// triples, computes the earliest epoch at which that send could start
// given port reservations and piece availability, and commits the send
// with the earliest arrival, equal arrivals going to the lowest rank.
// That order is total, so the order the triples are visited in is free:
// a committed delivery's slot takes the last open one, and a new holder
// joins the end of its piece's list. A committed send invalidates only
// the cached starts that share its egress or ingress port, and a triple
// whose cached start (a floor) cannot beat the round's best so far is
// passed over without a port scan. Deterministic. Its working memory
// comes from scratchPool; only the SubSchedule and its Transfers are new.
func greedySolve(d *Demand, tau float64) *SubSchedule {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc.greedy(d, tau)
}

// scratch is a solve's working memory: greedySolve's per-piece epoch
// parameters and holder lists, the open deliveries and their start
// caches, the per-GPU counts and roles, and the port reservations;
// flattenSolve's jobs, port clocks and sort counts. Solves take one from
// scratchPool and put it back, so its arrays only ever grow.
type scratch struct {
	eps             []epochParams
	holders         [][]holder
	held            []holder
	open            []openDelivery
	received        []int
	role            []byte
	starts          []cachedStart
	egress, ingress [][]interval
	busy            []interval

	jobs, bySrc []job
	clocks      []int
	counts      []int
	order       []Transfer
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// sized returns *buf resliced to n elements, reallocated when too short.
// The contents are whatever the last solve left: every user writes an
// element before it reads it, or clears the slice.
func sized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// greedy is greedySolve in sc.
func (sc *scratch) greedy(d *Demand, tau float64) *SubSchedule {
	n := d.NumGPUs
	eps := sized(&sc.eps, len(d.Pieces))
	holders := sized(&sc.holders, len(d.Pieces))
	// Every piece's holder list is cut from one array with room for all
	// the GPUs it names, so the appends below never reallocate; each
	// ingress port likewise gets room for the deliveries it receives.
	room, owed := 0, 0
	for _, p := range d.Pieces {
		room += len(p.Srcs) + len(p.Dsts)
		owed += len(p.Dsts)
	}
	held := sized(&sc.held, room)[:0]
	open := sized(&sc.open, owed)[:0]
	received := sized(&sc.received, n)
	clear(received)
	role := sized(&sc.role, n) // per piece: 1 = source, 2 = needs it
	for pi, p := range d.Pieces {
		eps[pi] = paramsFor(d, tau, p.Bytes)
		clear(role)
		for _, t := range p.Dsts {
			role[t] = 2
		}
		for _, s := range p.Srcs {
			role[s] = 1
		}
		first := len(held)
		for g, r := range role {
			switch r {
			case 1:
				held = append(held, holder{g, 0})
			case 2:
				open = append(open, openDelivery{piece: pi, dst: g})
				received[g]++
			}
		}
		end := first + len(p.Srcs) + len(p.Dsts)
		holders[pi] = held[first:len(held):end]
		held = held[:end]
	}
	out := &SubSchedule{Tau: tau, Engine: "greedy"}
	if len(open) == 0 {
		return out
	}
	out.Transfers = make([]Transfer, 0, len(open))
	slab := sized(&sc.starts, len(open)*n)
	clear(slab)
	for i := range open {
		open[i].starts = slab[i*n : (i+1)*n]
	}

	// Port reservations: for each GPU and direction, the busy intervals
	// in start order. An egress list keeps the array the last solve grew.
	egress := sized(&sc.egress, n)
	for g := range egress {
		egress[g] = egress[g][:0]
	}
	ingress := sized(&sc.ingress, n)
	busy := sized(&sc.busy, len(open))
	for g, m := range received {
		ingress[g], busy = busy[:0:m], busy[m:]
	}

	// A send's rank orders equal arrivals: ring offset (dst−src mod n)
	// first — the offset bias makes symmetric demands such as AllGather
	// fall into rotation patterns that keep every port busy instead of
	// piling deliveries onto few ingresses — then piece, source and
	// destination, packed into one integer. The offset is never 0, so
	// neither is a rank.
	un := uint64(n)
	perOffset := uint64(len(d.Pieces)) * un * un
	for i := range open {
		open[i].rank = uint64(open[i].piece)*un*un + uint64(open[i].dst)
	}
	rank := func(o *openDelivery, src int) uint64 {
		off := o.dst - src
		if off < 0 {
			off += n
		}
		return uint64(off)*perOffset + o.rank + uint64(src)*un
	}

	type cand struct {
		piece, src, dst int
		start, arrive   int
		rank            uint64
		open            int // index into open
	}
	for len(open) > 0 {
		found := false
		var choice cand
		for oi := range open {
			o := &open[oi]
			ep := eps[o.piece]
			in := ingress[o.dst]
			for _, h := range holders[o.piece] {
				cs := &o.starts[h.gpu]
				var r uint64 // the send's rank, 0 until needed
				if found {
					// Pass over a send whose floor cannot beat the choice.
					if a := max(h.avail, cs.start) + ep.lat; a >= choice.arrive {
						if a > choice.arrive {
							continue
						}
						if r = rank(o, h.gpu); r > choice.rank {
							continue
						}
					}
				}
				eg := egress[h.gpu]
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
				arrive := cs.start + ep.lat
				if found && arrive > choice.arrive {
					continue
				}
				if r == 0 {
					r = rank(o, h.gpu)
				}
				if found && arrive == choice.arrive && r > choice.rank {
					continue
				}
				found = true
				choice = cand{o.piece, h.gpu, o.dst, cs.start, arrive, r, oi}
			}
		}
		span := eps[choice.piece].span
		egress[choice.src] = reserve(egress[choice.src], choice.start, span)
		ingress[choice.dst] = reserve(ingress[choice.dst], choice.start, span)
		last := len(open) - 1
		open[choice.open] = open[last]
		open = open[:last]
		holders[choice.piece] = append(holders[choice.piece], holder{choice.dst, choice.arrive})
		out.Transfers = append(out.Transfers, Transfer{
			Src: choice.src, Dst: choice.dst, Piece: choice.piece,
			Start: choice.start, Arrive: choice.arrive,
		})
		if choice.arrive > out.Epochs {
			out.Epochs = choice.arrive
		}
	}
	slices.SortStableFunc(out.Transfers, func(a, b Transfer) int { return cmp.Compare(a.Start, b.Start) })
	return out
}
