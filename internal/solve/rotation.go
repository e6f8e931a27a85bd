package solve

// rotationSolve is a closed-form fast path for the demand shape that
// dominates all-to-all style workloads: every piece has a single source
// and is destined to every other GPU of the group, with a uniform piece
// size. The rotation schedule sends, in round r, each source's next piece
// to destination (src + 1 + r mod (n-1)) — every round is a perfect
// matching of ports, so the makespan meets the trivial load lower bound
// k·(n-1) rounds for k pieces per source.
//
// Returns nil when the demand, which must be valid (Demand.Validate),
// does not have the required shape.
func rotationSolve(d *Demand, tau float64) *SubSchedule {
	n := d.NumGPUs
	if n < 2 || len(d.Pieces) == 0 {
		return nil
	}
	perSrc := make([][]int, n) // piece indices by source
	bytes := d.Pieces[0].Bytes
	for pi, p := range d.Pieces {
		// A validated piece's n-1 destinations are everyone but its source.
		if len(p.Srcs) != 1 || p.Bytes != bytes || len(p.Dsts) != n-1 {
			return nil
		}
		perSrc[p.Srcs[0]] = append(perSrc[p.Srcs[0]], pi)
	}
	k := len(perSrc[0])
	if k == 0 {
		return nil
	}
	for _, ps := range perSrc {
		if len(ps) != k {
			return nil
		}
	}

	ep := paramsFor(d, tau, bytes)
	out := &SubSchedule{Tau: tau, Engine: "rotation"}
	rounds := k * (n - 1)
	for r := 0; r < rounds; r++ {
		start := r * ep.span
		arrive := start + ep.lat
		if arrive > out.Epochs {
			out.Epochs = arrive
		}
		off := r%(n-1) + 1
		pieceIdx := r / (n - 1)
		for src := 0; src < n; src++ {
			dst := (src + off) % n
			out.Transfers = append(out.Transfers, Transfer{
				Src: src, Dst: dst, Piece: perSrc[src][pieceIdx],
				Start: start, Arrive: arrive,
			})
		}
	}
	return out
}

// deliveryCount returns the total number of (piece, destination)
// deliveries of a demand — the iteration count of the greedy engine.
func deliveryCount(d *Demand) int {
	c := 0
	for _, p := range d.Pieces {
		c += len(p.Dsts)
	}
	return c
}

// flattenSolve handles very large demands that do not fit the rotation
// shape: every (piece, destination) delivery is served directly from one
// of the piece's initial holders (round-robin), placed first-fit on the
// port grid in rotation order (ascending (dst−src) mod n, then source,
// then piece), so each wave forms near-perfect port matchings. Linear in
// deliveries, where the generic greedy's candidate scan is quadratic.
// Relaying is given up — acceptable because at this scale the
// quality-critical demand shapes are covered by the rotation path, and
// candidates realized this way simply rank behind them in the simulator.
// On point-to-point demands (one source, one destination per piece, the
// shape AlltoAll decomposition produces) only port timing remains.
func flattenSolve(d *Demand, tau float64) *SubSchedule {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc.flatten(d, tau)
}

// job is one delivery flattenSolve places: piece, from src to dst.
type job struct{ piece, src, dst int }

// flatten is flattenSolve in sc: only the SubSchedule and its Transfers
// are new. Both orders are stable counting sorts.
func (sc *scratch) flatten(d *Demand, tau float64) *SubSchedule {
	n := d.NumGPUs
	listed := sized(&sc.jobs, deliveryCount(d))[:0]
	for pi, p := range d.Pieces {
		for k, dst := range p.Dsts {
			listed = append(listed, job{pi, p.Srcs[k%len(p.Srcs)], dst})
		}
	}
	// The jobs are listed by piece, so sorting them by source and then by
	// ring offset, stably, puts them in (offset, source, piece) order.
	bySrc := sized(&sc.bySrc, len(listed))
	countSort(listed, bySrc, sized(&sc.counts, n), func(j job) int { return j.src })
	jobs := listed
	countSort(bySrc, jobs, sc.counts, func(j job) int { return ((j.dst-j.src)%n + n) % n })

	clocks := sized(&sc.clocks, 2*n)
	clear(clocks)
	egress, ingress := clocks[:n], clocks[n:]
	placed := sized(&sc.order, len(jobs))
	out := &SubSchedule{Tau: tau, Engine: "flatten"}
	last := 0
	for i, j := range jobs {
		ep := paramsFor(d, tau, d.Pieces[j.piece].Bytes)
		start := max(egress[j.src], ingress[j.dst])
		egress[j.src] = start + ep.span
		ingress[j.dst] = start + ep.span
		arrive := start + ep.lat
		placed[i] = Transfer{Src: j.src, Dst: j.dst, Piece: j.piece, Start: start, Arrive: arrive}
		out.Epochs = max(out.Epochs, arrive)
		last = max(last, start)
	}
	out.Transfers = make([]Transfer, len(placed))
	countSort(placed, out.Transfers, sized(&sc.counts, last+1), func(t Transfer) int { return t.Start })
	return out
}

// countSort writes src into dst, stably sorted by key, which maps every
// element into [0, len(counts)).
func countSort[T any](src, dst []T, counts []int, key func(T) int) {
	clear(counts)
	for _, v := range src {
		counts[key(v)]++
	}
	sum := 0
	for k, c := range counts {
		counts[k], sum = sum, sum+c
	}
	for _, v := range src {
		k := key(v)
		dst[counts[k]] = v
		counts[k]++
	}
}
