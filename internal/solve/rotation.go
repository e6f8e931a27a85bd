package solve

import "sort"

// rotationSolve is a closed-form fast path for the demand shape that
// dominates all-to-all style workloads: every piece has a single source
// and is destined to every other GPU of the group, with a uniform piece
// size. The rotation schedule sends, in round r, each source's next piece
// to destination (src + 1 + r mod (n-1)) — every round is a perfect
// matching of ports, so the makespan meets the trivial load lower bound
// k·(n-1) rounds for k pieces per source.
//
// Returns nil when the demand does not have the required shape.
func rotationSolve(d *Demand, tau float64) *SubSchedule {
	n := d.NumGPUs
	if n < 2 || len(d.Pieces) == 0 {
		return nil
	}
	perSrc := make([][]int, n) // piece indices by source
	bytes := d.Pieces[0].Bytes
	for pi, p := range d.Pieces {
		if len(p.Srcs) != 1 || p.Bytes != bytes || len(p.Dsts) != n-1 {
			return nil
		}
		// Destinations must be exactly "everyone else".
		if !allOthers(p.Dsts, p.Srcs[0], n) {
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

func allOthers(dsts []int, src, n int) bool {
	if len(dsts) != n-1 {
		return false
	}
	sorted := append([]int(nil), dsts...)
	sort.Ints(sorted)
	want := 0
	for _, d := range sorted {
		if want == src {
			want++
		}
		if d != want {
			return false
		}
		want++
	}
	return true
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
	n := d.NumGPUs
	type job struct{ piece, src, dst int }
	jobs := make([]job, 0, deliveryCount(d))
	for pi, p := range d.Pieces {
		for k, dst := range p.Dsts {
			jobs = append(jobs, job{pi, p.Srcs[k%len(p.Srcs)], dst})
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool {
		oa := ((jobs[a].dst-jobs[a].src)%n + n) % n
		ob := ((jobs[b].dst-jobs[b].src)%n + n) % n
		if oa != ob {
			return oa < ob
		}
		if jobs[a].src != jobs[b].src {
			return jobs[a].src < jobs[b].src
		}
		return jobs[a].piece < jobs[b].piece
	})
	egress := make([]int, n)
	ingress := make([]int, n)
	out := &SubSchedule{Tau: tau, Engine: "flatten", Transfers: make([]Transfer, 0, len(jobs))}
	for _, j := range jobs {
		ep := paramsFor(d, tau, d.Pieces[j.piece].Bytes)
		start := egress[j.src]
		if ingress[j.dst] > start {
			start = ingress[j.dst]
		}
		egress[j.src] = start + ep.span
		ingress[j.dst] = start + ep.span
		arrive := start + ep.lat
		out.Transfers = append(out.Transfers, Transfer{Src: j.src, Dst: j.dst, Piece: j.piece, Start: start, Arrive: arrive})
		if arrive > out.Epochs {
			out.Epochs = arrive
		}
	}
	sort.SliceStable(out.Transfers, func(a, b int) bool { return out.Transfers[a].Start < out.Transfers[b].Start })
	return out
}
