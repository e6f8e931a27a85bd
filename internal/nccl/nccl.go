// Package nccl reimplements NCCL's fixed collective schedules as the
// paper's baseline (§2.1): hierarchical multi-ring AllGather/
// ReduceScatter/AllReduce (Fig 2), double-tree style Broadcast/Reduce,
// and direct/PXN AlltoAll. A Tune entry point mimics NCCL's tuner by
// picking the best fixed algorithm for a given size via the α-β
// simulator.
//
// Rings follow NCCL's rail-aligned construction: within each server GPUs
// form a chain; chains link across servers through same-rail network
// hops, one ring per local index, so every GPU is the network exit of
// exactly one ring. This pins the NVLink:network traffic ratio at
// (G-1):1 per server — the rigidity §2.1 blames for bandwidth waste.
package nccl

import (
	"fmt"

	"syccl/internal/collective"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/topology"
)

// dimFor returns the smallest dimension connecting two GPUs, preferring
// the intra-server fabric.
func dimFor(top *topology.Topology, a, b int) (int, error) {
	for d := 0; d < top.NumDims(); d++ {
		if top.SameGroup(d, a, b) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("nccl: GPUs %d and %d share no dimension", a, b)
}

// rings builds NCCL's ring orderings: ring r starts at local index r of
// server 0, walks the server's GPUs in local order, exits over the NIC of
// its last GPU to the same rail of the next server, and so on. The entry
// local index therefore advances by G-1 per server, which keeps every
// network hop rail-aligned and uses each GPU's NIC in exactly one ring.
func rings(top *topology.Topology) [][]int {
	s := top.Sym.Server.N
	g := top.Sym.Local.N
	if s == 1 {
		// Single server: simple NVLink rings, one rotation per local.
		out := make([][]int, 0, g)
		for r := 0; r < g; r++ {
			ring := make([]int, g)
			for k := 0; k < g; k++ {
				ring[k] = (r + k) % g
			}
			out = append(out, ring)
		}
		return out
	}
	// The per-server entry→exit shift δ must satisfy s·δ ≡ 0 (mod g) so
	// the ring closes with a rail-aligned wrap hop; the smallest positive
	// choice is g/gcd(g,s) (δ=1 in the classic 8×8 case).
	delta := (g / gcd(g, s)) % g
	if delta == 0 && g > 1 {
		// No shift closes the loop on this shape; fall back to δ=1 and
		// let the wrap hop ride an upper network dimension if present.
		delta = 1
	}
	out := make([][]int, 0, g)
	for r := 0; r < g; r++ {
		ring := make([]int, 0, s*g)
		entry := r
		for srv := 0; srv < s; srv++ {
			exit := (entry + delta) % g
			ring = append(ring, srv*g+entry)
			for k := 0; k < g; k++ {
				loc := (entry + k) % g
				if loc != entry && loc != exit {
					ring = append(ring, srv*g+loc)
				}
			}
			if exit != entry {
				ring = append(ring, srv*g+exit)
			}
			entry = exit
		}
		out = append(out, ring)
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// AllGather builds the hierarchical multi-ring AllGather schedule: each
// GPU's chunk is split across the rings; every ring performs N-1
// forwarding steps.
func AllGather(top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	if col.Kind != collective.KindAllGather {
		return nil, fmt.Errorf("nccl.AllGather: got %v", col.Kind)
	}
	n := top.NumGPUs()
	rs := rings(top)
	numRings := len(rs)
	// Ring r's share of chunk c is piece c*numRings+r. Every piece covers
	// one chunk and every transfer has at most one dependency; both lists
	// are cut, without spare capacity, from one array each.
	sched := &schedule.Schedule{
		NumGPUs:   n,
		Pieces:    make([]schedule.Piece, n*numRings),
		Transfers: make([]schedule.Transfer, 0, numRings*n*(n-1)),
	}
	chunks := make([]int, len(sched.Pieces))
	for p := range sched.Pieces {
		chunks[p] = p / numRings
		sched.Pieces[p] = schedule.Piece{Chunks: chunks[p : p+1 : p+1], Bytes: col.ChunkSize / float64(numRings)}
	}
	deps := make([]int, 0, numRings*n*max(n-2, 0))

	last := make([]int, n) // last transfer of chunk owned by ring position
	for r, ring := range rs {
		for i := range last {
			last[i] = -1
		}
		for step := 0; step < n-1; step++ {
			for i, gpu := range ring {
				src := gpu
				dst := ring[(i+1)%n]
				ownerPos := ((i-step)%n + n) % n
				chunk := ring[ownerPos]
				dim, err := dimFor(top, src, dst)
				if err != nil {
					return nil, err
				}
				t := schedule.Transfer{
					Src: src, Dst: dst, Piece: chunk*numRings + r, Dim: dim, Order: step,
				}
				if last[ownerPos] >= 0 {
					deps = append(deps, last[ownerPos])
					t.Deps = deps[len(deps)-1 : len(deps) : len(deps)]
				}
				last[ownerPos] = sched.AddTransfer(t)
			}
		}
	}
	return sched, nil
}

// ReduceScatter mirrors the ring AllGather (NCCL's ring ReduceScatter is
// its time reverse): contributions travel the ring accumulating toward
// each destination.
func ReduceScatter(top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	if col.Kind != collective.KindReduceScatter {
		return nil, fmt.Errorf("nccl.ReduceScatter: got %v", col.Kind)
	}
	ag, _ := col.Forward()
	fwd, err := AllGather(top, ag)
	if err != nil {
		return nil, err
	}
	return schedule.MirrorInto(fwd, ag, col), nil
}

// AllReduceRing is ring ReduceScatter followed by ring AllGather over
// n-th slices.
func AllReduceRing(top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	if col.Kind != collective.KindAllReduce {
		return nil, fmt.Errorf("nccl.AllReduceRing: got %v", col.Kind)
	}
	n := col.NumGPUs
	rsCol := collective.ReduceScatter(n, col.ChunkSize)
	agCol := collective.AllGather(n, col.ChunkSize)
	rs, err := ReduceScatter(top, rsCol)
	if err != nil {
		return nil, err
	}
	ag, err := AllGather(top, agCol)
	if err != nil {
		return nil, err
	}
	return schedule.Concat(rs, ag), nil
}

// Broadcast builds NCCL's hierarchical tree broadcast: the root fans out
// through a binary tree over servers (rail hops from the root's local
// index), then chains inside each server.
func Broadcast(top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	if col.Kind != collective.KindBroadcast {
		return nil, fmt.Errorf("nccl.Broadcast: got %v", col.Kind)
	}
	n := top.NumGPUs()
	g := top.Sym.Local.N
	s := top.Sym.Server.N
	sched := &schedule.Schedule{NumGPUs: n}
	p := sched.AddPiece(col.ChunkSize, 0)

	root := col.Root
	rootSrv, rootLoc := root/g, root%g

	// Binary tree over servers, rooted at the root's server, using
	// same-rail hops at the root's local index.
	arrivalAt := map[int]int{root: -1} // GPU → delivering transfer (-1 = origin)
	serverSeq := make([]int, 0, s)
	for i := 0; i < s; i++ {
		serverSeq = append(serverSeq, (rootSrv+i)%s)
	}
	// Heap-style binary tree over serverSeq positions.
	for idx := 0; idx < len(serverSeq); idx++ {
		for _, child := range []int{2*idx + 1, 2*idx + 2} {
			if child >= len(serverSeq) {
				continue
			}
			parentGPU := serverSeq[idx]*g + rootLoc
			childGPU := serverSeq[child]*g + rootLoc
			dim, err := dimFor(top, parentGPU, childGPU)
			if err != nil {
				return nil, err
			}
			t := schedule.Transfer{Src: parentGPU, Dst: childGPU, Piece: p, Dim: dim, Order: child}
			if dep, ok := arrivalAt[parentGPU]; ok && dep >= 0 {
				t.Deps = []int{dep}
			}
			arrivalAt[childGPU] = sched.AddTransfer(t)
		}
	}

	// Chain inside each server from the rail GPU.
	for srv := 0; srv < s; srv++ {
		head := srv*g + rootLoc
		dep := arrivalAt[head]
		prev := head
		for k := 1; k < g; k++ {
			dst := srv*g + (rootLoc+k)%g
			t := schedule.Transfer{Src: prev, Dst: dst, Piece: p, Dim: 0, Order: 1000 + k}
			if dep >= 0 {
				t.Deps = []int{dep}
			}
			dep = sched.AddTransfer(t)
			prev = dst
		}
	}
	return sched, nil
}

// Reduce mirrors Broadcast.
func Reduce(top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	if col.Kind != collective.KindReduce {
		return nil, fmt.Errorf("nccl.Reduce: got %v", col.Kind)
	}
	bc, _ := col.Forward()
	fwd, err := Broadcast(top, bc)
	if err != nil {
		return nil, err
	}
	return schedule.MirrorInto(fwd, bc, col), nil
}

// AlltoAll builds the pairwise exchange. On topologies where any pair
// shares a network dimension it sends directly; on rail-only fabrics it
// uses PXN: first an NVLink hop to the server-mate on the destination
// rail, then a rail hop (§2 of the NCCL 2.12 PXN description).
func AlltoAll(top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	if col.Kind != collective.KindAlltoAll {
		return nil, fmt.Errorf("nccl.AlltoAll: got %v", col.Kind)
	}
	n := top.NumGPUs()
	g := top.Sym.Local.N
	sched := &schedule.Schedule{NumGPUs: n}
	for _, ch := range col.Chunks {
		src, dst := ch.Src, ch.Dsts[0]
		p := sched.AddPiece(col.ChunkSize, ch.ID)
		order := ((dst-src)%n + n) % n // rotation order avoids convoying
		if d, err := dimFor(top, src, dst); err == nil {
			sched.AddTransfer(schedule.Transfer{Src: src, Dst: dst, Piece: p, Dim: d, Order: order})
			continue
		}
		// PXN relay: same-server GPU on the destination rail.
		relay := (src/g)*g + dst%g
		d1, err := dimFor(top, src, relay)
		if err != nil {
			return nil, err
		}
		d2, err := dimFor(top, relay, dst)
		if err != nil {
			return nil, fmt.Errorf("nccl: no PXN path %d→%d: %w", src, dst, err)
		}
		first := sched.AddTransfer(schedule.Transfer{Src: src, Dst: relay, Piece: p, Dim: d1, Order: order})
		sched.AddTransfer(schedule.Transfer{Src: relay, Dst: dst, Piece: p, Dim: d2, Order: order, Deps: []int{first}})
	}
	return sched, nil
}

// Schedule returns NCCL's schedule for a collective, picking among the
// library's fixed algorithms by simulated time the way NCCL's tuner
// selects by size class.
func Schedule(top *topology.Topology, col *collective.Collective, opts sim.Options) (*schedule.Schedule, float64, error) {
	type variant func(*topology.Topology, *collective.Collective) (*schedule.Schedule, error)
	var variants []variant
	switch col.Kind {
	case collective.KindAllGather:
		variants = []variant{AllGather}
	case collective.KindReduceScatter:
		variants = []variant{ReduceScatter}
	case collective.KindAllReduce:
		variants = []variant{AllReduceRing}
	case collective.KindBroadcast:
		variants = []variant{Broadcast}
	case collective.KindReduce:
		variants = []variant{Reduce}
	case collective.KindAlltoAll:
		variants = []variant{AlltoAll}
	default:
		return nil, 0, fmt.Errorf("nccl: unsupported collective %v", col.Kind)
	}
	var best *schedule.Schedule
	bestTime := 0.0
	for _, v := range variants {
		s, err := v(top, col)
		if err != nil {
			continue
		}
		r, err := sim.Simulate(top, s, opts)
		if err != nil {
			continue
		}
		if best == nil || r.Time < bestTime {
			best = s
			bestTime = r.Time
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("nccl: no valid schedule for %v on %s", col.Kind, top.Name)
	}
	return best, bestTime, nil
}
