// Package nccl reimplements NCCL's fixed collective schedules as the
// paper's baseline (§2.1): hierarchical multi-ring AllGather/
// ReduceScatter/AllReduce (Fig 2), a binary tree over servers then a
// chain inside each for Broadcast/Reduce, and direct/PXN AlltoAll.
// Schedule builds the kind's algorithm and times it with the α-β
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

// dimFor returns the first dimension connecting two GPUs, preferring
// the intra-server fabric.
func dimFor(top *topology.Topology, a, b int) (int, error) {
	if d := top.DimOf(a, b); d >= 0 {
		return d, nil
	}
	return 0, noDim(a, b)
}

func noDim(a, b int) error {
	return fmt.Errorf("nccl: GPUs %d and %d share no dimension", a, b)
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
	return AllGatherInto(nil, top, col)
}

// Buffer is memory AllGatherInto builds a ring into and reuses from one
// call to the next: the schedule, whose Pieces and Transfers arrays it
// reuses, and the arrays the chunk and dependency lists are cut from. The
// zero value is ready. A ring built into a Buffer lives there until the
// next build into it; a caller that hands the ring out hands out the
// Buffer with it.
type Buffer struct {
	sched        schedule.Schedule
	chunks, deps []int
}

// AllGatherInto is AllGather built into dst, or into new memory when dst
// is nil.
func AllGatherInto(dst *Buffer, top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	if col.Kind != collective.KindAllGather {
		return nil, fmt.Errorf("nccl.AllGather: got %v", col.Kind)
	}
	if dst == nil {
		dst = new(Buffer)
	}
	n := top.NumGPUs()
	rs := rings(top)
	numRings := len(rs)
	// Ring r's share of chunk c is piece c*numRings+r. Every piece covers
	// one chunk and every transfer has at most one dependency; both lists
	// are cut, without spare capacity, from one array each.
	sched := &dst.sched
	sched.NumGPUs = n
	sched.Pieces = sized(sched.Pieces, n*numRings)
	sched.Transfers = sized(sched.Transfers, numRings*n*(n-1))[:0]
	chunks := sized(dst.chunks, len(sched.Pieces))
	dst.chunks = chunks
	for p := range sched.Pieces {
		chunks[p] = p / numRings
		sched.Pieces[p] = schedule.Piece{Chunks: chunks[p : p+1 : p+1], Bytes: col.ChunkSize / float64(numRings)}
	}
	deps := sized(dst.deps, numRings*n*max(n-2, 0))[:0]
	dst.deps = deps

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

// sized returns buf resliced to n elements, reallocated when too short.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
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

// AlltoAll builds the pairwise exchange. On topologies where any pair
// shares a network dimension it sends directly; on rail-only fabrics it
// uses PXN: first an NVLink hop to the server-mate on the destination
// rail, then a rail hop (§2 of the NCCL 2.12 PXN description).
func AlltoAll(top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	if col.Kind != collective.KindAlltoAll {
		return nil, fmt.Errorf("nccl.AlltoAll: got %v", col.Kind)
	}
	n := top.NumGPUs()
	sched := &schedule.Schedule{NumGPUs: n}
	for _, ch := range col.Chunks {
		src, dst := ch.Src, ch.Dsts[0]
		p := sched.AddPiece(col.ChunkSize, ch.ID)
		order := ((dst-src)%n + n) % n // rotation order avoids convoying
		relay, d1, d2 := top.PXNRoute(src, dst)
		if relay < 0 {
			sched.AddTransfer(schedule.Transfer{Src: src, Dst: dst, Piece: p, Dim: d1, Order: order})
			continue
		}
		// PXN relay: same-server GPU on the destination rail.
		if d1 < 0 {
			return nil, noDim(src, relay)
		}
		if d2 < 0 {
			return nil, fmt.Errorf("nccl: no PXN path %d→%d: %w", src, dst, noDim(relay, dst))
		}
		first := sched.AddTransfer(schedule.Transfer{Src: src, Dst: relay, Piece: p, Dim: d1, Order: order})
		sched.AddTransfer(schedule.Transfer{Src: relay, Dst: dst, Piece: p, Dim: d2, Order: order, Deps: []int{first}})
	}
	return sched, nil
}

// Schedule returns NCCL's schedule for a collective — its one fixed
// algorithm for the kind — and the schedule's simulated time. A reduction
// is its forward collective's schedule composed by collective.Phases:
// ring ReduceScatter is the ring AllGather's time reverse, Reduce the
// broadcast tree's, and ring AllReduce is ring ReduceScatter then ring
// AllGather.
func Schedule(top *topology.Topology, col *collective.Collective, opts sim.Options) (*schedule.Schedule, float64, error) {
	fwdCol, phases := col.Phases()
	var build func(*topology.Topology, *collective.Collective) (*schedule.Schedule, error)
	switch fwdCol.Kind {
	case collective.KindAllGather:
		build = AllGather
	case collective.KindBroadcast:
		build = Broadcast
	case collective.KindAlltoAll:
		build = AlltoAll
	default:
		return nil, 0, fmt.Errorf("nccl: unsupported collective %v", col.Kind)
	}
	fwd, err := build(top, fwdCol)
	if err != nil {
		return nil, 0, err
	}
	s := schedule.Compose(nil, fwd, fwdCol, phases)
	t, err := sim.Time(top, s, opts)
	if err != nil {
		return nil, 0, err
	}
	return s, t, nil
}
