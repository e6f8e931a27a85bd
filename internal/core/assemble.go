package core

import (
	"fmt"
	"sort"

	"syccl/internal/collective"
	"syccl/internal/schedule"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// cellKey identifies a merged sub-demand: all sketch sub-demands of one
// combination that share a stage, dimension, and group are solved jointly
// because they compete for the same ports (§5.1).
type cellKey struct {
	stage, dim, group int
}

// assembly is the intermediate state of turning a sketch combination into
// a schedule. It is built once per candidate and read-only afterwards:
// every pass that realizes the candidate builds its schedule from it.
type assembly struct {
	numGPUs int
	// pieces are the schedule's pieces and origin the GPU each starts on.
	pieces []schedule.Piece
	origin []int

	// cells holds one merged demand per cell, by ascending (stage, dim,
	// group).
	cells []*cellDemand
}

type cellDemand struct {
	key    cellKey
	gpus   []int // sorted global GPU IDs of the group, by local index
	demand *solve.Demand
}

// newAssembly decomposes the combination into schedule pieces and merged
// per-cell demands. Broadcast-style sketches contribute one piece per
// sketch (a fraction of the root's chunk); Scatter-style sketches
// contribute one piece per (sketch, final destination), routed along the
// sketch's canonical tree (sketch.ScatterTree).
//
// A recipe hands over its combination from outside the pipeline, so
// nothing is trusted: a missing dimension or group, a sub-demand GPU
// outside its group, a scatter tree that does not reach every destination
// from the root, and a relay that does not hold the piece it forwards are
// errors.
//
// Two passes over the combination, one to check and count and one to
// fill, keep everything flat: cells are found by (stage, dim, group) slot,
// local indices by per-dimension position tables, and the pieces, cells
// and demand pieces are cut from sl's slabs (nil: new memory), where they
// live until the slabs are rewound.
func newAssembly(sl *assemblySlab, top *topology.Topology, col *collective.Collective, combo *sketch.Combination) (*assembly, error) {
	if len(combo.Fracs) != len(combo.Sketches) {
		return nil, fmt.Errorf("core: %d fractions for %d sketches", len(combo.Fracs), len(combo.Sketches))
	}
	if sl == nil {
		sl = new(assemblySlab)
	}
	n, dims := top.NumGPUs(), top.NumDims()
	groups := 0
	for d := 0; d < dims; d++ {
		groups += len(top.Dim(d).Groups)
	}
	stages := 0
	for j, sk := range combo.Sketches {
		if combo.Fracs[j] > 0 {
			stages = max(stages, len(sk.Stages))
		}
	}
	// One int32 scratch array holds:
	//   - groupBase[d], the first cell slot of dimension d: cell slots run
	//     over (stage, dim, group) in ascending key order, stage*groups +
	//     groupBase[dim] + group;
	//   - pos[d*n+g], GPU g's local index in its group of dimension d;
	//   - chunkBySrc[g], 1 + the chunk sourced at g (0: none);
	//   - holder[v] and pieceOf[v], the GPU holding a scatter sketch's
	//     piece for final destination v so far, and that piece;
	//   - slot[s], 1 + the demand pieces of cell slot s in the first pass
	//     (0: no cell), 1 + the cell's index in the second.
	scratch := zeroed(&sl.scratch, dims+dims*n+3*n+stages*groups)
	groupBase, scratch := scratch[:dims], scratch[dims:]
	pos, scratch := scratch[:dims*n], scratch[dims*n:]
	chunkBySrc, scratch := scratch[:n], scratch[n:]
	holder, scratch := scratch[:n], scratch[n:]
	pieceOf, slot := scratch[:n], scratch[n:]
	for d := 1; d < dims; d++ {
		groupBase[d] = groupBase[d-1] + int32(len(top.Dim(d-1).Groups))
	}
	for d := 0; d < dims; d++ {
		for _, grp := range top.Dim(d).Groups {
			for i, g := range grp {
				pos[d*n+g] = int32(i)
			}
		}
	}
	for _, ch := range col.Chunks {
		chunkBySrc[ch.Src] = int32(ch.ID + 1)
	}
	// chunkBySrcDst[s*n+d] is 1 + the chunk from s to d, n² entries built
	// when a scatter sketch shows up.
	var chunkBySrcDst []int32

	cellSlot := func(k int, sd *sketch.SubDemand) (int, error) {
		if sd.Dim < 0 || sd.Dim >= dims {
			return 0, fmt.Errorf("core: stage %d: missing dimension %d", k, sd.Dim)
		}
		dim := top.Dim(sd.Dim)
		if sd.Group < 0 || sd.Group >= len(dim.Groups) {
			return 0, fmt.Errorf("core: stage %d: dimension %d has no group %d", k, sd.Dim, sd.Group)
		}
		for _, gpus := range [2][]int{sd.Srcs, sd.Dsts} {
			for _, g := range gpus {
				if dim.GroupOf(g) != sd.Group {
					return 0, fmt.Errorf("core: stage %d: GPU %d not in dim %d group %d", k, g, sd.Dim, sd.Group)
				}
			}
		}
		return k*groups + int(groupBase[sd.Dim]) + sd.Group, nil
	}

	// First pass: check every sub-demand and scatter tree, and count the
	// schedule pieces, each cell's demand pieces and their GPU indices.
	tree := &sl.tree
	numPieces, numDemand, numInts := 0, 0, 0
	for j, sk := range combo.Sketches {
		if combo.Fracs[j] <= 0 {
			continue
		}
		if sk.Scatter {
			if err := tree.Build(sk, n); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			numPieces += tree.Size(sk.Root) - 1
		} else {
			numPieces++
		}
		for k, st := range sk.Stages {
			for i := range st {
				sd := &st[i]
				s, err := cellSlot(k, sd)
				if err != nil {
					return nil, err
				}
				m := 1
				if sk.Scatter {
					m = 0
					for _, w := range sd.Dsts {
						m += tree.Size(w)
					}
					numInts += 2 * m
				} else {
					numInts += len(sd.Srcs) + len(sd.Dsts)
				}
				if slot[s] == 0 {
					slot[s] = 1
				}
				slot[s] += int32(m)
				numDemand += m
			}
		}
	}

	a := &assembly{
		numGPUs: n,
		pieces:  sl.pieces.cut(numPieces)[:0],
		origin:  sl.ints.cut(numPieces)[:0],
	}
	numCells := 0
	for _, v := range slot {
		if v != 0 {
			numCells++
		}
	}
	cells := sl.cells.cut(numCells)
	demands := sl.demands.cut(numCells)
	demandPieces := sl.demandPieces.cut(numDemand)
	a.cells = sl.cellRefs.cut(numCells)
	ci := 0
	for k := 0; k < stages; k++ {
		for d := 0; d < dims; d++ {
			dim := top.Dim(d)
			for g, gpus := range dim.Groups {
				s := k*groups + int(groupBase[d]) + g
				if slot[s] == 0 {
					continue
				}
				demands[ci] = solve.Demand{NumGPUs: len(gpus), Alpha: dim.AlphaOf(g), Beta: dim.BetaOf(g)}
				if m := int(slot[s] - 1); m > 0 {
					demands[ci].Pieces, demandPieces = demandPieces[:0:m], demandPieces[m:]
				}
				cells[ci] = cellDemand{key: cellKey{k, d, g}, gpus: gpus, demand: &demands[ci]}
				a.cells[ci] = &cells[ci]
				slot[s] = int32(ci + 1)
				ci++
			}
		}
	}

	// Second pass: fill. Pieces' chunk lists and demand pieces' GPU lists
	// are cut, without spare capacity, from one array each.
	chunkIDs := sl.ints.cut(numPieces)[:0]
	ints := sl.ints.cut(numInts)
	cut := func(m int) []int {
		if m == 0 {
			return nil
		}
		out := ints[:m:m]
		ints = ints[m:]
		return out
	}
	addPiece := func(bytes float64, chunkID int) int {
		chunkIDs = append(chunkIDs, chunkID)
		c := len(chunkIDs)
		a.pieces = append(a.pieces, schedule.Piece{Chunks: chunkIDs[c-1 : c : c], Bytes: bytes})
		a.origin = append(a.origin, col.Chunks[chunkID].Src)
		return len(a.pieces) - 1
	}
	cellOf := func(k int, sd *sketch.SubDemand) *cellDemand {
		return a.cells[slot[k*groups+int(groupBase[sd.Dim])+sd.Group]-1]
	}
	for j, sk := range combo.Sketches {
		frac := combo.Fracs[j]
		if frac <= 0 {
			continue
		}
		bytes := frac * col.ChunkSize
		if !sk.Scatter {
			// One piece per sketch: the fraction of the root's chunk.
			if sk.Root < 0 || sk.Root >= n || chunkBySrc[sk.Root] == 0 {
				return nil, fmt.Errorf("core: no chunk sourced at sketch root %d", sk.Root)
			}
			piece := addPiece(bytes, int(chunkBySrc[sk.Root]-1))
			for k, st := range sk.Stages {
				for i := range st {
					sd := &st[i]
					cd, local := cellOf(k, sd), pos[sd.Dim*n:]
					dp := solve.Piece{ID: piece, Bytes: bytes, Srcs: cut(len(sd.Srcs)), Dsts: cut(len(sd.Dsts))}
					for x, g := range sd.Srcs {
						dp.Srcs[x] = int(local[g])
					}
					for x, g := range sd.Dsts {
						dp.Dsts[x] = int(local[g])
					}
					cd.demand.Pieces = append(cd.demand.Pieces, dp)
				}
			}
			continue
		}

		// Scatter sketch: walk stages tracking each final destination's
		// current holder along the canonical tree.
		if chunkBySrcDst == nil {
			chunkBySrcDst = zeroed(&sl.chunkPairs, n*n)
			for _, ch := range col.Chunks {
				for _, d := range ch.Dsts {
					chunkBySrcDst[ch.Src*n+d] = int32(ch.ID + 1)
				}
			}
		}
		_ = tree.Build(sk, n) // checked in the first pass
		root := sk.Root
		for _, v := range tree.Subtree(root) {
			if int(v) == root {
				continue
			}
			c := chunkBySrcDst[root*n+int(v)]
			if c == 0 {
				return nil, fmt.Errorf("core: no chunk for pair %d→%d", root, v)
			}
			pieceOf[v] = int32(addPiece(bytes, int(c-1)))
			holder[v] = int32(root)
		}
		for k, st := range sk.Stages {
			for i := range st {
				sd := &st[i]
				cd, local, dim := cellOf(k, sd), pos[sd.Dim*n:], top.Dim(sd.Dim)
				for _, w := range sd.Dsts {
					for _, v := range tree.Subtree(w) {
						h := int(holder[v])
						if dim.GroupOf(h) != sd.Group {
							return nil, fmt.Errorf("core: stage %d: GPU %d would relay %d's piece to %d from outside dim %d group %d",
								k, h, v, w, sd.Dim, sd.Group)
						}
						src, dst := cut(1), cut(1)
						src[0], dst[0] = int(local[h]), int(local[w])
						cd.demand.Pieces = append(cd.demand.Pieces, solve.Piece{ID: int(pieceOf[v]), Bytes: bytes, Srcs: src, Dsts: dst})
						holder[v] = int32(w)
					}
				}
			}
		}
	}
	return a, nil
}

// flatDeliverySlots is how many slots per hashed entry a flat delivery
// index may take: three, the words of an entry, so the flat form is
// chosen exactly when it is no larger than the hashed one.
var flatDeliverySlots = 3

// deliveries remembers the first index recorded per slot: in
// assembly.build, per piece*numGPUs+gpu, the transfer that first
// delivered the piece to the GPU (candidateTimeBound keeps its arrival
// and port tables the same way). It lives in one []int32 table, in the
// smaller of two forms: flat, 1 + the index at each slot; or hashed, open
// addressing over entries of three words — 1 + the slot as two words,
// then 1 + the index — with at least twice as many entries as
// deliveries. AlltoAll on n GPUs has n³ slots for ~2n² transfers and
// hashes (flat, 64 GPUs would take 1 MB per build and 512 GPUs 536 MB);
// the other collectives have about as many slots as transfers and stay
// flat.
//
// Tables are kept in a workspace, all zeros, from one use to the next:
// their user forgets every slot it recorded and then resets the table, so
// a flat table gets back what it wrote, not the whole table, and a hashed
// one, O(deliveries) already, is zeroed whole.
type deliveries struct {
	table []int32
	mask  int // a hashed table's entries - 1; -1 for a flat one
}

// deliveryForm sizes the index of slots slots and at most transfers
// deliveries: the words of its table, and the mask of a hashed one (-1:
// flat).
func deliveryForm(slots, transfers int) (words, mask int) {
	entries := 1
	for entries < 2*transfers {
		entries *= 2
	}
	if slots <= flatDeliverySlots*entries {
		return slots, -1
	}
	return 3 * entries, entries - 1
}

// deliveriesIn is the index of slots slots and at most transfers
// deliveries in *table, all zeros, which it replaces by a new one when it
// is too small.
func deliveriesIn(table *[]int32, slots, transfers int) deliveries {
	words, mask := deliveryForm(slots, transfers)
	if cap(*table) < words {
		*table = make([]int32, words)
	}
	return deliveries{table: (*table)[:words], mask: mask}
}

// entry returns a hashed table's entry of slot — the one holding it, or
// the free one, all zeros, where it goes — and the slot's key words.
func (d deliveries) entry(slot int) (e []int32, lo, hi int32) {
	k := uint64(slot) + 1
	lo, hi = int32(uint32(k)), int32(uint32(k>>32))
	for i := int(k*0x9e3779b97f4a7c15>>32) & d.mask; ; i = (i + 1) & d.mask {
		e = d.table[3*i : 3*i+3 : 3*i+3]
		if e[0] == lo && e[1] == hi || e[0] == 0 && e[1] == 0 {
			return e, lo, hi
		}
	}
}

// first is 1 + the index of the slot's first delivery, 0 while none.
func (d deliveries) first(slot int) int32 {
	if d.mask < 0 {
		return d.table[slot]
	}
	e, _, _ := d.entry(slot)
	return e[2]
}

// record notes idx as the slot's index unless it has one.
func (d deliveries) record(slot, idx int) {
	if d.mask < 0 {
		if d.table[slot] == 0 {
			d.table[slot] = int32(idx + 1)
		}
	} else if e, lo, hi := d.entry(slot); e[2] == 0 {
		e[0], e[1], e[2] = lo, hi, int32(idx+1)
	}
}

// forget zeroes a recorded slot of a flat table.
func (d deliveries) forget(slot int) {
	if d.mask < 0 {
		d.table[slot] = 0
	}
}

// reset zeroes a hashed table whose slots were forgotten.
func (d deliveries) reset() {
	if d.mask >= 0 {
		clear(d.table)
	}
}

// inStartArriveOrder reports whether transfers are sorted by (Start,
// Arrive), the order assembly.build processes them in.
func inStartArriveOrder(transfers []solve.Transfer) bool {
	for i := 1; i < len(transfers); i++ {
		p, t := &transfers[i-1], &transfers[i]
		if t.Start < p.Start || (t.Start == p.Start && t.Arrive < p.Arrive) {
			return false
		}
	}
	return true
}

// buildBuffer is the memory assembly.build writes a schedule into: the
// schedule, whose Pieces and Transfers arrays it reuses, the array the
// pieces' chunk lists and the transfers' dependency lists are cut from,
// and the delivery table, all zeros between builds. A worker that times
// every candidate of a pass builds each one into its workspace buffer and
// allocates again only when a candidate outgrows it; a schedule that
// leaves the pipeline is built into a new buffer (workspace.buildNew).
// What a build returns lives in the buffer until the next build into it.
type buildBuffer struct {
	sched schedule.Schedule
	lists []int
	table []int32
}

// build assembles a schedule into dst from per-cell sub-schedules
// (subs[i] solves a.cells[i]), wiring cross-stage and intra-stage
// dependencies and per-port ordering. The assembly and the sub-schedules
// are only read, so one assembly builds any number of schedules — every
// pass's timing copy of a candidate, the winner, and a replay's from its
// recipe — and one sub-schedule serves every cell with an equal demand.
// A missing sub-schedule, or a transfer that names a GPU or piece outside
// its cell's demand, is an error.
func (a *assembly) build(dst *buildBuffer, subs []*solve.SubSchedule) (*schedule.Schedule, error) {
	const stageStride = 1 << 24
	total := 0
	for _, sub := range subs {
		if sub != nil {
			total += len(sub.Transfers)
		}
	}
	n := a.numGPUs
	deliver := deliveriesIn(&dst.table, len(a.pieces)*n, total)
	// Every chunk list and dependency list (a transfer has at most one
	// dependency) is cut, without spare capacity, from one array: the
	// schedule shares no memory with the assembly.
	chunks := 0
	for _, p := range a.pieces {
		chunks += len(p.Chunks)
	}
	if cap(dst.lists) < chunks+total {
		dst.lists = make([]int, 0, chunks+total)
	}
	lists := dst.lists[:0]
	sched := &dst.sched
	sched.NumGPUs = n
	if cap(sched.Pieces) < len(a.pieces) {
		sched.Pieces = make([]schedule.Piece, 0, len(a.pieces))
	}
	sched.Pieces = sched.Pieces[:0]
	for _, p := range a.pieces {
		var list []int
		if len(p.Chunks) > 0 {
			lists = append(lists, p.Chunks...)
			list = lists[len(lists)-len(p.Chunks) : len(lists) : len(lists)]
		}
		sched.Pieces = append(sched.Pieces, schedule.Piece{Chunks: list, Bytes: p.Bytes})
	}
	if cap(sched.Transfers) < total {
		sched.Transfers = make([]schedule.Transfer, 0, total)
	}
	sched.Transfers = sched.Transfers[:0]
	// The slots recorded are the added transfers' (piece, destination).
	defer func() {
		for i := range sched.Transfers {
			deliver.forget(sched.Transfers[i].Piece*n + sched.Transfers[i].Dst)
		}
		deliver.reset()
	}()
	deps := lists
	for i, cd := range a.cells {
		sub, k := subs[i], cd.key
		if sub == nil {
			return nil, fmt.Errorf("core: cell %+v not solved", k)
		}
		// Process in (Start, Arrive) order so intra-stage relays see
		// their deliveries first. The solvers return that order already;
		// anything else is sorted on a copy.
		transfers := sub.Transfers
		if !inStartArriveOrder(transfers) {
			transfers = append([]solve.Transfer(nil), transfers...)
			sort.SliceStable(transfers, func(x, y int) bool {
				if transfers[x].Start != transfers[y].Start {
					return transfers[x].Start < transfers[y].Start
				}
				return transfers[x].Arrive < transfers[y].Arrive
			})
		}
		for _, t := range transfers {
			// A recipe's sub-schedules come from outside the pass.
			if uint(t.Piece) >= uint(len(cd.demand.Pieces)) || uint(t.Src) >= uint(len(cd.gpus)) || uint(t.Dst) >= uint(len(cd.gpus)) {
				return nil, fmt.Errorf("core: cell %+v: transfer %+v does not fit the demand", k, t)
			}
			piece := cd.demand.Pieces[t.Piece].ID
			src := cd.gpus[t.Src]
			dst := cd.gpus[t.Dst]
			nt := schedule.Transfer{
				Src:   src,
				Dst:   dst,
				Piece: piece,
				Dim:   k.dim,
				Order: k.stage*stageStride + t.Start,
			}
			if src != a.origin[piece] {
				di := deliver.first(piece*n + src)
				if di == 0 {
					return nil, fmt.Errorf("core: stage %d: GPU %d sends piece %d before receiving it", k.stage, src, piece)
				}
				deps = append(deps, int(di-1))
				nt.Deps = deps[len(deps)-1 : len(deps) : len(deps)]
			}
			deliver.record(piece*n+dst, sched.AddTransfer(nt))
		}
	}
	return sched, nil
}
