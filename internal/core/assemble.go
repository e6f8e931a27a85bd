package core

import (
	"fmt"
	"sort"
	"sync"

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
// and demand pieces are cut from presized backing arrays.
func newAssembly(top *topology.Topology, col *collective.Collective, combo *sketch.Combination) (*assembly, error) {
	if len(combo.Fracs) != len(combo.Sketches) {
		return nil, fmt.Errorf("core: %d fractions for %d sketches", len(combo.Fracs), len(combo.Sketches))
	}
	n, dims := top.NumGPUs(), top.NumDims()
	// Cell slots run over (stage, dim, group) in ascending key order:
	// stage*groups + groupBase[dim] + group.
	groupBase := make([]int, dims+1)
	for d := 0; d < dims; d++ {
		groupBase[d+1] = groupBase[d] + len(top.Dim(d).Groups)
	}
	groups := groupBase[dims]
	stages := 0
	for j, sk := range combo.Sketches {
		if combo.Fracs[j] > 0 {
			stages = max(stages, len(sk.Stages))
		}
	}
	// One int32 scratch array holds:
	//   - pos[d*n+g], GPU g's local index in its group of dimension d;
	//   - chunkBySrc[g], 1 + the chunk sourced at g (0: none);
	//   - holder[v] and pieceOf[v], the GPU holding a scatter sketch's
	//     piece for final destination v so far, and that piece;
	//   - slot[s], 1 + the demand pieces of cell slot s in the first pass
	//     (0: no cell), 1 + the cell's index in the second.
	scratch := make([]int32, dims*n+3*n+stages*groups)
	pos, scratch := scratch[:dims*n], scratch[dims*n:]
	chunkBySrc, scratch := scratch[:n], scratch[n:]
	holder, scratch := scratch[:n], scratch[n:]
	pieceOf, slot := scratch[:n], scratch[n:]
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
		return k*groups + groupBase[sd.Dim] + sd.Group, nil
	}

	// First pass: check every sub-demand and scatter tree, and count the
	// schedule pieces, each cell's demand pieces and their GPU indices.
	var tree sketch.ScatterTree
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
		pieces:  make([]schedule.Piece, 0, numPieces),
		origin:  make([]int, 0, numPieces),
	}
	numCells := 0
	for _, v := range slot {
		if v != 0 {
			numCells++
		}
	}
	cells := make([]cellDemand, numCells)
	demands := make([]solve.Demand, numCells)
	demandPieces := make([]solve.Piece, numDemand)
	a.cells = make([]*cellDemand, numCells)
	ci := 0
	for k := 0; k < stages; k++ {
		for d := 0; d < dims; d++ {
			dim := top.Dim(d)
			for g, gpus := range dim.Groups {
				s := k*groups + groupBase[d] + g
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
	chunkIDs := make([]int, 0, numPieces)
	ints := make([]int, numInts)
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
		return a.cells[slot[k*groups+groupBase[sd.Dim]+sd.Group]-1]
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
			chunkBySrcDst = make([]int32, n*n)
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

// denseDeliverySlots is how many (piece, GPU) slots per transfer the flat
// delivery index may take: 64 int32 slots are 256 B, a few times the
// schedule.Transfer being built, so the index stays O(transfers). AlltoAll
// on n GPUs has n³ slots for ~2n² transfers and crosses it past n = 128
// (at 512 GPUs the flat index would be 536 MB per build).
var denseDeliverySlots = 64

// deliveries remembers the first index recorded per slot: in
// assembly.build, per piece*numGPUs+gpu, the transfer that first
// delivered the piece to the GPU (candidateTimeBound keeps its arrival
// and port tables the same way). Flat while that is small next to the
// deliveries, a map beyond. Flat tables are recycled through
// denseTables: their user forgets every slot it recorded, then releases
// the table, so each build zeroes what it wrote, not the whole table.
type deliveries struct {
	dense  []int32 // 1 + index, 0 while none
	pooled *[]int32
	sparse map[int]int32
}

// denseTables holds released flat tables, all zeros.
var denseTables sync.Pool

func newDeliveries(slots, transfers int) deliveries {
	if slots > denseDeliverySlots*transfers {
		return deliveries{sparse: make(map[int]int32, transfers)}
	}
	p, _ := denseTables.Get().(*[]int32)
	if p == nil || cap(*p) < slots {
		table := make([]int32, slots)
		p = &table
	}
	return deliveries{dense: (*p)[:slots], pooled: p}
}

// first is 1 + the index of the slot's first delivery, 0 while none.
func (d deliveries) first(slot int) int32 {
	if d.sparse != nil {
		return d.sparse[slot]
	}
	return d.dense[slot]
}

// record notes idx as the slot's index unless it has one.
func (d deliveries) record(slot, idx int) {
	if d.sparse != nil {
		if _, ok := d.sparse[slot]; !ok {
			d.sparse[slot] = int32(idx + 1)
		}
	} else if d.dense[slot] == 0 {
		d.dense[slot] = int32(idx + 1)
	}
}

// forget zeroes a recorded slot of a flat table.
func (d deliveries) forget(slot int) {
	if d.dense != nil {
		d.dense[slot] = 0
	}
}

// release hands a flat table, every recorded slot forgotten, back for
// reuse.
func (d deliveries) release() {
	if d.pooled != nil {
		denseTables.Put(d.pooled)
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

// build assembles a schedule from per-cell sub-schedules (subs[i] solves
// a.cells[i]), wiring cross-stage and intra-stage dependencies and
// per-port ordering. The assembly and the sub-schedules are only read, so
// one assembly builds any number of schedules — the coarse and the fine
// one of a candidate, and a replay's from its recipe — and one
// sub-schedule serves every cell with an equal demand. A missing
// sub-schedule, or a transfer that names a GPU or piece outside its
// cell's demand, is an error.
func (a *assembly) build(subs []*solve.SubSchedule) (*schedule.Schedule, error) {
	const stageStride = 1 << 24
	total := 0
	for _, sub := range subs {
		if sub != nil {
			total += len(sub.Transfers)
		}
	}
	n := a.numGPUs
	deliver := newDeliveries(len(a.pieces)*n, total)
	sched := &schedule.Schedule{
		NumGPUs:   n,
		Pieces:    append([]schedule.Piece(nil), a.pieces...),
		Transfers: make([]schedule.Transfer, 0, total),
	}
	// The slots recorded are the added transfers' (piece, destination).
	defer func() {
		for i := range sched.Transfers {
			deliver.forget(sched.Transfers[i].Piece*n + sched.Transfers[i].Dst)
		}
		deliver.release()
	}()
	// Every transfer has at most one dependency; they are cut, each with
	// no spare capacity, from one backing array.
	deps := make([]int, 0, total)
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
