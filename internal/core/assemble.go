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
	// group), plus bookkeeping to map local GPU indices back to global
	// ones.
	cells []*cellDemand
}

type cellDemand struct {
	key    cellKey
	gpus   []int       // sorted global GPU IDs of the group
	local  map[int]int // global → local index
	demand *solve.Demand
}

// newAssembly decomposes the combination into schedule pieces and merged
// per-cell demands. Broadcast-style sketches contribute one piece per
// sketch (a fraction of the root's chunk); Scatter-style sketches
// contribute one piece per (sketch, final destination), routed along the
// sketch's canonical tree.
func newAssembly(top *topology.Topology, col *collective.Collective, combo *sketch.Combination) (*assembly, error) {
	a := &assembly{numGPUs: top.NumGPUs()}
	byKey := make(map[cellKey]*cellDemand)
	// addPiece registers a schedule piece of one chunk, which starts on
	// that chunk's source.
	addPiece := func(bytes float64, chunkID int) int {
		a.pieces = append(a.pieces, schedule.Piece{Chunks: []int{chunkID}, Bytes: bytes})
		a.origin = append(a.origin, col.Chunks[chunkID].Src)
		return len(a.pieces) - 1
	}

	// chunkBySrc resolves the chunk a broadcast sketch carries; scatter
	// sketches need the (source, destination) index, n² entries that are
	// only built when one shows up.
	chunkBySrc := map[int]int{}
	for _, ch := range col.Chunks {
		chunkBySrc[ch.Src] = ch.ID
	}
	var chunkBySrcDst map[[2]int]int

	cell := func(k cellKey) *cellDemand {
		cd, ok := byKey[k]
		if !ok {
			dim := top.Dim(k.dim)
			gpus := dim.Groups[k.group]
			local := make(map[int]int, len(gpus))
			for i, g := range gpus {
				local[g] = i
			}
			cd = &cellDemand{
				key:   k,
				gpus:  gpus,
				local: local,
				demand: &solve.Demand{
					NumGPUs: len(gpus),
					Alpha:   dim.AlphaOf(k.group),
					Beta:    dim.BetaOf(k.group),
				},
			}
			byKey[k] = cd
			a.cells = append(a.cells, cd)
		}
		return cd
	}

	for j, sk := range combo.Sketches {
		frac := combo.Fracs[j]
		if frac <= 0 {
			continue
		}
		bytes := frac * col.ChunkSize
		if !sk.Scatter {
			// One piece per sketch: the fraction of the root's chunk.
			chunkID, ok := chunkBySrc[sk.Root]
			if !ok {
				return nil, fmt.Errorf("core: no chunk sourced at sketch root %d", sk.Root)
			}
			piece := addPiece(bytes, chunkID)
			for k, st := range sk.Stages {
				for _, sd := range st {
					cd := cell(cellKey{k, sd.Dim, sd.Group})
					dp := solve.Piece{ID: piece, Bytes: bytes}
					for _, s := range sd.Srcs {
						dp.Srcs = append(dp.Srcs, cd.local[s])
					}
					for _, d := range sd.Dsts {
						dp.Dsts = append(dp.Dsts, cd.local[d])
					}
					cd.demand.Pieces = append(cd.demand.Pieces, dp)
				}
			}
			continue
		}

		// Scatter sketch: walk stages tracking each final destination's
		// current holder along the canonical tree.
		if chunkBySrcDst == nil {
			chunkBySrcDst = map[[2]int]int{}
			for _, ch := range col.Chunks {
				for _, d := range ch.Dsts {
					chunkBySrcDst[[2]int{ch.Src, d}] = ch.ID
				}
			}
		}
		subtree := scatterSubtrees(sk)
		holder := map[int]int{} // finalDst → current holder
		pieces := map[int]int{} // finalDst → schedule piece index
		for _, v := range sortedKeys(subtree[sk.Root]) {
			if v == sk.Root {
				continue
			}
			chunkID, ok := chunkBySrcDst[[2]int{sk.Root, v}]
			if !ok {
				return nil, fmt.Errorf("core: no chunk for pair %d→%d", sk.Root, v)
			}
			pieces[v] = addPiece(bytes, chunkID)
			holder[v] = sk.Root
		}
		for k, st := range sk.Stages {
			for _, sd := range st {
				cd := cell(cellKey{k, sd.Dim, sd.Group})
				for _, w := range sd.Dsts {
					for _, v := range sortedKeys(subtree[w]) {
						h := holder[v]
						cd.demand.Pieces = append(cd.demand.Pieces, solve.Piece{
							ID:    pieces[v],
							Bytes: bytes,
							Srcs:  []int{cd.local[h]},
							Dsts:  []int{cd.local[w]},
						})
						holder[v] = w
					}
				}
			}
		}
	}

	sort.Slice(a.cells, func(x, y int) bool {
		kx, ky := a.cells[x].key, a.cells[y].key
		if kx.stage != ky.stage {
			return kx.stage < ky.stage
		}
		if kx.dim != ky.dim {
			return kx.dim < ky.dim
		}
		return kx.group < ky.group
	})
	return a, nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// scatterSubtrees computes, per GPU, the set of final destinations (plus
// itself) routed through it under the sketch's canonical parenting.
func scatterSubtrees(sk *sketch.Sketch) map[int]map[int]bool {
	parent := map[int]int{}
	for _, st := range sk.Stages {
		for _, sd := range st {
			for d, p := range sd.ParentAssignment() {
				parent[d] = p
			}
		}
	}
	out := map[int]map[int]bool{sk.Root: {sk.Root: true}}
	for v := range parent {
		out[v] = map[int]bool{v: true}
	}
	for v := range parent {
		// Walk up the tree marking v in every ancestor's subtree.
		cur := v
		for {
			p, ok := parent[cur]
			if !ok {
				break
			}
			out[p][v] = true
			cur = p
		}
	}
	return out
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
// deliveries, a map beyond.
type deliveries struct {
	dense  []int32 // 1 + index, 0 while none
	sparse map[int]int32
}

func newDeliveries(slots, transfers int) deliveries {
	if slots <= denseDeliverySlots*transfers {
		return deliveries{dense: make([]int32, slots)}
	}
	return deliveries{sparse: make(map[int]int32, transfers)}
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
	deliver := newDeliveries(len(a.pieces)*a.numGPUs, total)
	sched := &schedule.Schedule{
		NumGPUs:   a.numGPUs,
		Pieces:    append([]schedule.Piece(nil), a.pieces...),
		Transfers: make([]schedule.Transfer, 0, total),
	}
	// Every transfer has at most one dependency; they are cut, each with
	// no spare capacity, from one backing array.
	deps := make([]int, 0, total)
	for i, cd := range a.cells {
		sub, k := subs[i], cd.key
		if sub == nil {
			return nil, fmt.Errorf("core: cell %+v not solved", k)
		}
		// Process in (Start, Arrive) order so intra-stage relays see
		// their deliveries first.
		transfers := append([]solve.Transfer(nil), sub.Transfers...)
		sort.SliceStable(transfers, func(x, y int) bool {
			if transfers[x].Start != transfers[y].Start {
				return transfers[x].Start < transfers[y].Start
			}
			return transfers[x].Arrive < transfers[y].Arrive
		})
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
				di := deliver.first(piece*a.numGPUs + src)
				if di == 0 {
					return nil, fmt.Errorf("core: stage %d: GPU %d sends piece %d before receiving it", k.stage, src, piece)
				}
				deps = append(deps, int(di-1))
				nt.Deps = deps[len(deps)-1 : len(deps) : len(deps)]
			}
			deliver.record(piece*a.numGPUs+dst, sched.AddTransfer(nt))
		}
	}
	return sched, nil
}
