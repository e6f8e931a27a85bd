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

// pieceRef ties a schedule piece to the chunk(s) it covers.
type pieceRef struct {
	sketchIdx int
	finalDst  int // -1 for broadcast pieces; the final destination for scatter pieces
}

// assembly is the intermediate state of turning a sketch combination into
// a schedule.
type assembly struct {
	top   *topology.Topology
	col   *collective.Collective
	combo *sketch.Combination

	sched    *schedule.Schedule
	pieceIdx map[pieceRef]int

	// demands holds one merged demand per cell plus bookkeeping to map
	// local GPU indices back to global ones.
	cells map[cellKey]*cellDemand
	keys  []cellKey
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
	a := &assembly{
		top:      top,
		col:      col,
		combo:    combo,
		sched:    &schedule.Schedule{NumGPUs: top.NumGPUs()},
		pieceIdx: make(map[pieceRef]int),
		cells:    make(map[cellKey]*cellDemand),
	}

	// chunkBySrcDst resolves collective chunks.
	chunkBySrc := map[int]int{}
	chunkBySrcDst := map[[2]int]int{}
	for _, ch := range col.Chunks {
		chunkBySrc[ch.Src] = ch.ID
		for _, d := range ch.Dsts {
			chunkBySrcDst[[2]int{ch.Src, d}] = ch.ID
		}
	}

	cell := func(k cellKey) *cellDemand {
		cd, ok := a.cells[k]
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
			a.cells[k] = cd
			a.keys = append(a.keys, k)
		}
		return cd
	}

	for j, sk := range a.combo.Sketches {
		frac := a.combo.Fracs[j]
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
			p := pieceRef{sketchIdx: j, finalDst: -1}
			a.pieceIdx[p] = a.sched.AddPiece(bytes, chunkID)
			for k, st := range sk.Stages {
				for _, sd := range st {
					cd := cell(cellKey{k, sd.Dim, sd.Group})
					dp := solve.Piece{ID: a.pieceIdx[p], Bytes: bytes}
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
			pieces[v] = a.sched.AddPiece(bytes, chunkID)
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

	sort.Slice(a.keys, func(x, y int) bool {
		kx, ky := a.keys[x], a.keys[y]
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

// build assembles the final schedule from per-cell sub-schedules, wiring
// cross-stage and intra-stage dependencies and per-port ordering.
func (a *assembly) build(solved map[cellKey]*solve.SubSchedule) (*schedule.Schedule, error) {
	const stageStride = 1 << 24
	// deliver[(piece, gpu)] = transfer index that delivered the piece.
	deliver := map[[2]int]int{}
	// origins: the GPU a schedule piece starts on.
	origin := make([]int, len(a.sched.Pieces))
	for ref, idx := range a.pieceIdx {
		origin[idx] = a.combo.Sketches[ref.sketchIdx].Root
	}
	// Scatter pieces share the sketch root as origin; broadcast too — but
	// pieces were registered per ref, so fill any gaps from chunk sources.
	for i, p := range a.sched.Pieces {
		if len(p.Chunks) == 1 {
			origin[i] = a.col.Chunks[p.Chunks[0]].Src
		}
	}

	total := 0
	for _, sub := range solved {
		total += len(sub.Transfers)
	}
	a.sched.Transfers = make([]schedule.Transfer, 0, total)
	for _, k := range a.keys {
		cd := a.cells[k]
		sub, ok := solved[k]
		if !ok {
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
			if src != origin[piece] {
				di, ok := deliver[[2]int{piece, src}]
				if !ok {
					return nil, fmt.Errorf("core: stage %d: GPU %d sends piece %d before receiving it", k.stage, src, piece)
				}
				nt.Deps = []int{di}
			}
			idx := a.sched.AddTransfer(nt)
			if _, seen := deliver[[2]int{piece, dst}]; !seen {
				deliver[[2]int{piece, dst}] = idx
			}
		}
	}
	return a.sched, nil
}
