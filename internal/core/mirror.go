package core

import (
	"context"
	"fmt"

	"syccl/internal/collective"
	"syccl/internal/obs"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/topology"
)

// forwardCollective builds the one-to-all / all-to-all inverse of a
// reduction collective: Reduce ↔ Broadcast, Gather ↔ Scatter,
// ReduceScatter ↔ AllGather (§4.1: "all-to-one collectives are their
// inverses").
func forwardCollective(col *collective.Collective, kind collective.Kind) *collective.Collective {
	switch kind {
	case collective.KindBroadcast:
		return collective.Broadcast(col.NumGPUs, col.Root, col.ChunkSize)
	case collective.KindScatter:
		return collective.Scatter(col.NumGPUs, col.Root, col.ChunkSize)
	case collective.KindAllGather:
		return collective.AllGather(col.NumGPUs, col.ChunkSize)
	default:
		panic(fmt.Sprintf("core: no forward collective for %v", kind))
	}
}

// mirrorSchedule time-reverses a forward schedule into the reduction
// schedule, remapping each piece onto the reduction collective's chunks:
//
//   - Reduce: the broadcast piece of the root's chunk becomes the
//     reduction slice covering every contribution;
//   - Gather: the scatter piece destined to GPU v becomes the gather
//     chunk sourced at v;
//   - ReduceScatter: the AllGather piece of chunk r becomes the reduction
//     slice covering all contributions destined to GPU r.
func mirrorSchedule(fwd *schedule.Schedule, fwdCol, col *collective.Collective) *schedule.Schedule {
	switch col.Kind {
	case collective.KindReduce:
		all := make([]int, len(col.Chunks))
		for i := range all {
			all[i] = i
		}
		return fwd.Mirror(func(p schedule.Piece) schedule.Piece {
			return schedule.Piece{Chunks: all, Bytes: p.Bytes}
		})
	case collective.KindGather:
		bySrc := map[int]int{}
		for _, ch := range col.Chunks {
			bySrc[ch.Src] = ch.ID
		}
		return fwd.Mirror(func(p schedule.Piece) schedule.Piece {
			out := schedule.Piece{Bytes: p.Bytes}
			for _, c := range p.Chunks {
				// Forward scatter chunk c is destined to one GPU; that
				// GPU sources the mirrored gather chunk.
				v := fwdCol.Chunks[c].Dsts[0]
				out.Chunks = append(out.Chunks, bySrc[v])
			}
			return out
		})
	case collective.KindReduceScatter:
		byDst := map[int][]int{}
		for _, ch := range col.Chunks {
			byDst[ch.Dsts[0]] = append(byDst[ch.Dsts[0]], ch.ID)
		}
		return fwd.Mirror(func(p schedule.Piece) schedule.Piece {
			out := schedule.Piece{Bytes: p.Bytes}
			for _, c := range p.Chunks {
				// Forward AllGather chunk c is sourced at GPU c; the
				// mirrored slice aggregates contributions destined
				// there.
				r := fwdCol.Chunks[c].Src
				out.Chunks = append(out.Chunks, byDst[r]...)
			}
			return out
		})
	default:
		panic(fmt.Sprintf("core: cannot mirror into %v", col.Kind))
	}
}

// synthesizeAllReduce implements §4.3: AllReduce = ReduceScatter then
// AllGather over n-th sized slices, concatenated with per-GPU phase
// dependencies. The AllGather pipeline runs once; the ReduceScatter phase
// reuses its mirror.
func synthesizeAllReduce(ctx context.Context, top *topology.Topology, col *collective.Collective, opts Options, parent *obs.Span) (*Result, error) {
	n := col.NumGPUs
	per := col.ChunkSize // collective.AllReduce stores the per-slice size
	agCol := collective.AllGather(n, per)
	rsCol := collective.ReduceScatter(n, per)

	// Each AllGather-phase candidate — incumbents and the final result
	// alike — is finished into a full AllReduce schedule the same way:
	// mirror into the ReduceScatter phase, concatenate, re-simulate. The
	// finished time ranks the pipeline's finalists (it is what the caller
	// sees, and it is not monotone in the AllGather time) and gates the
	// incumbent stream.
	fin := finisher{
		finish: func(fwd *schedule.Schedule, _ float64) (*schedule.Schedule, float64, error) {
			full := schedule.Concat(mirrorSchedule(fwd, agCol, rsCol), fwd)
			r, err := sim.Simulate(top, full, opts.Sim)
			if err != nil {
				return nil, 0, err
			}
			return full, r.Time, nil
		},
		// The ReduceScatter phase is full's prefix: Concat copies it
		// first, and a mirror has the forward schedule's piece and
		// transfer counts. (The AllGather phase is validated as the
		// forward schedule.)
		check: func(fwd, full *schedule.Schedule) error {
			rs := &schedule.Schedule{
				NumGPUs:   full.NumGPUs,
				Pieces:    full.Pieces[:len(fwd.Pieces)],
				Transfers: full.Transfers[:len(fwd.Transfers)],
			}
			if err := rs.Validate(rsCol); err != nil {
				return fmt.Errorf("core: ReduceScatter phase invalid: %w", err)
			}
			return nil
		},
	}
	pub := newPublisher(opts.OnIncumbent, fin)
	return synthesizeForward(ctx, top, agCol, opts, parent, pub, fin)
}
