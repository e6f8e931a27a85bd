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
			full := schedule.Concat(schedule.MirrorInto(fwd, agCol, rsCol), fwd)
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
