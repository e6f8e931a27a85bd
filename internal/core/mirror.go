package core

import (
	"fmt"

	"syccl/internal/collective"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/topology"
)

// finisherFor returns the collective the forward pipeline synthesizes for
// col and the finisher that turns its schedules into col's. Every
// candidate — incumbents and the final result alike — is finished the
// same way:
//
//   - a forward collective is its own forward schedule;
//   - all-to-one collectives (Reduce, Gather) and ReduceScatter are the
//     mirror of their one-to-all inverses (§4.1, §4.3), re-simulated and
//     validated as reductions;
//   - AllReduce is ReduceScatter then AllGather over n-th sized slices
//     (§4.3): the AllGather pipeline runs once, its mirror is the
//     ReduceScatter phase, and the two are concatenated with per-GPU
//     phase dependencies and re-simulated. The finished time ranks the
//     pipeline's finalists (it is what the caller sees, and it is not
//     monotone in the AllGather time) and gates the incumbent stream.
func finisherFor(top *topology.Topology, col *collective.Collective, so sim.Options) (*collective.Collective, finisher) {
	if col.Kind == collective.KindAllReduce {
		n := col.NumGPUs
		per := col.ChunkSize // collective.AllReduce stores the per-slice size
		agCol := collective.AllGather(n, per)
		rsCol := collective.ReduceScatter(n, per)
		concat := func(fwd *schedule.Schedule) *schedule.Schedule {
			return schedule.Concat(schedule.MirrorInto(fwd, agCol, rsCol), fwd)
		}
		// The ReduceScatter phase is full's prefix: Concat copies it
		// first, and a mirror has the forward schedule's piece and
		// transfer counts. (The AllGather phase is validated as the
		// forward schedule.)
		check := func(fwd, full *schedule.Schedule) error {
			rs := &schedule.Schedule{
				NumGPUs:   full.NumGPUs,
				Pieces:    full.Pieces[:len(fwd.Pieces)],
				Transfers: full.Transfers[:len(fwd.Transfers)],
			}
			if err := rs.Validate(rsCol); err != nil {
				return fmt.Errorf("core: ReduceScatter phase invalid: %w", err)
			}
			return nil
		}
		return agCol, shapedFinisher(top, so, concat, check, true)
	}
	fwdCol, mirrored := col.Forward()
	if !mirrored {
		return col, forwardFinisher(col)
	}
	mirror := func(fwd *schedule.Schedule) *schedule.Schedule {
		return schedule.MirrorInto(fwd, fwdCol, col)
	}
	check := func(_, m *schedule.Schedule) error {
		if err := m.Validate(col); err != nil {
			return fmt.Errorf("core: mirrored schedule invalid: %w", err)
		}
		return nil
	}
	return fwdCol, shapedFinisher(top, so, mirror, check, false)
}
