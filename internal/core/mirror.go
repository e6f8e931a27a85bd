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
// same way: a forward collective is its own forward schedule, and any
// other is schedule.Compose of its collective.Phases, re-simulated. For
// AllReduce (two phases) the finished time ranks the pipeline's
// finalists (it is what the caller sees, and it is not monotone in the
// AllGather time) and gates the incumbent stream.
func finisherFor(top *topology.Topology, col *collective.Collective, so sim.Options) (*collective.Collective, finisher) {
	fwdCol, phases := col.Phases()
	if phases == nil {
		return col, forwardFinisher(col)
	}
	compose := func(dst *schedule.Buffer, fwd *schedule.Schedule) *schedule.Schedule {
		return schedule.Compose(dst, fwd, fwdCol, phases)
	}
	// The mirrored phase is full's prefix: Compose puts it first, and a
	// mirror has the forward schedule's piece and transfer counts. (A
	// forward phase is validated as the forward schedule.)
	lead := phases[0].Col
	check := func(fwd, full *schedule.Schedule) error {
		m := &schedule.Schedule{
			NumGPUs:   full.NumGPUs,
			Pieces:    full.Pieces[:len(fwd.Pieces)],
			Transfers: full.Transfers[:len(fwd.Transfers)],
		}
		if err := m.Validate(lead); err != nil {
			return fmt.Errorf("core: mirrored %v phase invalid: %w", lead.Kind, err)
		}
		return nil
	}
	return fwdCol, shapedFinisher(top, so, compose, check, len(phases) > 1)
}
