package engine

import (
	"strconv"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/topology"
)

// PlanKey returns a canonical identity string for a Plan request: two
// requests with equal keys are guaranteed to produce byte-identical
// schedules on a warm engine, so the key is safe to use for request
// coalescing (internal/serve single-flights concurrent duplicates on it),
// for the recipe cache and for addressing stored results.
//
// The key is the topology fingerprint, the demand and opts.Fingerprint()
// — every option that steers synthesis, rendered at its defaulted value,
// so an unset option and its spelled-out default share a key.
// TestPlanKeyCoversEveryOption holds every field of core.Options, and of
// the sketch.SearchOptions and sim.Options nested in it, to the key or to
// a list of fields that cannot change the schedule.
//
// The demand is keyed by kind, GPU count, chunk size, root and, for
// SendRecv, the destination: Synthesize admits only what the kind's
// constructor builds (collective.Validate), and those values determine
// its chunks. A collective Validate refuses may share the key of an
// admitted one, but Synthesize refuses it before it replays a recipe or
// returns a schedule to store under the key.
func PlanKey(top *topology.Topology, col *collective.Collective, opts core.Options) string {
	b := make([]byte, 0, 512)
	b = append(b, top.Fingerprint()...)
	b = append(append(b, '|'), col.Kind.String()...)
	b = strconv.AppendInt(append(b, "|n"...), int64(col.NumGPUs), 10)
	b = strconv.AppendFloat(append(b, "|s"...), col.ChunkSize, 'g', 9, 64)
	b = strconv.AppendInt(append(b, "|root"...), int64(col.Root), 10)
	if col.Kind == collective.KindSendRecv && len(col.Chunks) == 1 && len(col.Chunks[0].Dsts) == 1 {
		b = strconv.AppendInt(append(b, "|dst"...), int64(col.Chunks[0].Dsts[0]), 10)
	}
	b = append(append(b, '|'), opts.Fingerprint()...)
	return string(b)
}
