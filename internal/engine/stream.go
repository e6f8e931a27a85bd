package engine

import (
	"context"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/topology"
)

// SynthesizeStream is Plan with a live incumbent stream: onIncumbent
// receives every improving, fully validated incumbent the pipeline
// publishes, in strictly decreasing Time order, and the returned Result
// is the final incumbent — byte-identical to what Plan returns for the
// same request, since publication never influences candidate selection.
//
// No final stream event is emitted: the return value IS the final
// incumbent (its Time is ≤ the last streamed one), so callers that relay
// the stream append their own terminal event from the Result. On a warm
// engine the plan is a recipe replay and the stream is exactly one
// event, the winner, with the provenance it had when the full pass
// published it (and Bound 0: a replay computes no bounds); serving
// layers that cache whole results (the schedule store in internal/serve)
// short-circuit even that by emitting one immediate final event.
//
// onIncumbent runs on synthesis worker goroutines with a pipeline lock
// held: it must be fast and non-blocking (hand events to a channel or
// buffer, don't do I/O inline). A nil onIncumbent makes this exactly
// Plan. Anytime semantics carry over: a cancelled stream still returns
// the best validated incumbent with Result.Partial set, and every event
// already streamed remains valid.
func (e *Engine) SynthesizeStream(ctx context.Context, top *topology.Topology, col *collective.Collective, opts core.Options, onIncumbent func(core.Incumbent)) (*core.Result, error) {
	opts.OnIncumbent = onIncumbent
	return e.Plan(ctx, top, col, opts)
}
