// Package syccl is the public API of the SyCCL reproduction: a
// symmetry-aware collective-communication schedule synthesizer
// (Cao & Shi et al., "SyCCL: Exploiting Symmetry for Efficient Collective
// Communication Scheduling", SIGCOMM 2025).
//
// The typical flow mirrors Fig 6 of the paper:
//
//	top := syccl.H800Rail(8)                            // topology (§3.1)
//	col := syccl.AllGather(top.NumGPUs(), 16<<20)       // demand (§2.1)
//	res, err := syccl.Synthesize(top, col, syccl.Options{})
//	busbw := syccl.BusBandwidth(col, res.Time)          // nccl-tests metric
//	xmlBytes, err := syccl.ToXML(res.Schedule, syccl.RuntimeParams{Name: "ag"})
//
// Synthesize explores sketches (symmetry decompositions of the demand),
// solves each sub-demand with an epoch-discretized solver, merges the
// sub-schedules, and ranks candidates with an α-β simulator. Baselines
// (NCCL fixed schedules, TECCL whole-topology synthesis, hand-crafted
// expert schedules) live in their internal packages and are surfaced
// through the experiment harness and the cmd/ tools.
package syccl

import (
	"context"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/engine"
	"syccl/internal/metrics"
	"syccl/internal/mxml"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/sketch"
	"syccl/internal/topology"
)

// Re-exported core types. The public surface is intentionally thin:
// construct a Topology, a Collective, call Synthesize, then simulate,
// score, or export the schedule.
type (
	// Topology is a GPU cluster with extracted symmetry dimensions.
	Topology = topology.Topology
	// Collective is a communication demand (Table 1 of the paper).
	Collective = collective.Collective
	// Schedule is a concrete set of inter-GPU transfers.
	Schedule = schedule.Schedule
	// Options configures the synthesizer (E1/E2, pruning…); the §5.3
	// filter R1/R2 is fixed at the paper's 20 % and 8.
	Options = core.Options
	// Result is a synthesized schedule plus predicted time and stats.
	Result = core.Result
	// SearchOptions controls sketch exploration (§4.1 prunings).
	SearchOptions = sketch.SearchOptions
	// SimOptions controls the α-β simulator.
	SimOptions = sim.Options
	// SimResult reports simulated completion time and utilization.
	SimResult = sim.Result
	// RuntimeParams are the MSCCL-executor XML knobs (§6).
	RuntimeParams = mxml.Params
	// TopologyConfig parameterizes custom cluster construction.
	TopologyConfig = topology.Config
	// Engine is a long-lived planner with persistent cross-request caches
	// (enumerated sketches per topology fingerprint, solved sub-schedules
	// per canonical sub-demand signature). Serve repeated or concurrent
	// synthesis requests through one Engine to reuse work across them.
	Engine = engine.Engine
	// EngineOptions configures an Engine (the sub-schedule cache bound,
	// the disk tier, observability).
	EngineOptions = engine.Options
	// EngineStats is a snapshot of an Engine's lifetime cache and
	// cancellation counters.
	EngineStats = engine.Stats
)

// Topology constructors (§7.1 and Appendix B).
var (
	// SingleServer returns an n-GPU NVSwitch-only server.
	SingleServer = topology.SingleServer
	// A100Clos returns the paper's A100 testbed (Fig 13a): servers×8
	// GPUs, two servers per ToR, spine above. A100Clos(2) is the 16-GPU
	// testbed, A100Clos(4) the 32-GPU one.
	A100Clos = topology.A100Clos
	// H800Rail returns the rail-optimized H800 cluster (Fig 13b):
	// servers×8 GPUs. H800Rail(8) is the 64-GPU configuration,
	// H800Rail(64) the 512-GPU one.
	H800Rail = topology.H800Rail
	// H800Small returns the §7.4 scaled-down microbenchmark cluster.
	H800Small = topology.H800Small
	// BuildTopology constructs a custom cluster from a TopologyConfig.
	BuildTopology = topology.Build
)

// Collective constructors (Table 1).
var (
	SendRecv      = collective.SendRecv
	Broadcast     = collective.Broadcast
	Scatter       = collective.Scatter
	Gather        = collective.Gather
	Reduce        = collective.Reduce
	AllGather     = collective.AllGather
	AlltoAll      = collective.AlltoAll
	ReduceScatter = collective.ReduceScatter
	AllReduce     = collective.AllReduce
)

// Synthesize runs the SyCCL pipeline and returns the best schedule found
// together with its simulator-predicted completion time. It is the
// one-shot form: nothing is cached across calls. Long-lived callers
// should construct an Engine with NewEngine and use Plan instead.
func Synthesize(top *Topology, col *Collective, opts Options) (*Result, error) {
	return core.Synthesize(top, col, opts)
}

// SynthesizeContext is Synthesize under a context with cooperative
// cancellation and anytime semantics: when ctx is cancelled or its
// deadline expires mid-run, the best fully-validated schedule found so
// far is returned with Result.Partial set, or ctx.Err() when nothing
// completed the coarse pass yet.
func SynthesizeContext(ctx context.Context, top *Topology, col *Collective, opts Options) (*Result, error) {
	return core.SynthesizeContext(ctx, top, col, opts)
}

// NewEngine builds a long-lived planner. Plan(ctx, top, col, opts) on the
// returned Engine behaves like SynthesizeContext but persists sketch and
// sub-schedule caches across requests, so warm plans on the same (or an
// isomorphic) topology skip most of the search and solver work.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// Simulate predicts a schedule's completion time on a topology.
func Simulate(top *Topology, s *Schedule, opts SimOptions) (*SimResult, error) {
	return sim.Simulate(top, s, opts)
}

// DefaultSimOptions mirrors a typical CCL transport (pipelined 512 KiB
// blocks).
func DefaultSimOptions() SimOptions { return sim.DefaultOptions() }

// BusBandwidth converts a completion time into the nccl-tests bus
// bandwidth metric the paper reports (bytes/second).
func BusBandwidth(col *Collective, seconds float64) float64 {
	return metrics.BusBandwidth(col.Kind, col.NumGPUs, metrics.DataBytes(col), seconds)
}

// ToXML serializes a schedule into the MSCCL-executor XML format (§6).
func ToXML(s *Schedule, p RuntimeParams) ([]byte, error) { return mxml.Marshal(s, p) }

// FromXML parses an MSCCL-executor XML back into a schedule and its
// runtime parameters.
func FromXML(data []byte) (*Schedule, RuntimeParams, error) { return mxml.Parse(data) }
