package cli

import (
	"flag"
	"fmt"
	"time"

	"syccl/internal/collective"
	"syccl/internal/sketch"
	"syccl/internal/topology"
)

// SynthFlags holds every syccl-synth option. Registering the flags on an
// injected FlagSet (rather than the process-global one) keeps parsing and
// the error paths unit-testable.
type SynthFlags struct {
	Topo       string
	Collective string
	Size       string
	System     string
	Out        string
	E1, E2     float64
	Workers    int
	Budget     time.Duration
	Timeout    time.Duration
	Seed       int64
	Explain    bool
	TracePath  string
	Summary    bool
	Sketch     string
	Stream     bool
	StopWithin float64
	Delta      string

	// hint is the parsed -sketch value, populated by Resolve.
	hint *sketch.Hint
	// delta is the parsed -delta value; base is the topology before the
	// delta was applied. Both populated by Resolve.
	delta *topology.Delta
	base  *topology.Topology
}

// NewSynthFlags registers syccl-synth's flags (including the -coll alias
// for -collective) on fs and returns the backing struct.
func NewSynthFlags(fs *flag.FlagSet) *SynthFlags {
	f := &SynthFlags{}
	fs.StringVar(&f.Topo, "topo", "a100x16", "topology spec")
	fs.StringVar(&f.Collective, "collective", "allgather", "collective kind")
	fs.StringVar(&f.Collective, "coll", "allgather", "alias for -collective")
	fs.StringVar(&f.Size, "size", "64M", "aggregate data size (e.g. 1K, 64M, 1G)")
	fs.StringVar(&f.System, "system", "syccl", "synthesizer: syccl | teccl | nccl")
	fs.StringVar(&f.Out, "out", "", "write the schedule as MSCCL XML to this file")
	fs.Float64Var(&f.E1, "e1", 3.0, "coarse-pass epoch knob E1")
	fs.Float64Var(&f.E2, "e2", 0.5, "fine-pass epoch knob E2")
	fs.IntVar(&f.Workers, "workers", 0, "parallel solver instances (0 = GOMAXPROCS)")
	fs.DurationVar(&f.Budget, "teccl-budget", 10*time.Second, "TECCL solve budget")
	fs.DurationVar(&f.Timeout, "timeout", 0, "synthesis deadline (e.g. 500ms, 10s); on expiry the best schedule found so far is returned (0 = no limit)")
	fs.Int64Var(&f.Seed, "seed", 0, "random seed")
	fs.BoolVar(&f.Explain, "explain", false, "print the winning sketch combination in the paper's notation (syccl only)")
	fs.StringVar(&f.TracePath, "trace", "", "write a Chrome trace of the synthesis run (open in Perfetto)")
	fs.BoolVar(&f.Summary, "obs-summary", false, "print a span/counter summary of the run")
	fs.StringVar(&f.Sketch, "sketch", "", `sketch hint constraining the search, e.g. "dims=1,0;sizes=4,2;family=tree" (syccl only)`)
	fs.BoolVar(&f.Stream, "stream", false, "print each improving incumbent schedule as it is found (syccl only)")
	fs.Float64Var(&f.StopWithin, "stop-within", 0, "stop once the incumbent is within this percentage of the flow lower bound, e.g. 5 (0 = run to completion; syccl only)")
	fs.StringVar(&f.Delta, "delta", "", `topology delta applied before synthesis, e.g. "kill:3-17,slow:0-8*4" (kill:A-B fails a link, node:N fails a non-GPU node, slow:A-B*F scales link β, lag:A-B*F scales link α)`)
	return f
}

// Hint returns the sketch hint parsed from -sketch by Resolve (nil when
// the flag was empty).
func (f *SynthFlags) Hint() *sketch.Hint { return f.hint }

// ParsedDelta returns the topology delta parsed from -delta by Resolve
// (nil when the flag was empty). When a delta is present, Resolve
// returns the degraded topology.
func (f *SynthFlags) ParsedDelta() *topology.Delta { return f.delta }

// Base returns the un-degraded topology resolved from -topo (equal to
// Resolve's topology when no -delta was given).
func (f *SynthFlags) Base() *topology.Topology { return f.base }

// Resolve turns the parsed flag values into a topology and collective,
// surfacing the unknown-topology / bad-size / unknown-collective errors.
func (f *SynthFlags) Resolve() (*topology.Topology, *collective.Collective, error) {
	top, err := ParseTopology(f.Topo)
	if err != nil {
		return nil, nil, err
	}
	f.base = top
	if f.Delta != "" {
		delta, err := topology.ParseDelta(f.Delta)
		if err != nil {
			return nil, nil, fmt.Errorf("-delta: %v", err)
		}
		top, err = delta.Apply(f.base)
		if err != nil {
			return nil, nil, fmt.Errorf("-delta: %v", err)
		}
		f.delta = delta
	}
	size, err := ParseSize(f.Size)
	if err != nil {
		return nil, nil, err
	}
	col, err := BuildCollective(f.Collective, top.NumGPUs(), size)
	if err != nil {
		return nil, nil, err
	}
	switch f.System {
	case "syccl", "teccl", "nccl":
	default:
		return nil, nil, fmt.Errorf("unknown system %q", f.System)
	}
	if f.StopWithin < 0 || f.StopWithin > 100 {
		return nil, nil, fmt.Errorf("-stop-within %g out of range [0,100]", f.StopWithin)
	}
	hint, err := sketch.ParseHint(f.Sketch)
	if err != nil {
		return nil, nil, err
	}
	if hint != nil {
		if err := hint.Validate(top.NumDims()); err != nil {
			return nil, nil, err
		}
	}
	f.hint = hint
	return top, col, nil
}

// SimFlags holds every syccl-sim option.
type SimFlags struct {
	Topo       string
	XML        string
	Collective string
	Size       string
	Timeline   bool
	Events     int
	TracePath  string
}

// NewSimFlags registers syccl-sim's flags on fs and returns the backing
// struct.
func NewSimFlags(fs *flag.FlagSet) *SimFlags {
	f := &SimFlags{}
	fs.StringVar(&f.Topo, "topo", "a100x16", "topology spec")
	fs.StringVar(&f.XML, "xml", "", "MSCCL XML schedule file")
	fs.StringVar(&f.Collective, "collective", "", "optional: validate against this collective kind")
	fs.StringVar(&f.Collective, "coll", "", "alias for -collective")
	fs.StringVar(&f.Size, "size", "", "aggregate data size for validation/busbw")
	fs.BoolVar(&f.Timeline, "timeline", false, "print a per-GPU activity chart and event log")
	fs.IntVar(&f.Events, "events", 20, "event-log rows with -timeline (0 = all)")
	fs.StringVar(&f.TracePath, "trace", "", "write the simulated timeline as Chrome trace JSON (open in Perfetto)")
	return f
}

// Resolve validates the parsed flag values and builds the topology. The
// optional validation collective is resolved only when both -collective and
// -size are present (matching the tool's contract).
func (f *SimFlags) Resolve() (*topology.Topology, *collective.Collective, error) {
	if f.XML == "" {
		return nil, nil, fmt.Errorf("-xml is required")
	}
	top, err := ParseTopology(f.Topo)
	if err != nil {
		return nil, nil, err
	}
	var col *collective.Collective
	if f.Collective != "" && f.Size != "" {
		size, err := ParseSize(f.Size)
		if err != nil {
			return nil, nil, err
		}
		col, err = BuildCollective(f.Collective, top.NumGPUs(), size)
		if err != nil {
			return nil, nil, err
		}
	}
	return top, col, nil
}
