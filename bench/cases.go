package main

import (
	"fmt"
	"math"
	"strings"

	"syccl/internal/cli"
	"syccl/internal/collective"
	"syccl/internal/metrics"
	"syccl/internal/nccl"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// fixture is one parsed case spec "topology:collective:aggregate-size",
// in the vocabulary of cli.ParseTopology / cli.BuildCollective /
// cli.ParseSize, plus its NCCL baseline.
type fixture struct {
	spec             string
	topo, coll, size string
	top              *topology.Topology
	col              *collective.Collective
	// ncclTime is the simulated time of internal/nccl's schedule for the
	// collective, 0 when the package has no baseline for it.
	ncclTime float64
}

func newFixture(spec string) (*fixture, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("case %q: want topology:collective:size", spec)
	}
	f := &fixture{spec: spec, topo: parts[0], coll: parts[1], size: parts[2]}
	var err error
	if f.top, err = cli.ParseTopology(f.topo); err != nil {
		return nil, fmt.Errorf("case %q: %w", spec, err)
	}
	bytes, err := cli.ParseSize(f.size)
	if err != nil {
		return nil, fmt.Errorf("case %q: %w", spec, err)
	}
	if f.col, err = cli.BuildCollective(f.coll, f.top.NumGPUs(), bytes); err != nil {
		return nil, fmt.Errorf("case %q: %w", spec, err)
	}
	return f, nil
}

func newFixtures(specs []string) ([]*fixture, error) {
	out := make([]*fixture, len(specs))
	for i, s := range specs {
		f, err := newFixture(s)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// baseline simulates internal/nccl's schedule for the case under the
// ranking simulator's default options — the reference quality_vs_nccl_min
// is measured against.
func (f *fixture) baseline() error {
	s, t, err := nccl.Schedule(f.top, f.col, sim.DefaultOptions())
	if err != nil {
		return nil // no baseline for this collective; the case is skipped by the ratio
	}
	if err := verify.CheckSchedule(f.col, s); err != nil {
		return fmt.Errorf("case %q: nccl baseline fails the oracle: %w", f.spec, err)
	}
	f.ncclTime = t
	return nil
}

// busbwGBps is the nccl-tests bus bandwidth of the case at a simulated
// completion time.
func (f *fixture) busbwGBps(simTime float64) float64 {
	if simTime <= 0 {
		return 0
	}
	return metrics.GBps(metrics.BusBandwidth(f.col.Kind, f.col.NumGPUs, metrics.DataBytes(f.col), simTime))
}

// metricName is the case spec as it appears inside a metric name: ':' is
// not in the metric-name alphabet, so it is written '_'.
func metricName(spec string) string { return strings.ReplaceAll(spec, ":", "_") }

// digest is an allocation-free FNV-1a accumulator, so digesting inside
// the timed region leaves allocs_per_op to the program.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func (h *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= digest(v & 0xff)
		*h *= fnvPrime
		v >>= 8
	}
}

func (h *digest) int(v int)       { h.u64(uint64(int64(v))) }
func (h *digest) float(v float64) { h.u64(math.Float64bits(v)) }
func (h *digest) bytes(b []byte) {
	for _, c := range b {
		*h ^= digest(c)
		*h *= fnvPrime
	}
}

// scheduleDigest folds (simulated time, transfer count, every schedule
// byte) into one word. Later rounds compare it against the oracle-checked
// first result, which is also the determinism contract: the same request
// must keep producing the same schedule.
func scheduleDigest(simTime float64, s *schedule.Schedule) uint64 {
	h := fnvOffset
	h.float(simTime)
	h.int(s.NumGPUs)
	h.int(len(s.Pieces))
	for i := range s.Pieces {
		p := &s.Pieces[i]
		h.float(p.Bytes)
		h.int(len(p.Chunks))
		for _, c := range p.Chunks {
			h.int(c)
		}
	}
	h.int(len(s.Transfers))
	for i := range s.Transfers {
		t := &s.Transfers[i]
		h.int(t.Src)
		h.int(t.Dst)
		h.int(t.Piece)
		h.int(t.Dim)
		h.int(t.Order)
		h.int(len(t.Deps))
		for _, d := range t.Deps {
			h.int(d)
		}
	}
	return uint64(h)
}
