package nccl

import (
	"math"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/metrics"
	"syccl/internal/sim"
	"syccl/internal/topology"
)

func TestRingsCoverAllGPUs(t *testing.T) {
	for _, top := range []*topology.Topology{
		topology.SingleServer(8), topology.A100Clos(2), topology.A100Clos(4),
		topology.H800Rail(2), topology.H800Rail(8), topology.H800Small(6),
	} {
		for r, ring := range rings(top) {
			if len(ring) != top.NumGPUs() {
				t.Fatalf("%s ring %d has %d entries", top.Name, r, len(ring))
			}
			seen := make([]bool, top.NumGPUs())
			for _, gpu := range ring {
				if seen[gpu] {
					t.Fatalf("%s ring %d revisits GPU %d", top.Name, r, gpu)
				}
				seen[gpu] = true
			}
		}
	}
}

func TestRingsRailAligned(t *testing.T) {
	// On pure rail topologies every cross-server hop must stay within a
	// rail (there is no other network path).
	for _, top := range []*topology.Topology{topology.H800Rail(2), topology.H800Rail(8), topology.H800Small(6)} {
		g := top.Sym.Local.N
		for r, ring := range rings(top) {
			n := len(ring)
			for i := 0; i < n; i++ {
				a, b := ring[i], ring[(i+1)%n]
				if a/g == b/g {
					continue // intra-server
				}
				if a%g != b%g {
					t.Fatalf("%s ring %d: cross-server hop %d→%d not rail aligned", top.Name, r, a, b)
				}
			}
		}
	}
}

func TestAllGatherValidates(t *testing.T) {
	for _, top := range []*topology.Topology{
		topology.SingleServer(8), topology.A100Clos(2), topology.H800Rail(2), topology.H800Small(6),
	} {
		col := collective.AllGather(top.NumGPUs(), 1<<20)
		s, err := AllGather(top, col)
		if err != nil {
			t.Fatalf("%s: %v", top.Name, err)
		}
		if err := s.Validate(col); err != nil {
			t.Fatalf("%s: %v", top.Name, err)
		}
		if _, err := sim.Simulate(top, s, sim.DefaultOptions()); err != nil {
			t.Fatalf("%s: %v", top.Name, err)
		}
	}
}

// TestFig2BandwidthRatio checks §2.1's analysis: the ring AllGather pins
// NVLink:network traffic at 7:1 per server on 8-GPU servers.
func TestFig2BandwidthRatio(t *testing.T) {
	top := topology.H800Rail(2)
	col := collective.AllGather(16, 1<<20)
	s, err := AllGather(top, col)
	if err != nil {
		t.Fatal(err)
	}
	st := s.ComputeStats(top.NumDims())
	ratio := st.PerDimBytes[0] / st.PerDimBytes[1]
	if math.Abs(ratio-7) > 0.01 {
		t.Errorf("NVLink:network byte ratio = %g, want 7 (Fig 2)", ratio)
	}
}

// TestFig2NetworkWaste: on the H800 ratio (3.6:1), NVLink is the ring's
// bottleneck and network utilization suffers — the ring's busbw loses
// to the hardware's aggregate by roughly the 10% the paper reports.
func TestFig2NetworkWaste(t *testing.T) {
	top := topology.H800Rail(2)
	size := 1 << 30
	col := collective.AllGather(16, float64(size)/16)
	s, err := AllGather(top, col)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Simulate(top, s, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nvU := r.Utilization(top, 0)
	netU := r.Utilization(top, 1)
	if nvU < 0.8 {
		t.Errorf("NVLink should be the bottleneck: utilization %g", nvU)
	}
	if netU > 0.75*nvU {
		t.Errorf("network should be underutilized: %g vs NVLink %g", netU, nvU)
	}
}

func TestReduceScatterValidates(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.ReduceScatter(16, 1<<20)
	s, _, err := Schedule(top, col, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(col); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceRing(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.AllReduce(16, 1<<22)
	s, _, err := Schedule(top, col, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Simulate(top, s, sim.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastValidates(t *testing.T) {
	for _, top := range []*topology.Topology{topology.SingleServer(8), topology.H800Rail(2), topology.A100Clos(4)} {
		col := collective.Broadcast(top.NumGPUs(), 0, 1<<20)
		s, err := Broadcast(top, col)
		if err != nil {
			t.Fatalf("%s: %v", top.Name, err)
		}
		if err := s.Validate(col); err != nil {
			t.Fatalf("%s: %v", top.Name, err)
		}
	}
}

func TestReduceMirror(t *testing.T) {
	top := topology.H800Rail(2)
	col := collective.Reduce(16, 0, 1<<20)
	s, _, err := Schedule(top, col, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(col); err != nil {
		t.Fatal(err)
	}
}

func TestAlltoAllDirectOnClos(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.AlltoAll(16, 1<<16)
	s, err := AlltoAll(top, col)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(col); err != nil {
		t.Fatal(err)
	}
	// On Clos, every pair reaches over the network: no PXN relays, so
	// transfers == chunks.
	if len(s.Transfers) != len(col.Chunks) {
		t.Errorf("expected direct sends, got %d transfers for %d chunks", len(s.Transfers), len(col.Chunks))
	}
}

func TestAlltoAllPXNOnRail(t *testing.T) {
	top := topology.H800Rail(2)
	col := collective.AlltoAll(16, 1<<16)
	s, err := AlltoAll(top, col)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(col); err != nil {
		t.Fatal(err)
	}
	// Cross-server, cross-rail chunks need 2 hops.
	if len(s.Transfers) <= len(col.Chunks) {
		t.Errorf("expected PXN relays, got %d transfers for %d chunks", len(s.Transfers), len(col.Chunks))
	}
}

func TestScheduleTuner(t *testing.T) {
	top := topology.A100Clos(2)
	for _, col := range []*collective.Collective{
		collective.AllGather(16, 1<<20),
		collective.ReduceScatter(16, 1<<20),
		collective.AllReduce(16, 1<<20),
		collective.Broadcast(16, 0, 1<<20),
		collective.Reduce(16, 0, 1<<20),
		collective.AlltoAll(16, 1<<16),
	} {
		s, tm, err := Schedule(top, col, sim.DefaultOptions())
		if err != nil {
			t.Fatalf("%v: %v", col.Kind, err)
		}
		if s == nil || tm <= 0 {
			t.Fatalf("%v: empty result", col.Kind)
		}
		// The baselines the benchmark quotes are the full simulation's.
		full, err := sim.Simulate(top, s, sim.DefaultOptions())
		if err != nil {
			t.Fatalf("%v: %v", col.Kind, err)
		}
		if math.Float64bits(full.Time) != math.Float64bits(tm) {
			t.Fatalf("%v: Schedule time %v, Simulate time %v", col.Kind, tm, full.Time)
		}
	}
}

// TestRingLatencyScaling: the ring's small-size latency grows linearly
// with GPU count (the §7.2 "511 hops" pathology).
func TestRingLatencyScaling(t *testing.T) {
	small := 16384.0
	t16 := ringTime(t, topology.H800Rail(2), 16, small)
	t64 := ringTime(t, topology.H800Rail(8), 64, small)
	if t64 < 3*t16 {
		t.Errorf("ring latency did not scale with hops: 16 GPUs %g, 64 GPUs %g", t16, t64)
	}
}

func ringTime(t *testing.T, top *topology.Topology, n int, total float64) float64 {
	t.Helper()
	col := collective.AllGather(n, total/float64(n))
	s, err := AllGather(top, col)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Simulate(top, s, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return r.Time
}

func TestLargeSizeBusbw(t *testing.T) {
	// 16-GPU H800 ring AllGather at 1 GB: NVLink-bound. Expect busbw in
	// a plausible band (the paper's Fig 2 arithmetic puts the loss near
	// 10% of aggregate).
	top := topology.H800Rail(2)
	size := 1 << 30
	tm := ringTime(t, top, 16, float64(size))
	bus := metrics.BusBandwidth(collective.KindAllGather, 16, float64(size), tm)
	if bus < 50e9 || bus > 230e9 {
		t.Errorf("ring busbw %.1f GBps implausible", bus/1e9)
	}
}
