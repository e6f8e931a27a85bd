package core

import (
	"testing"

	"syccl/internal/collective"
	"syccl/internal/metrics"
	"syccl/internal/sim"
	"syccl/internal/topology"
)

func synth(t *testing.T, top *topology.Topology, col *collective.Collective, opts Options) *Result {
	t.Helper()
	res, err := Synthesize(top, col, opts)
	if err != nil {
		t.Fatalf("Synthesize(%v on %s): %v", col.Kind, top.Name, err)
	}
	if res.Time <= 0 {
		t.Fatalf("non-positive predicted time %g", res.Time)
	}
	return res
}

func TestBroadcastSmall(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.Broadcast(top.NumGPUs(), 0, 1<<20)
	res := synth(t, top, col, Options{})
	if err := res.Schedule.Validate(col); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Sketches == 0 || res.Stats.Candidates == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
}

func TestAllGather16(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.AllGather(16, 1<<20)
	res := synth(t, top, col, Options{})
	if err := res.Schedule.Validate(col); err != nil {
		t.Fatal(err)
	}
	// Cache must fire: 16 isomorphic roots produce isomorphic demands.
	if res.Stats.CacheHits == 0 {
		t.Error("isomorphism cache never hit on AllGather")
	}
}

func TestAllGatherBeatsNaiveRing(t *testing.T) {
	// The synthesized small-size AllGather must beat a 15-hop ring by a
	// wide margin (latency-dominated regime, §7.2).
	top := topology.A100Clos(2)
	size := 16384.0 // 16 KB total
	col := collective.AllGather(16, size/16)
	res := synth(t, top, col, Options{})
	// Naive ring latency: 15 sequential network/NVLink hops ≥ 15·α_min.
	ringLatency := 15 * topology.NVAlpha
	if res.Time > 4*ringLatency {
		t.Errorf("synthesized time %g not clearly better than ring-style latency scaling", res.Time)
	}
}

func TestReduceMirror(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.Reduce(top.NumGPUs(), 0, 1<<20)
	res := synth(t, top, col, Options{})
	if err := res.Schedule.Validate(col); err != nil {
		t.Fatal(err)
	}
}

func TestGatherMirror(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.Gather(top.NumGPUs(), 3, 1<<20)
	res := synth(t, top, col, Options{})
	if err := res.Schedule.Validate(col); err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterMirror(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.ReduceScatter(16, 1<<20)
	res := synth(t, top, col, Options{})
	if err := res.Schedule.Validate(col); err != nil {
		t.Fatal(err)
	}
	// RS and AG must predict identical times (mirror symmetry).
	ag := collective.AllGather(16, 1<<20)
	agRes := synth(t, top, ag, Options{})
	ratio := res.Time / agRes.Time
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("RS time %g vs AG time %g: mirror should preserve cost", res.Time, agRes.Time)
	}
}

func TestAlltoAll(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AlltoAll(top.NumGPUs(), 1<<18)
	res := synth(t, top, col, Options{})
	if err := res.Schedule.Validate(col); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduce(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllReduce(top.NumGPUs(), 1<<22)
	res := synth(t, top, col, Options{})
	// AllReduce = RS;AG: roughly twice the one-phase time.
	ag, err := Synthesize(top, collective.AllGather(top.NumGPUs(), float64(1<<22)/float64(top.NumGPUs())), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time < ag.Time*1.5 {
		t.Errorf("AllReduce time %g implausibly fast vs AG %g", res.Time, ag.Time)
	}
}

func TestSendRecv(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.SendRecv(top.NumGPUs(), 0, 5, 1<<20)
	res := synth(t, top, col, Options{})
	if err := res.Schedule.Validate(col); err != nil {
		t.Fatal(err)
	}
}

func TestScatter(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.Scatter(top.NumGPUs(), 0, 1<<20)
	res := synth(t, top, col, Options{})
	if err := res.Schedule.Validate(col); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSizePrefersBandwidthBalance(t *testing.T) {
	// At 256 MB the winning AllGather combination should spread load
	// over both dimensions: per-dim utilization of the winning schedule
	// must be nonzero for NVLink and rail.
	top := topology.H800Rail(2)
	col := collective.AllGather(16, 256e6/16)
	res := synth(t, top, col, Options{})
	r, err := sim.Simulate(top, res.Schedule, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < top.NumDims(); d++ {
		if r.PortBusy[d] == 0 {
			t.Errorf("dimension %d (%s) unused at large size", d, top.Dim(d).Name)
		}
	}
	// busbw sanity: must exceed a bare ring's NIC-bound estimate and
	// stay below the hardware aggregate.
	bus := metrics.BusBandwidth(col.Kind, 16, metrics.DataBytes(col), res.Time)
	if bus < 20e9 || bus > 230e9*16 {
		t.Errorf("busbw %g implausible", bus)
	}
}

// TestTwoStepNotWorseThanCoarse: the fine pass refines the coarse
// pass's survivors and the winner is picked over both, so the result is
// never slower than any coarse incumbent. h800small:broadcast:64M is the
// case the coarse pass wins outright (2.98 ms, against 4.14 ms for a
// fine-only pass).
func TestTwoStepNotWorseThanCoarse(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.Broadcast(top.NumGPUs(), 0, 64<<20)
	var coarse []Incumbent
	res := synth(t, top, col, Options{OnIncumbent: func(inc Incumbent) {
		if inc.Source == "coarse" {
			coarse = append(coarse, inc)
		}
	}})
	if len(coarse) == 0 {
		t.Fatal("no coarse incumbent published")
	}
	for _, inc := range coarse {
		if res.Time > inc.Time {
			t.Errorf("result %g slower than coarse incumbent #%d (%g)", res.Time, inc.Seq, inc.Time)
		}
	}
	if res.Recipe == nil || res.Recipe.Source != "coarse" {
		t.Errorf("winner source %+v, want the coarse pass", res.Recipe)
	}
}

// TestIsomorphCacheCutsSolverCalls: on AllGather every root's cells are
// isomorphic, so the in-run isomorphism cache (§5.3) maps most cells from
// a few solved representatives instead of solving each — 27 solver calls
// for 292 cells here, where solving every cell made 292.
func TestIsomorphCacheCutsSolverCalls(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	res := synth(t, top, col, Options{})
	cells := res.Stats.CacheHits + res.Stats.CacheMisses
	if res.Stats.SolverCalls*4 > cells {
		t.Errorf("%d solver calls for %d cells realized, want at most a quarter", res.Stats.SolverCalls, cells)
	}
}

func TestPhasesRecorded(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	res := synth(t, top, col, Options{})
	if res.Phases.Total() <= 0 {
		t.Errorf("phases not recorded: %+v", res.Phases)
	}
	if res.Phases.Solve1 <= 0 {
		t.Error("coarse solve phase empty")
	}
}

func TestRejectsMismatchedSizes(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(4, 1024) // 4 GPUs on an 8-GPU topology
	if _, err := Synthesize(top, col, Options{}); err == nil {
		t.Error("accepted mismatched GPU count")
	}
}

func TestWorkersParallelism(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	for _, w := range []int{1, 2, 8} {
		res := synth(t, top, col, Options{Workers: w})
		if err := res.Schedule.Validate(col); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
	}
}
