package core

import (
	"context"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/sketch"
	"syccl/internal/topology"
)

// TestDeterministicAcrossRuns: with the same seed, synthesis produces the
// same predicted time and schedule size (the promise DESIGN.md makes for
// reproducible experiments).
func TestDeterministicAcrossRuns(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<22)
	a := synth(t, top, col, Options{Seed: 42})
	b := synth(t, top, col, Options{Seed: 42})
	if a.Time != b.Time {
		t.Errorf("times differ: %g vs %g", a.Time, b.Time)
	}
	if len(a.Schedule.Transfers) != len(b.Schedule.Transfers) {
		t.Errorf("transfer counts differ: %d vs %d", len(a.Schedule.Transfers), len(b.Schedule.Transfers))
	}
}

// TestBuildCombinationsDeterministic: each combination's dominant port
// class used to come out of a map iteration, so on a tie (the 24-GPU
// AllGather has one) the integrated candidate — and with it
// Stats.CacheHits — differed in about one run in eight.
func TestBuildCombinationsDeterministic(t *testing.T) {
	top, col := digestCase(t, "h800small:allgather:1M")
	opts := Options{}.withDefaults()
	ctx := context.Background()
	sketches := searchCached(ctx, top, 0, false, opts)
	describe := func() []string {
		var out []string
		for _, c := range buildCombinations(ctx, top, col, sketches, true, false, opts) {
			out = append(out, c.DescribeCombination(top))
		}
		return out
	}
	want := describe()
	for run := 1; run < 100; run++ {
		got := describe()
		if len(got) != len(want) {
			t.Fatalf("run %d: %d combinations, first run %d", run, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: combination %d is\n%s\nfirst run built\n%s", run, i, got[i], want[i])
			}
		}
	}
}

// TestAllSizesValid: synthesis remains valid from latency-bound to
// bandwidth-bound sizes (the paper sweeps 1KB–4GB).
func TestAllSizesValid(t *testing.T) {
	top := topology.H800Small(2)
	n := top.NumGPUs()
	for _, size := range []float64{1 << 10, 1 << 17, 1 << 24, 1 << 30} {
		col := collective.AllGather(n, size/float64(n))
		res := synth(t, top, col, Options{})
		if err := res.Schedule.Validate(col); err != nil {
			t.Fatalf("size %g: %v", size, err)
		}
	}
}

// TestLargerSizeNeverFaster: predicted completion time is monotone in
// collective size.
func TestLargerSizeNeverFaster(t *testing.T) {
	top := topology.H800Small(2)
	n := top.NumGPUs()
	prev := 0.0
	for _, size := range []float64{1 << 16, 1 << 20, 1 << 24, 1 << 28} {
		col := collective.AllGather(n, size/float64(n))
		res := synth(t, top, col, Options{})
		if res.Time < prev {
			t.Errorf("size %g faster than smaller size: %g < %g", size, res.Time, prev)
		}
		prev = res.Time
	}
}

// TestStageLimitRespected: the search honors Options.Search.MaxStages in
// the realized combination.
func TestStageLimitRespected(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	res := synth(t, top, col, Options{Search: sketch.SearchOptions{MaxStages: 2}})
	for _, sk := range res.Combination.Sketches {
		if len(sk.Stages) > 2 {
			t.Fatalf("sketch has %d stages, limit 2", len(sk.Stages))
		}
	}
}

// TestMultiDimTopologySynthesis exercises the 4-dimension Fig 3 topology
// end to end.
func TestMultiDimTopologySynthesis(t *testing.T) {
	top := topology.Fig3()
	col := collective.AllGather(16, 1<<20)
	res := synth(t, top, col, Options{})
	if err := res.Schedule.Validate(col); err != nil {
		t.Fatal(err)
	}
}

// TestSendRecvDirectPath: one-to-one transfers avoid broadcast waste —
// at most two transfers (direct or one relay).
func TestSendRecvDirectPath(t *testing.T) {
	top := topology.H800Rail(2)
	// Same server: one NVLink hop.
	res := synth(t, top, collective.SendRecv(16, 0, 3, 1<<20), Options{})
	if len(res.Schedule.Transfers) != 1 {
		t.Errorf("same-server SendRecv used %d transfers", len(res.Schedule.Transfers))
	}
	// Same rail: one network hop.
	res = synth(t, top, collective.SendRecv(16, 0, 8, 1<<20), Options{})
	if len(res.Schedule.Transfers) != 1 {
		t.Errorf("same-rail SendRecv used %d transfers", len(res.Schedule.Transfers))
	}
	// Cross-rail cross-server: PXN relay, two hops.
	res = synth(t, top, collective.SendRecv(16, 0, 9, 1<<20), Options{})
	if len(res.Schedule.Transfers) != 2 {
		t.Errorf("cross-rail SendRecv used %d transfers, want 2", len(res.Schedule.Transfers))
	}
}

// TestA100Ratio14to1 asserts §7.2's headline mechanism: on the 16-GPU
// A100 testbed SyCCL's large-size AllGather moves NVLink and network
// bytes at 14:1 (each chunk crosses the network once and fans out twice
// over NVLink), versus the ring's fixed 7:1.
func TestA100Ratio14to1(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.AllGather(16, 64<<20/16)
	res := synth(t, top, col, Options{})
	st := res.Schedule.ComputeStats(top.NumDims())
	ratio := st.PerDimBytes[0] / st.PerDimBytes[1]
	if ratio < 10 || ratio > 15 {
		t.Errorf("NVLink:network byte ratio = %.1f, want ≈14", ratio)
	}
}
