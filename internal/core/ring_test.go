package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"syccl/internal/collective"
	"syccl/internal/nccl"
	"syccl/internal/obs"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// ringProbe is a sketch and solve cache that steers a synthesis into one
// of its early returns: it answers the searches itself (none: no
// sketches; root 0's only: no combinations, since the other roots'
// copies are refused on a degraded fabric), cancels the context at the
// first search or the first solve lookup, and reads the goroutine count
// there, after the ring would have started.
type ringProbe struct {
	noSketches, rootZeroOnly  bool
	cancelSearch, cancelSolve context.CancelFunc
	goroutines                int // at the first lookup
}

func (p *ringProbe) Lookup(key string) ([]*sketch.Sketch, bool) {
	if p.goroutines == 0 {
		p.goroutines = runtime.NumGoroutine()
	}
	if p.cancelSearch != nil {
		p.cancelSearch()
	}
	switch {
	case p.noSketches:
		return nil, true
	case p.rootZeroOnly && !strings.Contains(key, "|b0|"):
		return nil, true
	}
	return nil, false
}

func (p *ringProbe) Store(string, []*sketch.Sketch) {}

type ringSolveProbe struct{ *ringProbe }

func (p ringSolveProbe) Lookup(*solve.Demand, string) *solve.SubSchedule {
	p.cancelSolve()
	return nil
}

func (p ringSolveProbe) Store(*solve.Demand, string, *solve.SubSchedule) {}

// TestRingJoinedOnEveryReturn: an AllGather started with workers to spare
// builds its ring beside the search, and every early return after that
// point waits for it — no sketches, no combinations, no realizable
// candidate, a context cancelled during the search — so the goroutine
// count is back where it was and the ring's simulation is on record by
// the time Synthesize returns. With one worker the ring is built inline,
// where it joins the candidates: no goroutine is running at the first
// search, and an early return builds no ring.
func TestRingJoinedOnEveryReturn(t *testing.T) {
	degraded := func(base *topology.Topology, spec string) *topology.Topology {
		d, err := topology.ParseDelta(spec)
		if err != nil {
			t.Fatal(err)
		}
		top, err := d.Apply(base)
		if err != nil {
			t.Fatal(err)
		}
		return top
	}
	cases := []struct {
		name string
		top  *topology.Topology
		set  func(p *ringProbe, cancel context.CancelFunc, opts *Options)
		want string // in the error; "" for any outcome
	}{
		{"no sketches", topology.A100Clos(2), func(p *ringProbe, _ context.CancelFunc, _ *Options) {
			p.noSketches = true
		}, "no sketches found"},
		{"no combinations", degraded(topology.A100Clos(2), "kill:0-16"), func(p *ringProbe, _ context.CancelFunc, _ *Options) {
			p.rootZeroOnly = true
		}, "no sketch combinations"},
		// The ring cannot close on this fabric (GPU 0's rail uplink is
		// gone), so with every solve cancelled nothing is left.
		{"no realizable candidate", degraded(topology.H800Small(6), "kill:30-54"), func(p *ringProbe, cancel context.CancelFunc, opts *Options) {
			p.cancelSolve = cancel
			opts.SolveCache = ringSolveProbe{p}
		}, context.Canceled.Error()},
		{"cancelled during the search", topology.A100Clos(2), func(p *ringProbe, cancel context.CancelFunc, _ *Options) {
			p.cancelSearch = cancel
		}, ""},
	}
	for _, c := range cases {
		col := collective.AllGather(c.top.NumGPUs(), 1<<20)
		ringTransfers := -1
		if ring, err := nccl.AllGather(c.top, col); err == nil {
			ringTransfers = len(ring.Transfers)
		}
		for _, workers := range []int{1, 4} {
			rec := obs.NewRecorder()
			probe := &ringProbe{}
			ctx, cancel := context.WithCancel(context.Background())
			opts := Options{Workers: workers, Obs: rec, SketchCache: probe}
			c.set(probe, cancel, &opts)
			before := runtime.NumGoroutine()
			_, err := SynthesizeContext(ctx, c.top, col, opts)
			cancel()
			if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Fatalf("%s, %d workers: err %v, want %q", c.name, workers, err, c.want)
			}
			if c.want == "" && err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, %d workers: %v", c.name, workers, err)
			}
			if workers == 1 && probe.goroutines != before {
				t.Errorf("%s, 1 worker: %d goroutines at the first search, %d before", c.name, probe.goroutines, before)
			}
			// Inline, the ring is built only where it joins the
			// candidates, which these runs never reach.
			if ringTransfers >= 0 && ringSimulated(rec, ringTransfers) != (workers > 1) {
				t.Errorf("%s, %d workers: ring simulated by the return: %t", c.name, workers, !(workers > 1))
			}
			// A joined ring's goroutine has sent its result and only has
			// to exit.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() != before && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("%s, %d workers: %d goroutines before, %d after", c.name, workers, before, after)
			}
		}
	}
}

// ringSimulated reports whether rec holds a finished simulation of a
// schedule with the ring's transfer count.
func ringSimulated(rec *obs.Recorder, transfers int) bool {
	for _, sp := range rec.Spans() {
		if sp.Name != "sim.simulate" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "transfers" && a.Value() == int64(transfers) {
				return true
			}
		}
	}
	return false
}
