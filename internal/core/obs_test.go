package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/obs"
	"syccl/internal/topology"
)

// An attached recorder must capture the full pipeline: phase spans,
// per-candidate and per-worker solve spans, and the cache/sketch
// counters, all consistent with the Stats the result reports.
func TestSynthesizeRecordsSpansAndCounters(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	rec := obs.NewRecorder()
	res, err := Synthesize(top, col, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}

	names := map[string]int{}
	for _, s := range rec.Spans() {
		names[s.Name]++
	}
	for _, want := range []string{
		"synthesize", "search", "sketch.search", "combine",
		"solve.coarse", "solve.fine", "candidate", "solve.subdemand", "sim.simulate",
	} {
		if names[want] == 0 {
			t.Errorf("no span named %q recorded (got %v)", want, names)
		}
	}

	// The passes say how much of their work was repetition: cells pooled,
	// distinct demands among them, classes solved; the bound pass, cells,
	// distinct demands (one LP each) and the pivots they spent.
	for _, sp := range rec.Spans() {
		var want []string
		switch sp.Name {
		case "solve.coarse", "solve.fine":
			want = []string{"demands", "distinct", "classes"}
		case "solve.bound":
			want = []string{"cells", "distinct", "pivots"}
		default:
			continue
		}
		attrs := map[string]int64{}
		for _, a := range sp.Attrs {
			if v, ok := a.Value().(int64); ok {
				attrs[a.Key] = v
			}
		}
		for _, k := range want {
			if attrs[k] <= 0 {
				t.Errorf("span %q: attribute %q = %d", sp.Name, k, attrs[k])
			}
		}
		if attrs[want[0]] < attrs["distinct"] || attrs["distinct"] < attrs["classes"] {
			t.Errorf("span %q: %v does not narrow", sp.Name, attrs)
		}
	}

	counters := rec.Counters()
	if counters["core.demands.distinct"] <= 0 {
		t.Error("core.demands.distinct counter never advanced")
	}
	if got, want := counters["cache.hits"], float64(res.Stats.CacheHits); got != want {
		t.Errorf("cache.hits counter %g != Stats.CacheHits %g", got, want)
	}
	if got, want := counters["cache.misses"], float64(res.Stats.CacheMisses); got != want {
		t.Errorf("cache.misses counter %g != Stats.CacheMisses %g", got, want)
	}
	if res.Stats.CacheMisses != res.Stats.SolverCalls {
		t.Errorf("CacheMisses %d != SolverCalls %d (a miss is exactly one real solve)",
			res.Stats.CacheMisses, res.Stats.SolverCalls)
	}
	if res.Stats.CacheMisses == 0 {
		t.Error("expected at least one cache miss on a fresh run")
	}
	// Every counter series is seeded so traces always carry them.
	for _, want := range []string{"lp.pivots", "milp.nodes", "sketch.nodes", "sim.events", "candidates.pruned"} {
		if _, ok := counters[want]; !ok {
			t.Errorf("counter series %q missing", want)
		}
	}
	if counters["sim.events"] <= 0 {
		t.Error("sim.events counter never advanced")
	}

	// The recorder must export as valid JSON end-to-end.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
}

// A second Synthesize call with a nil recorder must behave identically —
// instrumentation must not leak into results.
func TestNilRecorderSameResult(t *testing.T) {
	top := topology.SingleServer(8)
	col := collective.AllGather(8, 1<<20)
	withRec, err := Synthesize(top, col, Options{Obs: obs.NewRecorder()})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Synthesize(top, col, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if withRec.Time != without.Time {
		t.Errorf("recorder changed the result: %g vs %g", withRec.Time, without.Time)
	}
	if withRec.Stats.CacheHits != without.Stats.CacheHits ||
		withRec.Stats.CacheMisses != without.Stats.CacheMisses {
		t.Errorf("recorder changed cache stats: %+v vs %+v", withRec.Stats, without.Stats)
	}
}

// The exact engine says why no MILP ran. On server8:broadcast:1M every
// exact solve ends at one of its bound exits, so the three proof
// counters are pinned together with the zero the bounds buy. The 64 MiB
// case is won by an 8-way split whose fine-pass cell (8 pieces × 56
// arcs) is over the size gate before any bound is computed. On
// dgx4:broadcast:64M the split cell (8 pieces × 12 arcs) passes the
// per-epoch gate, the flow bound raises the floor without proving the
// greedy makespan, and the first horizon's time expansion is over the
// gate: the solve counts as too large and builds no MILP (DESIGN.md,
// "Pipelined pieces"). Over the whole cold-digest matrix the totals pin
// the solver census: the flow bound closes 29 of the 93 exact solves the
// postal bound leaves open, no exact solve builds a MILP, and 122
// sub-demands are over the exact engine's size gate and solved greedily.
func TestExactSolveProofCounters(t *testing.T) {
	for _, tc := range []struct {
		name  string
		specs []string
		want  map[string]float64
	}{
		{"server8:broadcast:64M", []string{"server8:broadcast:64M"}, map[string]float64{
			"solve.exact":                  0,
			"solve.exact.bound_proved":     0,
			"solve.exact.flow_proved":      0,
			"solve.exact.horizons_skipped": 0,
			"milp.nodes":                   0,
			"solve.too_large":              1,
		}},
		{"server8:broadcast:1M", []string{"server8:broadcast:1M"}, map[string]float64{
			"solve.exact":                  5,
			"solve.exact.bound_proved":     5,
			"solve.exact.flow_proved":      0,
			"solve.exact.horizons_skipped": 0,
			"milp.nodes":                   0,
			"solve.too_large":              0,
		}},
		{"dgx4:broadcast:64M", []string{"dgx4:broadcast:64M"}, map[string]float64{
			"solve.exact":                  1,
			"solve.exact.bound_proved":     0,
			"solve.exact.flow_proved":      0,
			"solve.exact.horizons_skipped": 1,
			"milp.nodes":                   0,
			"solve.too_large":              1,
		}},
		{"cold digest matrix", coldDigestSpecs(), map[string]float64{
			"solve.exact":              93,
			"solve.exact.bound_proved": 60,
			"solve.exact.flow_proved":  29,
			"milp.nodes":               0,
			"solve.too_large":          122,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			for _, spec := range tc.specs {
				top, col := digestCase(t, spec)
				if _, err := Synthesize(top, col, Options{Obs: rec}); err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
			}
			counters := rec.Counters()
			for name, want := range tc.want {
				if got := counters[name]; got != want {
					t.Errorf("counter %q = %g, want %g", name, got, want)
				}
			}
			// The span carries the floor the solve ended with: the greedy
			// makespan it proved optimal.
			for _, sp := range rec.Spans() {
				if sp.Name == "milp.horizon" {
					t.Errorf("a horizon MILP ran under a bound-proved solve: %v", sp.Attrs)
				}
				if sp.Name != "solve.exact" {
					continue
				}
				found := false
				for _, a := range sp.Attrs {
					if v, ok := a.Value().(int64); ok && a.Key == "lower-bound" {
						found = v >= 1
					}
				}
				if !found {
					t.Errorf("solve.exact span without a positive lower-bound attribute: %v", sp.Attrs)
				}
			}
		})
	}
}
