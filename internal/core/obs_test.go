package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"syccl/internal/cli"
	"syccl/internal/collective"
	"syccl/internal/obs"
	"syccl/internal/topology"
	"syccl/internal/verify"
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

// proofCase is one synthesis of a solver-census corpus.
type proofCase struct {
	top *topology.Topology
	col *collective.Collective
}

// specCases returns the synthesis of each topology:collective:size spec.
func specCases(t testing.TB, specs ...string) []proofCase {
	var cases []proofCase
	for _, spec := range specs {
		top, col := digestCase(t, spec)
		cases = append(cases, proofCase{top, col})
	}
	return cases
}

// randomFabricCases is DESIGN.md's random-fabric census corpus: 30
// verify.RandomTopology fabrics drawn from seed 11, each with the nine
// verify.AllKinds at RandomCollective's random size and at 64 MiB in the
// cli's size vocabulary — 540 syntheses.
func randomFabricCases(t testing.TB) []proofCase {
	rng := rand.New(rand.NewSource(11))
	var cases []proofCase
	for f := 0; f < 30; f++ {
		top := verify.RandomTopology(rng)
		n := top.NumGPUs()
		for _, kind := range verify.AllKinds {
			col, err := cli.BuildCollective(strings.ToLower(kind.String()), n, 64<<20)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, proofCase{top, verify.RandomCollective(rng, kind, n)}, proofCase{top, col})
		}
	}
	return cases
}

// spanInt returns the span's integer attribute key, 0 when it has none.
func spanInt(sp obs.SpanRecord, key string) int64 {
	for _, a := range sp.Attrs {
		if v, ok := a.Value().(int64); ok && a.Key == key {
			return v
		}
	}
	return 0
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
// sub-demands are over the exact engine's size gate and solved greedily;
// its 182 pivots are all flow-bound LPs. The random-fabric corpus is
// where branch-and-bound runs: 10 MILPs, 36 nodes, one tree of 27. A
// change that grows the trees, or the pivots their nodes cost, moves
// this row (DESIGN.md, "Solver census").
func TestExactSolveProofCounters(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cases func(testing.TB) []proofCase
		want  map[string]float64
		// milps counts the MILPs built ("milp.horizon" spans), maxTree
		// the nodes of the largest.
		milps, maxTree int64
	}{
		{"server8:broadcast:64M", func(t testing.TB) []proofCase { return specCases(t, "server8:broadcast:64M") }, map[string]float64{
			"solve.exact":                  0,
			"solve.exact.bound_proved":     0,
			"solve.exact.flow_proved":      0,
			"solve.exact.horizons_skipped": 0,
			"milp.nodes":                   0,
			"solve.too_large":              1,
		}, 0, 0},
		{"server8:broadcast:1M", func(t testing.TB) []proofCase { return specCases(t, "server8:broadcast:1M") }, map[string]float64{
			"solve.exact":                  5,
			"solve.exact.bound_proved":     5,
			"solve.exact.flow_proved":      0,
			"solve.exact.horizons_skipped": 0,
			"milp.nodes":                   0,
			"solve.too_large":              0,
		}, 0, 0},
		{"dgx4:broadcast:64M", func(t testing.TB) []proofCase { return specCases(t, "dgx4:broadcast:64M") }, map[string]float64{
			"solve.exact":                  1,
			"solve.exact.bound_proved":     0,
			"solve.exact.flow_proved":      0,
			"solve.exact.horizons_skipped": 1,
			"milp.nodes":                   0,
			"solve.too_large":              1,
		}, 0, 0},
		{"cold digest matrix", func(t testing.TB) []proofCase { return specCases(t, coldDigestSpecs()...) }, map[string]float64{
			"solve.exact":              93,
			"solve.exact.bound_proved": 60,
			"solve.exact.flow_proved":  29,
			"milp.nodes":               0,
			"lp.pivots":                182,
			"solve.too_large":          122,
		}, 0, 0},
		{"random fabrics", randomFabricCases, map[string]float64{
			"milp.nodes": 36,
			"lp.pivots":  6322,
		}, 10, 27},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			for _, c := range tc.cases(t) {
				if _, err := Synthesize(c.top, c.col, Options{Obs: rec}); err != nil {
					t.Fatalf("%s on %s: %v", c.col.Kind, c.top.Name, err)
				}
			}
			counters := rec.Counters()
			for name, want := range tc.want {
				if got := counters[name]; got != want {
					t.Errorf("counter %q = %g, want %g", name, got, want)
				}
			}
			// Every exact solve's span carries the floor the solve
			// started from, at least one epoch.
			var milps, maxTree int64
			for _, sp := range rec.Spans() {
				switch sp.Name {
				case "milp.horizon":
					milps++
					maxTree = max(maxTree, spanInt(sp, "milp.nodes"))
				case "solve.exact":
					if spanInt(sp, "lower-bound") < 1 {
						t.Errorf("solve.exact span without a positive lower-bound attribute: %v", sp.Attrs)
					}
				}
			}
			if milps != tc.milps || maxTree != tc.maxTree {
				t.Errorf("%d MILPs built, largest tree %d nodes; want %d, %d", milps, maxTree, tc.milps, tc.maxTree)
			}
		})
	}
}
