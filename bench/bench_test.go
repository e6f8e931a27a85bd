package main

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"syccl/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestBestOfGeomeanMedian(t *testing.T) {
	if got := bestOf(nil); got != 0 {
		t.Errorf("bestOf(nil) = %v, want 0", got)
	}
	if got := bestOf([]time.Duration{5, 3, 9, 3}); got != 3 {
		t.Errorf("bestOf = %v, want 3", got)
	}
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	// A case without the quantity (0) is skipped, not multiplied in.
	if got := geomean([]float64{2, 0, 8}); !near(got, 4) {
		t.Errorf("geomean(2,0,8) = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %v, want 5", got)
	}
	if got := median([]float64{9, 1, 5, 7}); got != 6 {
		t.Errorf("median even = %v, want 6", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		pct   float64
		value float64
	}{
		{5, 100, 5},         // too few for any percentile: the maximum
		{39, 100, 39},       // p75 of 39 leaves 9 beyond
		{40, 75, 30},        // p75 leaves exactly 10 beyond
		{100, 90, 90},       // p95 would leave 5
		{200, 95, 190},      // p99 would leave 2
		{1000, 99, 990},     // p99.9 would leave 1
		{10000, 99.9, 9990}, // p99.99 would leave 1
		{100000, 99.99, 99990},
	} {
		pct, value := tail(seq(tc.n))
		if pct != tc.pct || value != tc.value {
			t.Errorf("tail(1..%d) = p%v %v, want p%v %v", tc.n, pct, value, tc.pct, tc.value)
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4)
// (exclusive method), which is what the driver computes.
func TestQuartileSpread(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 4, 3, 9, 2, 8, 5, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	// quantiles([10, 20, 40], n=4) = [10, 20, 40]
	if got, want := quartileSpread([]float64{40, 10, 20}), 30.0/20; !near(got, want) {
		t.Errorf("spread(10,20,40) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("spread of a constant = %v, want 0", got)
	}
}

// The gated timing is wall time over the box's slowdown around the op:
// the windowed median of the yardstick shrugs off a single slow sample,
// follows a lasting change of state, and a case's best is taken after
// the division, so a fast op on a slow box can win.
func TestSpeedLogNormalizes(t *testing.T) {
	l := &speedLog{}
	for i := 0; i < 10; i++ {
		d := yardNominal
		if i >= 5 {
			d = yardNominal * 3 / 2 // the box turns 1.5x slower at t = 5 s
		}
		if i == 2 {
			d = yardNominal * 5 / 2 // one preempted sample
		}
		l.at, l.dur = append(l.at, time.Duration(i)*time.Second), append(l.dur, d)
	}
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{
		{1 * time.Second, 1},           // window 0..5 s: four nominal, the outlier, one slow
		{2400 * time.Millisecond, 1},   // nearest sample is the outlier itself
		{9 * time.Second, 1.5},         // window 5..9 s: all slow
		{20 * time.Second, 1.5},        // beyond the log: the last sample
		{-time.Second, 1},              // before it: the first
		{8600 * time.Millisecond, 1.5}, // nearest of two
	} {
		if got := l.slowdown(tc.at); !near(got, tc.want) {
			t.Errorf("slowdown(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if got := (&speedLog{}).slowdown(0); got != 1 {
		t.Errorf("slowdown without samples = %v, want 1", got)
	}
	c := &caseAgg{
		walls: []time.Duration{30 * time.Millisecond, 36 * time.Millisecond},
		at:    []time.Duration{1 * time.Second, 9 * time.Second},
	}
	rs := &runStats{cases: []*caseAgg{c}, speed: l}
	if got := rs.normBest(c); !near(got, 24) {
		t.Errorf("normBest = %v, want 24 (36 ms on a box 1.5x slow)", got)
	}
	if got, raw := rs.opMS(), rs.rawOpMS(); !near(got, 24) || !near(raw, 30) {
		t.Errorf("opMS %v rawOpMS %v, want 24 and 30", got, raw)
	}
	// Thousands of samples: the fastest op against the fastest yardstick.
	l.dur[7] = yardNominal * 5 / 4
	rs.manySamples = true
	if got := rs.opMS(); !near(got, 30) {
		t.Errorf("manySamples opMS = %v, want 30 (fastest yardstick sample is nominal)", got)
	}
	l.dur[0], l.dur[1], l.dur[3], l.dur[4] = l.dur[7], l.dur[7], l.dur[7], l.dur[7]
	if got := rs.opMS(); !near(got, 24) {
		t.Errorf("manySamples opMS = %v, want 24 (30 ms, quietest reading 1.25x slow)", got)
	}
}

func span(name, parent string, lane int32, start, end int) obs.SpanRecord {
	return obs.SpanRecord{Name: name, Parent: parent, Lane: lane, Start: time.Duration(start), End: time.Duration(end)}
}

func selfOf(t *testing.T, stats []spanStat, name string) spanStat {
	t.Helper()
	for _, s := range stats {
		if s.name == name {
			return s
		}
	}
	t.Fatalf("no span %q in %+v", name, stats)
	return spanStat{}
}

func TestSelfTimeNested(t *testing.T) {
	stats := selfTimes([]obs.SpanRecord{
		span("leaf", "mid", 0, 20, 40),
		span("mid", "root", 0, 10, 60),
		span("root", "", 0, 0, 100),
	})
	for name, want := range map[string][2]time.Duration{"root": {100, 50}, "mid": {50, 30}, "leaf": {20, 20}} {
		got := selfOf(t, stats, name)
		if got.total != want[0] || got.self != want[1] {
			t.Errorf("%s: total %v self %v, want %v %v", name, got.total, got.self, want[0], want[1])
		}
	}
}

// Children on parallel lanes overlap; the parent's self time subtracts
// their union, not their sum.
func TestSelfTimeOverlappingSiblings(t *testing.T) {
	stats := selfTimes([]obs.SpanRecord{
		span("root", "", 0, 0, 100),
		span("work", "root", 1, 10, 50),
		span("work", "root", 2, 30, 70),
		span("work", "root", 3, 80, 90),
	})
	root := selfOf(t, stats, "root")
	if root.self != 30 { // covered: [10,70] ∪ [80,90] = 70
		t.Errorf("root self = %v, want 30", root.self)
	}
	work := selfOf(t, stats, "work")
	if work.count != 3 || work.total != 90 || work.self != 90 {
		t.Errorf("work = %+v, want count 3 total 90 self 90", work)
	}
}

// A span whose declared parent is nowhere open adopts the innermost span
// enclosing it in time, as a root does — this is how the program's root
// spans land under bench.op. One that nothing encloses stays a root, and
// a child outliving its parent is clipped to it.
func TestSelfTimeOrphansAndRoots(t *testing.T) {
	stats := selfTimes([]obs.SpanRecord{
		span("bench.op", "", 0, 0, 100),
		span("synthesize", "", 0, 5, 95),          // the program's root, inside the op
		span("orphan", "trimmed-away", 0, 10, 30), // parent never recorded
		span("late", "synthesize", 1, 90, 120),    // outlives its parent
		span("stray", "gone", 0, 200, 210),        // encloses nothing, enclosed by nothing
	})
	if got := selfOf(t, stats, "bench.op").self; got != 10 {
		t.Errorf("bench.op self = %v, want 10 (everything but synthesize)", got)
	}
	if got := selfOf(t, stats, "synthesize").self; got != 90-20-5 {
		t.Errorf("synthesize self = %v, want 65 (orphan 20, late clipped to 5)", got)
	}
	if got := selfOf(t, stats, "stray"); got.self != 10 || got.total != 10 {
		t.Errorf("stray = %+v, want self = total = 10", got)
	}
}

func TestWindowKeepsOnlyTheTimedRegion(t *testing.T) {
	in := []obs.SpanRecord{span("setup", "", 0, 0, 10), span("op", "", 0, 20, 30), span("straddle", "", 0, 5, 25)}
	if got := window(in, 15, 40); len(got) != 1 || got[0].Name != "op" {
		t.Errorf("window = %+v, want only op", got)
	}
}

// The same seed must generate the same serve_churn script byte for byte
// (runs are comparable), another seed another script (the seed is used).
func TestChurnScriptSeedDeterminism(t *testing.T) {
	render := func(seed int64) []byte {
		script, restoreAt, err := churnScript(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(script) != 32 || restoreAt != 26 {
			t.Fatalf("script has %d positions, restore at %d; want 32 and 26", len(script), restoreAt)
		}
		var b bytes.Buffer
		for _, c := range script {
			b.WriteString(c.name + " " + c.path + " ")
			b.Write(c.body)
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	a, again, other := render(7), render(7), render(8)
	if !bytes.Equal(a, again) {
		t.Error("seed 7 generated two different scripts")
	}
	if bytes.Equal(a, other) {
		t.Error("seeds 7 and 8 generated the same script")
	}
}

func (o *outcome) get(name string) (float64, bool) {
	for _, m := range o.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json must stay inside the contract (loadSpec validates
// names, counts, units, directions and bounds) and name exactly the
// workloads and end-to-end metrics the program produces.
func TestBenchmarkJSONSchema(t *testing.T) {
	spec := loadRepoSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	var gated []string
	for _, m := range spec.EndToEnd {
		gated = append(gated, m.Name)
	}
	if _, err := named(spec.EndToEnd, endToEnd(0, &runStats{})); err != nil {
		t.Error(err)
	}
	if want := []string{"setup_s", "op_ms", "allocs_per_op", "kb_per_op", "busbw_gbps", "quality_vs_nccl_min"}; !reflect.DeepEqual(gated, want) {
		t.Errorf("end_to_end %v, want %v", gated, want)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	bound := func(x float64) *float64 { return &x }
	good := func() *benchSpec {
		return &benchSpec{
			RunSeconds: 10,
			Workloads:  []workloadSpec{{"a", "why a"}, {"b", "why b"}},
			EndToEnd:   []metricSpec{{"setup_s", "s", "lower", bound(0.25)}},
			PerLayer:   []metricSpec{{"x.count", "count", "higher", nil}},
		}
	}
	if err := good().validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*benchSpec){
		"name alphabet":       func(s *benchSpec) { s.PerLayer[0].Name = "case.a:b.ms" },
		"name reused":         func(s *benchSpec) { s.PerLayer[0].Name = "setup_s" },
		"one workload":        func(s *benchSpec) { s.Workloads = s.Workloads[:1] },
		"bound too wide":      func(s *benchSpec) { s.EndToEnd[0].Bound = bound(0.3) },
		"gated without bound": func(s *benchSpec) { s.EndToEnd[0].Bound = nil },
		"layer with bound":    func(s *benchSpec) { s.PerLayer[0].Bound = bound(0.1) },
		"no direction":        func(s *benchSpec) { s.PerLayer[0].Better = "" },
		"no unit":             func(s *benchSpec) { s.PerLayer[0].Unit = "" },
		"no setup_s":          func(s *benchSpec) { s.EndToEnd[0].Name = "op_ms" },
		"run_seconds":         func(s *benchSpec) { s.RunSeconds = 61 },
	} {
		s := good()
		breakIt(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The smoke run is the whole benchmark in miniature: one round of the
// two smallest cases of every workload, untraced and traced. Every named
// metric must come out, finite, with zero failed ops.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real syntheses")
	}
	spec := loadRepoSpec(t)
	for _, name := range workloadNames {
		for _, traceOn := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, seconds: 1, trace: traceOn, smoke: true, tmp: t.TempDir(), spec: spec}
			if traceOn {
				cfg.traceOut = filepath.Join(cfg.tmp, "trace.json")
			}
			o, err := runWorkload(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traceOn, err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", name, traceOn, o.failed, o.attempted, o.failures)
			}
			want := spec.EndToEnd
			if traceOn {
				want = spec.PerLayer
			}
			if len(o.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traceOn, len(o.metrics), len(want))
			}
			for _, m := range want {
				v, ok := o.get(m.Name)
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: metric %s missing or not finite (%v)", name, traceOn, m.Name, v)
				}
				if !traceOn && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m.Name, v)
				}
			}
		}
	}
}
