package obs

import (
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestCounterGaugeBasics covers the scalar metric types: labeled
// resolution, atomic accumulation, and the monotone-counter contract.
func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.Counter("syccl_requests_total", "requests served", "outcome")
	reqs.With("ok").Add(3)
	reqs.With("ok").Inc()
	reqs.With("error").Inc()
	reqs.With("ok").Add(-5) // ignored: counters are monotone
	if got := reqs.With("ok").Value(); got != 4 {
		t.Fatalf("counter ok = %g, want 4", got)
	}
	if got := reqs.With("error").Value(); got != 1 {
		t.Fatalf("counter error = %g, want 1", got)
	}

	g := reg.Gauge("syccl_inflight_requests", "in-flight requests")
	g.With().Set(7)
	g.With().Add(-2)
	if got := g.With().Value(); got != 5 {
		t.Fatalf("gauge = %g, want 5", got)
	}

	// Re-registering with the same schema returns the same family.
	again := reg.Counter("syccl_requests_total", "requests served", "outcome")
	if got := again.With("ok").Value(); got != 4 {
		t.Fatalf("re-registered family lost state: %g", got)
	}
	// A different schema is a programming error.
	defer func() {
		if recover() == nil {
			t.Fatal("schema mismatch did not panic")
		}
	}()
	reg.Counter("syccl_requests_total", "requests served", "outcome", "extra")
}

// TestHistogramObserveAndQuantile checks bucketing and the interpolated
// quantile estimate against a uniform distribution.
func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.2, 0.5, 1.0})
	// 100 observations uniform in (0, 1).
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-50.5) > 1e-9 {
		t.Fatalf("sum = %g, want 50.5", h.Sum())
	}
	for _, tc := range []struct{ p, want, tol float64 }{
		{0.50, 0.50, 0.02},
		{0.90, 0.90, 0.02},
		{0.99, 0.99, 0.02},
		{1.00, 1.00, 1e-9},
	} {
		if got := h.Quantile(tc.p); math.Abs(got-tc.want) > tc.tol {
			t.Fatalf("q%g = %g, want ~%g", tc.p, got, tc.want)
		}
	}
	// Values past the last bound land in +Inf and clamp to the last bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(50)
	if got := h2.Quantile(0.5); got != 2 {
		t.Fatalf("+Inf quantile = %g, want clamp to 2", got)
	}
	// Empty histogram.
	if got := NewHistogram(nil).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g", got)
	}
}

// TestNilRegistryIsNoOp: the nil off switch must hold through every layer
// — registry, vectors, children — without allocating or panicking.
func TestNilRegistryIsNoOp(t *testing.T) {
	var reg *Registry
	reg.Counter("syccl_x_total", "").With("a").Inc()
	reg.Gauge("syccl_x", "").With().Set(1)
	reg.Histogram("syccl_x_seconds", "", nil, "l").With("v").Observe(1)
	if err := reg.WriteProm(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteProm: %v", err)
	}
	if reg.Families() != nil {
		t.Fatal("nil registry has families")
	}
	var c *Counter
	c.Inc()
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(1)
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram not zero")
	}
}

// TestConcurrentObserveCollect hammers shared label sets from many
// goroutines while scraping concurrently; run under -race this is the
// registry's thread-safety proof, and the final totals must be exact.
func TestConcurrentObserveCollect(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.Counter("syccl_requests_total", "reqs", "outcome")
	lat := reg.Histogram("syccl_request_duration_seconds", "latency", nil, "cache")
	gauge := reg.Gauge("syccl_inflight_requests", "in flight")

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent scrapers.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var buf bytes.Buffer
					if err := reg.WriteProm(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			outcome := "ok"
			if w%2 == 1 {
				outcome = "error"
			}
			for i := 0; i < perWorker; i++ {
				reqs.With(outcome).Inc()
				lat.With("warm").Observe(0.0004)
				gauge.With().Add(1)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	want := float64(workers / 2 * perWorker)
	if got := reqs.With("ok").Value(); got != want {
		t.Fatalf("ok total = %g, want %g", got, want)
	}
	if got := reqs.With("error").Value(); got != want {
		t.Fatalf("error total = %g, want %g", got, want)
	}
	if got := lat.With("warm").Count(); got != uint64(workers*perWorker) {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := gauge.With().Value(); got != float64(workers*perWorker) {
		t.Fatalf("gauge = %g", got)
	}
}

// TestExpositionGolden pins the exact text exposition bytes for a
// representative registry. Regenerate with -update.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.Counter("syccl_requests_total", "Synthesis requests served.",
		"collective", "topology", "cache", "outcome")
	reqs.With("allgather", "dgx4", "cold", "ok").Add(2)
	reqs.With("allgather", "dgx4", "store", "ok").Add(5)
	reqs.With("alltoall", "server8", "cold", "error").Inc()

	lat := reg.Histogram("syccl_request_duration_seconds", "End-to-end request latency.",
		[]float64{0.001, 0.01, 0.1}, "cache")
	lat.With("cold").Observe(0.0042)
	lat.With("cold").Observe(0.03)
	lat.With("store").Observe(0.0004)

	reg.Gauge("syccl_inflight_requests", "Requests currently being served.").With().Set(3)
	reg.Gauge("syccl_store_entries", `Entries with "quotes" and \slashes`).With().Set(17)

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// Deterministic across scrapes.
	var again bytes.Buffer
	if err := reg.WriteProm(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two scrapes of an idle registry differ")
	}
}

// TestExpositionWellFormed sanity-checks structural properties of the
// text format: TYPE precedes samples, histogram buckets are cumulative
// and end at +Inf, label values are escaped.
func TestExpositionWellFormed(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("syccl_errors_total", "errs", "kind").With("bad\"quote\nline").Inc()
	h := reg.Histogram("syccl_solve_duration_seconds", "solve", []float64{0.5, 1}, "topology")
	h.With("dgx4").Observe(0.7)
	h.With("dgx4").Observe(2.0)

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `kind="bad\"quote\nline"`) {
		t.Fatalf("label escaping broken:\n%s", out)
	}
	if !strings.Contains(out, `syccl_solve_duration_seconds_bucket{topology="dgx4",le="+Inf"} 2`) {
		t.Fatalf("missing +Inf cumulative bucket:\n%s", out)
	}
	if !strings.Contains(out, `syccl_solve_duration_seconds_bucket{topology="dgx4",le="1"} 1`) {
		t.Fatalf("buckets not cumulative:\n%s", out)
	}
	if !strings.Contains(out, "syccl_solve_duration_seconds_count{topology=\"dgx4\"} 2") {
		t.Fatalf("missing _count:\n%s", out)
	}
	for _, fam := range reg.Families() {
		if !strings.Contains(out, "# TYPE "+fam.Name+" ") {
			t.Fatalf("family %s missing TYPE line", fam.Name)
		}
	}
}

// TestContextPlumbing: the request ID round-trips through a context, and
// an empty context yields "".
func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if RequestIDFrom(ctx) != "" {
		t.Fatal("empty context not empty")
	}
	ctx = WithRequestID(ctx, "r-123")
	if RequestIDFrom(ctx) != "r-123" {
		t.Fatal("request id lost in context")
	}
	// Attaching the zero value is a no-op, not a clobber.
	if RequestIDFrom(WithRequestID(ctx, "")) != "r-123" {
		t.Fatal("empty id clobbered context")
	}
}

// TestMerge: spans/samples re-base onto the destination clock, counter
// totals add, and merged flights land on fresh lanes.
func TestMerge(t *testing.T) {
	dst := NewRecorder()
	dst.Count("lp.pivots", 10)
	sp := dst.StartSpan("http.synthesize")
	sp.End()

	src := NewRecorder()
	root := src.StartSpan("synthesize")
	child := root.Child("search")
	child.End()
	root.End()
	src.Count("lp.pivots", 5)

	dst.Merge(src)

	if got := dst.CounterValue("lp.pivots"); got != 15 {
		t.Fatalf("merged counter = %g, want 15", got)
	}
	spans := dst.Spans()
	if len(spans) != 3 {
		t.Fatalf("merged spans = %d, want 3", len(spans))
	}
	var merged *SpanRecord
	for i := range spans {
		if spans[i].Name == "synthesize" {
			merged = &spans[i]
		}
	}
	if merged == nil {
		t.Fatal("merged root span missing")
	}
	if merged.Lane == 0 {
		t.Fatal("merged span kept lane 0: flights must land on fresh lanes")
	}
	// Counter timeline stays monotone: the merged samples are offset by
	// the destination's prior total.
	samples := dst.Samples()
	last := -1.0
	for _, s := range samples {
		if s.Name != "lp.pivots" {
			continue
		}
		if s.Value < last {
			t.Fatalf("counter timeline regressed: %g after %g", s.Value, last)
		}
		last = s.Value
	}
	if last != 15 {
		t.Fatalf("final sample = %g, want 15", last)
	}
	// Nil and self merges are no-ops.
	dst.Merge(nil)
	dst.Merge(dst)
	var nilRec *Recorder
	nilRec.Merge(src)
}
