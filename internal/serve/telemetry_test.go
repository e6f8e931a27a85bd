package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func postSynthesize(t *testing.T, base, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drainBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Every response must carry X-Syccl-Request, and for API requests the
// id must resolve to a flight record whose span tree covers the solve.
func TestRequestIDHeaderAndFlightRecord(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postSynthesize(t, ts.URL, `{"topology":"dgx4","collective":"allgather","size":"1M"}`)
	id := resp.Header.Get(RequestIDHeader)
	drainBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: status %d", resp.StatusCode)
	}
	if id == "" {
		t.Fatal("no X-Syccl-Request header on synthesize response")
	}

	// Non-API routes get the header too.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	drainBody(t, hresp)
	if hresp.Header.Get(RequestIDHeader) == "" {
		t.Fatal("no X-Syccl-Request header on /healthz")
	}

	// The id resolves to a full flight record with the solve's span tree.
	rresp, err := http.Get(ts.URL + "/debug/requests/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body := drainBody(t, rresp)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests/%s: status %d: %s", id, rresp.StatusCode, body)
	}
	var rec RequestRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != id {
		t.Fatalf("record id %q, want %q", rec.ID, id)
	}
	if !rec.Leader || rec.Cache != cacheTierCold {
		t.Fatalf("fresh solve should be leader+cold, got leader=%t cache=%q", rec.Leader, rec.Cache)
	}
	if rec.SolveUS <= 0 || rec.DurationUS < rec.SolveUS {
		t.Fatalf("implausible latency breakdown: duration %.0fus solve %.0fus", rec.DurationUS, rec.SolveUS)
	}
	names := map[string]bool{}
	for _, sp := range rec.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"serve.plan", "synthesize", "search"} {
		if !names[want] {
			t.Errorf("flight record span tree missing %q (got %d spans)", want, len(rec.Spans))
		}
	}

	// The listing shows it (span-free) in both windows.
	lresp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var listing DebugRequests
	if err := json.Unmarshal(drainBody(t, lresp), &listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range listing.Recent {
		if r.ID == id {
			found = true
			if len(r.Spans) != 0 {
				t.Error("listing must be span-free summaries")
			}
		}
	}
	if !found {
		t.Fatalf("request %s not in recent window (%d entries)", id, len(listing.Recent))
	}
	if len(listing.Slowest) == 0 {
		t.Fatal("slowest window empty after a solve")
	}
}

// Cache-tier labels: a fresh demand is cold, its duplicate is a store
// hit, and a duplicate whose store entry was evicted, answered by the
// engine entirely from its caches, is warm.
func TestCacheTierProgression(t *testing.T) {
	s := New(Options{StoreEntries: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := `{"topology":"dgx4","collective":"allgather","size":"1M"}`
	tierOf := func(resp *http.Response) string {
		t.Helper()
		id := resp.Header.Get(RequestIDHeader)
		drainBody(t, resp)
		rresp, err := http.Get(ts.URL + "/debug/requests/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var rec RequestRecord
		if err := json.Unmarshal(drainBody(t, rresp), &rec); err != nil {
			t.Fatal(err)
		}
		return rec.Cache
	}

	if tier := tierOf(postSynthesize(t, ts.URL, body)); tier != cacheTierCold {
		t.Fatalf("fresh demand: cache %q, want cold", tier)
	}
	if tier := tierOf(postSynthesize(t, ts.URL, body)); tier != cacheTierStore {
		t.Fatalf("duplicate demand: cache %q, want store", tier)
	}
	if tier := tierOf(postSynthesize(t, ts.URL, `{"topology":"dgx4","collective":"alltoall","size":"1M"}`)); tier != cacheTierCold {
		t.Fatalf("evicting demand: cache %q, want cold", tier)
	}
	if tier := tierOf(postSynthesize(t, ts.URL, body)); tier != cacheTierWarm {
		t.Fatalf("evicted duplicate: cache %q, want warm (engine caches)", tier)
	}
}

var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? ([0-9.eE+-]+|\+Inf|NaN)$`)

// GET /metrics must expose the serve and engine families in well-formed
// Prometheus text exposition, with request counters labeled by
// workload, cache tier, and outcome.
func TestMetricsExposition(t *testing.T) {
	s := New(Options{Persist: openStore(t, t.TempDir())})
	ts := httptest.NewServer(s)
	defer ts.Close()

	drainBody(t, postSynthesize(t, ts.URL, `{"topology":"dgx4","collective":"allgather","size":"1M"}`))
	drainBody(t, postSynthesize(t, ts.URL, `{"topology":"dgx4","collective":"allgather","size":"1M"}`))
	drainBody(t, postSynthesize(t, ts.URL, `{"topology":"nope","collective":"allgather","size":"1M"}`))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	text := string(drainBody(t, resp))

	for _, want := range []string{
		`syccl_requests_total{collective="allgather",topology="dgx4",cache="cold",outcome="ok"} 1`,
		`syccl_requests_total{collective="allgather",topology="dgx4",cache="store",outcome="ok"} 1`,
		`syccl_requests_total{collective="unknown",topology="unknown",cache="none",outcome="error"} 1`,
		`syccl_request_duration_seconds_bucket{collective="allgather",topology="dgx4",cache="store",le="+Inf"} 1`,
		`syccl_solve_duration_seconds_count{collective="allgather",topology="dgx4"} 1`,
		"# TYPE syccl_requests_total counter",
		"# TYPE syccl_request_duration_seconds histogram",
		"# TYPE syccl_inflight_requests gauge",
		"# TYPE syccl_go_goroutines gauge",
		"# TYPE syccl_go_gc_cycles_total counter",
		"# TYPE syccl_engine_plans_total counter",
		"# TYPE syccl_engine_cache_lookups_total counter",
		// Persist tier: the cold solve misses the disk tier, then writes
		// every solved sub-demand through to it.
		"# TYPE syccl_persist_loads_total counter",
		"# TYPE syccl_persist_stores_total counter",
		"# TYPE syccl_persist_corrupt_total counter",
		"# TYPE syccl_persist_snapshots_total counter",
		"# TYPE syccl_persist_entries gauge",
		"# TYPE syccl_persist_bytes gauge",
		"# TYPE syccl_prewarm_total counter",
		`syccl_persist_loads_total{result="miss"}`,
		`syccl_persist_stores_total{result="written"}`,
		`syccl_engine_cache_lookups_total{cache="persist",result="miss"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Every non-comment line is a well-formed sample.
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

// Metric-name lint: everything registered anywhere in the process obeys
// the naming contract — syccl_ prefix, lowercase, counters end _total,
// histograms end in a unit suffix, and labels come from the known set.
func TestMetricNameLint(t *testing.T) {
	// Persist enabled so the syccl_persist_* families are linted too.
	s := New(Options{Persist: openStore(t, t.TempDir())})
	ts := httptest.NewServer(s)
	defer ts.Close()
	drainBody(t, postSynthesize(t, ts.URL, `{"topology":"dgx4","collective":"allgather","size":"1M"}`))

	nameRE := regexp.MustCompile(`^syccl_[a-z0-9_]+$`)
	knownLabels := map[string]bool{
		"collective": true, "topology": true, "cache": true,
		"outcome": true, "result": true, "kind": true, "source": true,
	}
	fams := s.Metrics().Families()
	if len(fams) < 10 {
		t.Fatalf("only %d families registered; serve+engine should be well past 10", len(fams))
	}
	for _, f := range fams {
		if !nameRE.MatchString(f.Name) {
			t.Errorf("metric %q violates naming (want syccl_[a-z0-9_]+)", f.Name)
		}
		switch f.Kind.String() {
		case "counter":
			if !strings.HasSuffix(f.Name, "_total") {
				t.Errorf("counter %q must end in _total", f.Name)
			}
		case "histogram":
			// _ratio is the conventional suffix for dimensionless values.
			if !strings.HasSuffix(f.Name, "_seconds") && !strings.HasSuffix(f.Name, "_bytes") &&
				!strings.HasSuffix(f.Name, "_ratio") {
				t.Errorf("histogram %q must carry a unit suffix (_seconds/_bytes/_ratio)", f.Name)
			}
		}
		for _, l := range f.Labels {
			if !knownLabels[l] {
				t.Errorf("metric %q uses unknown label %q", f.Name, l)
			}
		}
	}
}

// The access log emits exactly one JSON line per API request, with the
// request id and latency breakdown; scrapes are not logged.
func TestAccessLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	lockedWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	s := New(Options{AccessLog: lockedWriter})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postSynthesize(t, ts.URL, `{"topology":"dgx4","collective":"allgather","size":"1M"}`)
	id := resp.Header.Get(RequestIDHeader)
	drainBody(t, resp)
	// Scrapes and health checks must not appear in the access log.
	for _, p := range []string{"/healthz", "/metrics", "/statsz"} {
		r, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		drainBody(t, r)
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("access log has %d lines, want exactly 1: %q", len(lines), lines)
	}
	var line map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
		t.Fatalf("access log line is not JSON: %v", err)
	}
	if line["id"] != id {
		t.Errorf("access log id %v, want %s", line["id"], id)
	}
	for _, k := range []string{"time", "method", "path", "status", "outcome", "cache", "duration_us", "plan_key"} {
		if _, ok := line[k]; !ok {
			t.Errorf("access log line missing %q: %s", k, lines[0])
		}
	}
	if line["outcome"] != "ok" || line["cache"] != "cold" {
		t.Errorf("access log outcome/cache = %v/%v, want ok/cold", line["outcome"], line["cache"])
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// The admin handler serves pprof and mirrors the scrape endpoints; the
// public handler must NOT serve pprof.
func TestAdminHandlerPprof(t *testing.T) {
	s := New(Options{})
	admin := httptest.NewServer(s.AdminHandler())
	defer admin.Close()
	pub := httptest.NewServer(s)
	defer pub.Close()

	for _, p := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/metrics", "/healthz", "/debug/requests"} {
		resp, err := http.Get(admin.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		drainBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("admin %s: status %d", p, resp.StatusCode)
		}
	}
	resp, err := http.Get(pub.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	drainBody(t, resp)
	if resp.StatusCode == http.StatusOK {
		t.Error("public handler must not expose pprof")
	}
}

// flightRecorder window mechanics: the ring keeps the newest N, the
// slow list keeps the K slowest, and byID serves exactly the union.
func TestFlightRecorderWindows(t *testing.T) {
	fr := newFlightRecorder(4, 2)
	mk := func(i int, dur float64) *RequestRecord {
		return &RequestRecord{ID: fmt.Sprintf("r%02d", i), DurationUS: dur}
	}
	// r00 is slow (kept in slow window long after the ring moves on);
	// the rest are fast and churn through the ring.
	fr.add(mk(0, 1000))
	for i := 1; i <= 8; i++ {
		fr.add(mk(i, float64(i)))
	}

	snap := fr.snapshot()
	if len(snap.Recent) != 4 {
		t.Fatalf("recent window has %d entries, want 4", len(snap.Recent))
	}
	for i, want := range []string{"r08", "r07", "r06", "r05"} {
		if snap.Recent[i].ID != want {
			t.Errorf("recent[%d] = %s, want %s (newest first)", i, snap.Recent[i].ID, want)
		}
	}
	if len(snap.Slowest) != 2 || snap.Slowest[0].ID != "r00" {
		t.Fatalf("slowest = %+v, want r00 first", snap.Slowest)
	}

	// r00 left the ring long ago but is still fetchable via the slow
	// window; a record in neither window is gone from byID.
	if _, ok := fr.get("r00"); !ok {
		t.Error("slowest-window record evicted from byID")
	}
	if _, ok := fr.get("r03"); ok {
		t.Error("record absent from both windows still in byID")
	}
	if _, ok := fr.get("r08"); !ok {
		t.Error("recent record missing from byID")
	}
}

// Coalesced followers share the leader's span tree and carry their own
// request ids. The test holds the one solve slot until every request has
// joined the flight, so none of them can be answered from the store.
func TestCoalescedFollowerRecord(t *testing.T) {
	s := New(Options{Concurrency: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(s.adm.release)
	defer release()

	const n = 6
	body := `{"topology":"dgx4","collective":"allgather","size":"1M","seed":77}`
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = resp.Header.Get(RequestIDHeader)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(i)
	}
	waitFor(t, 10*time.Second, "every request to join the flight", func() bool { return s.coalesced.Load() == n-1 })
	release()
	wg.Wait()

	leaders, followers := 0, 0
	for _, id := range ids {
		rresp, err := http.Get(ts.URL + "/debug/requests/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var rec RequestRecord
		if err := json.Unmarshal(drainBody(t, rresp), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Coalesced {
			followers++
			if rec.Cache != cacheTierCoal {
				t.Errorf("follower cache %q, want coalesced", rec.Cache)
			}
		} else if rec.Leader {
			leaders++
		}
		if len(rec.Spans) == 0 {
			t.Errorf("request %s (coalesced=%t) has no span tree", id, rec.Coalesced)
		}
	}
	if leaders == 0 {
		t.Error("no leader recorded")
	}
	if leaders+followers != n {
		t.Errorf("leaders %d + followers %d != %d requests", leaders, followers, n)
	}
}
