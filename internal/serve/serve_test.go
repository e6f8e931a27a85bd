package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"syccl/internal/cli"
	"syccl/internal/verify"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newTestServer builds a Server plus an httptest front for it.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

// TestSynthesizeFetchRoundTrip drives the full service loop — synthesize,
// then fetch by id — for all nine collectives on both the single-server
// and dgx4 topologies, and replays every fetched schedule through the
// chunk-replay oracle.
func TestSynthesizeFetchRoundTrip(t *testing.T) {
	collectives := []string{
		"allgather", "reducescatter", "alltoall", "allreduce",
		"broadcast", "reduce", "scatter", "gather", "sendrecv",
	}
	for _, topo := range []string{"server8", "dgx4"} {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			_, ts := newTestServer(t, Options{})
			for _, coll := range collectives {
				body := fmt.Sprintf(`{"topology":%q,"collective":%q,"size":"1M","workers":2}`, topo, coll)
				resp, raw := postJSON(t, ts.URL, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s/%s: status %d: %s", topo, coll, resp.StatusCode, raw)
				}
				var sr SynthesizeResponse
				if err := json.Unmarshal(raw, &sr); err != nil {
					t.Fatalf("%s/%s: bad response JSON: %v", topo, coll, err)
				}
				if sr.ID == "" || sr.Partial || sr.Cached || sr.Coalesced {
					t.Fatalf("%s/%s: unexpected flags in cold response: %+v", topo, coll, sr)
				}
				if sr.PredictedTimeS <= 0 || sr.Transfers <= 0 {
					t.Fatalf("%s/%s: degenerate result: %+v", topo, coll, sr)
				}

				fresp, fraw := getJSON(t, ts.URL+"/v1/schedule/"+sr.ID)
				if fresp.StatusCode != http.StatusOK {
					t.Fatalf("%s/%s: fetch status %d: %s", topo, coll, fresp.StatusCode, fraw)
				}
				var fetched SynthesizeResponse
				if err := json.Unmarshal(fraw, &fetched); err != nil {
					t.Fatalf("%s/%s: bad fetch JSON: %v", topo, coll, err)
				}
				if !fetched.Cached || fetched.Schedule == nil {
					t.Fatalf("%s/%s: fetch missing cached schedule: %+v", topo, coll, fetched)
				}
				if fetched.PredictedTimeS != sr.PredictedTimeS {
					t.Fatalf("%s/%s: fetch changed predicted time", topo, coll)
				}

				sched, err := fetched.Schedule.Schedule()
				if err != nil {
					t.Fatalf("%s/%s: decode schedule: %v", topo, coll, err)
				}
				top, err := cli.ParseTopology(topo)
				if err != nil {
					t.Fatal(err)
				}
				col, err := cli.BuildCollective(coll, top.NumGPUs(), 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				if err := verify.CheckSchedule(col, sched); err != nil {
					t.Fatalf("%s/%s: served schedule fails the oracle: %v", topo, coll, err)
				}
			}
		})
	}
}

// TestWarmDuplicateSkipsEngine is the warm-path acceptance check: a
// repeated request must come back from the schedule store without the
// engine being invoked at all, asserted through Engine.Stats.
func TestWarmDuplicateSkipsEngine(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body := `{"topology":"dgx4","collective":"allgather","size":"1M"}`

	resp, raw := postJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: %d: %s", resp.StatusCode, raw)
	}
	if got := s.Engine().Stats().Plans; got != 1 {
		t.Fatalf("cold request made %d engine plans, want 1", got)
	}

	resp, raw = postJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: %d: %s", resp.StatusCode, raw)
	}
	var warm SynthesizeResponse
	if err := json.Unmarshal(raw, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatalf("warm duplicate not marked cached: %s", raw)
	}
	if got := s.Engine().Stats().Plans; got != 1 {
		t.Fatalf("warm duplicate invoked the engine (plans=%d)", got)
	}
	st := s.Stats().Server
	if st.StoreHits != 1 {
		t.Fatalf("store hits = %d, want 1", st.StoreHits)
	}
}

// TestNonFiniteSizeRefused: a NaN or infinite size is a 400 bad_size at
// the door, not a request that reaches the pipeline (a NaN chunk size
// once panicked a solver goroutine and took the daemon down); the server
// keeps answering afterwards.
func TestNonFiniteSizeRefused(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, size := range []string{"NaN", "Inf", "infM", "-Inf"} {
		resp, raw := postJSON(t, ts.URL, `{"topology":"dgx4","collective":"allgather","size":"`+size+`"}`)
		var eb errorBody
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &eb) != nil || eb.Error == nil || eb.Error.Code != CodeBadSize {
			t.Fatalf("size %q: status %d, body %s; want 400 %s", size, resp.StatusCode, raw, CodeBadSize)
		}
	}
	if resp, raw := postJSON(t, ts.URL, `{"topology":"dgx4","collective":"allgather","size":"1M"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("server stopped answering after the refusals: %d %s", resp.StatusCode, raw)
	}
}

// TestErrorPaths checks that every malformed input maps to its own
// structured 400 (or 404/413) body.
func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 512})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"bad topology", `{"topology":"tpu9000","collective":"allgather","size":"1M"}`, 400, CodeBadTopology},
		{"unknown collective", `{"topology":"dgx4","collective":"allscatter","size":"1M"}`, 400, CodeBadCollective},
		{"bad size", `{"topology":"dgx4","collective":"allgather","size":"lots"}`, 400, CodeBadSize},
		{"malformed body", `{"topology":`, 400, CodeBadRequest},
		{"trailing garbage", `{"topology":"dgx4","collective":"allgather","size":"1M"}{}`, 400, CodeBadRequest},
		{"unknown field", `{"topology":"dgx4","collective":"allgather","size":"1M","turbo":true}`, 400, CodeBadRequest},
		{"deleted bypass_store flag", `{"topology":"dgx4","collective":"allgather","size":"1M","bypass_store":true}`, 400, CodeBadRequest},
		{"missing topology", `{"collective":"allgather","size":"1M"}`, 400, CodeBadRequest},
		{"missing collective", `{"topology":"dgx4","size":"1M"}`, 400, CodeBadRequest},
		{"missing size", `{"topology":"dgx4","collective":"allgather"}`, 400, CodeBadRequest},
		{"negative timeout", `{"topology":"dgx4","collective":"allgather","size":"1M","timeout_ms":-5}`, 400, CodeBadRequest},
		{"oversized body", `{"topology":"dgx4","collective":"allgather","size":"1M","seed":` + strings.Repeat("1", 600) + `}`, 413, CodeBodyTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, ts.URL, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			var eb errorBody
			if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == nil {
				t.Fatalf("unstructured error body: %s", raw)
			}
			if eb.Error.Code != tc.code {
				t.Fatalf("code %q, want %q (%s)", eb.Error.Code, tc.code, eb.Error.Message)
			}
			if eb.Error.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}

	t.Run("unknown schedule id", func(t *testing.T) {
		resp, raw := getJSON(t, ts.URL+"/v1/schedule/deadbeef")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404: %s", resp.StatusCode, raw)
		}
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == nil || eb.Error.Code != CodeNotFound {
			t.Fatalf("want structured not_found, got %s", raw)
		}
	})

	t.Run("wrong method", func(t *testing.T) {
		resp, _ := getJSON(t, ts.URL+"/v1/synthesize")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/synthesize = %d, want 405", resp.StatusCode)
		}
	})
}

// TestGoldenResponses pins the exact wire bytes of a representative
// success response and a representative error response. Regenerate with
// `go test ./internal/serve/ -run Golden -update`.
func TestGoldenResponses(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"synthesize_dgx4_allgather", `{"topology":"dgx4","collective":"allgather","size":"1M","workers":1,"include_schedule":true}`, 200},
		{"error_bad_topology", `{"topology":"tpu9000","collective":"allgather","size":"1M"}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, ts.URL, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
			golden := filepath.Join("testdata", "golden_"+tc.name+".json")
			if *update {
				if err := os.WriteFile(golden, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("response drifted from golden %s:\ngot:  %s\nwant: %s", golden, raw, want)
			}
		})
	}
}

// TestStoreEviction bounds the schedule store: with capacity 2, the first
// of three distinct results is evicted and no longer fetchable.
func TestStoreEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{StoreEntries: 2})
	ids := make([]string, 3)
	for i := range ids {
		body := fmt.Sprintf(`{"topology":"dgx4","collective":"allgather","size":"1M","seed":%d}`, i+1)
		resp, raw := postJSON(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, resp.StatusCode, raw)
		}
		var sr SynthesizeResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		ids[i] = sr.ID
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/schedule/"+ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted id still fetchable: %d", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if resp, _ := getJSON(t, ts.URL+"/v1/schedule/"+id); resp.StatusCode != http.StatusOK {
			t.Fatalf("recent id %s not fetchable: %d", id, resp.StatusCode)
		}
	}
	if st := s.Stats().Server; st.StoreEvictions != 1 || st.StoreEntries != 2 {
		t.Fatalf("store accounting off: %+v", st)
	}
}

// TestHealthStatsTrace covers the operational endpoints: healthz flips
// with drain state, statsz is coherent JSON, tracez parses as a Chrome
// trace carrying the server's spans.
func TestHealthStatsTrace(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	resp, raw := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, raw)
	}

	if resp, raw := postJSON(t, ts.URL, `{"topology":"dgx4","collective":"allgather","size":"1M"}`); resp.StatusCode != 200 {
		t.Fatalf("synthesize: %d %s", resp.StatusCode, raw)
	}

	resp, raw = getJSON(t, ts.URL+"/statsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz: %d", resp.StatusCode)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("statsz JSON: %v", err)
	}
	if snap.Server.Requests != 1 || snap.Engine.Plans != 1 {
		t.Fatalf("statsz counters off: %s", raw)
	}

	resp, raw = getJSON(t, ts.URL+"/tracez")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tracez: %d", resp.StatusCode)
	}
	var trace struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("tracez is not Chrome-trace JSON: %v", err)
	}
	found := false
	for _, ev := range trace.TraceEvents {
		if ev["name"] == "http.synthesize" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("tracez missing the http.synthesize handler span")
	}

	// Drain flips healthz so load balancers stop routing here.
	ctx, cancel := contextWithTimeout(t, 5*time.Second)
	defer cancel()
	s.Drain(ctx)
	if resp, raw := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), "draining") {
		t.Fatalf("draining healthz: %d %s", resp.StatusCode, raw)
	}
	if resp, _ := postJSON(t, ts.URL, `{"topology":"dgx4","collective":"allgather","size":"2M"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining synthesize: %d, want 503", resp.StatusCode)
	}
}
