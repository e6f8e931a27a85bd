package serve

// Tests for the one request pipeline: every way into the server — the
// one-shot body, the NDJSON stream, /v1/replan, the prewarmer — must
// leave the same store entry behind and refuse work the same way, and a
// cache directory of an older persist format must be re-solved, never
// served.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"syccl/internal/cli"
	"syccl/internal/core"
)

// storedBytes renders a store entry the way the snapshot does, so "the
// same entry" means the same bytes a reboot would restore.
func storedBytes(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	ent, ok := s.store.get(id)
	if !ok {
		t.Fatalf("store has no entry %q", id)
	}
	raw, err := json.Marshal(snapEntry{ID: ent.id, Resp: ent.resp, Schedule: ToScheduleJSON(ent.sched)})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// recordOf fetches the flight record behind a response.
func recordOf(t *testing.T, url string, resp *http.Response) RequestRecord {
	t.Helper()
	_, raw := getJSON(t, url+"/debug/requests/"+resp.Header.Get(RequestIDHeader))
	var rec RequestRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("flight record: %v: %s", err, raw)
	}
	return rec
}

// TestPathEquivalence drives one key through each path on a fresh
// server. A degraded topology is the one request every path accepts
// (/v1/replan requires the delta).
func TestPathEquivalence(t *testing.T) {
	req := Request{Topology: "dgx4", Collective: "allgather", Size: "1M", TopologyDelta: "slow:0-4*4"}
	const body = `{"topology":"dgx4","collective":"allgather","size":"1M","topology_delta":"slow:0-4*4"}`
	const streamBody = `{"topology":"dgx4","collective":"allgather","size":"1M","topology_delta":"slow:0-4*4","stream":true}`

	paths := []struct {
		name  string
		cache string // cache tier the driving request must report
		drive func(t *testing.T, s *Server, url string) (id string, rec *RequestRecord)
	}{
		{"one-shot", cacheTierCold, func(t *testing.T, s *Server, url string) (string, *RequestRecord) {
			resp, raw := postJSON(t, url, body)
			rec := recordOf(t, url, resp)
			return decodeSynth(t, raw).ID, &rec
		}},
		{"stream", cacheTierCold, func(t *testing.T, s *Server, url string) (string, *RequestRecord) {
			resp, events := postStream(t, url, streamBody)
			final := checkStreamShape(t, events)
			if final.Event != StreamEventFinal {
				t.Fatalf("stream ended with %+v", final)
			}
			rec := recordOf(t, url, resp)
			return final.Response.ID, &rec
		}},
		{"replan", cacheTierNone, func(t *testing.T, s *Server, url string) (string, *RequestRecord) {
			resp, raw := postPath(t, url, "/v1/replan", body)
			got := decodeSynth(t, raw)
			if got.Replan == nil {
				t.Fatalf("replan response without bookkeeping: %s", raw)
			}
			rec := recordOf(t, url, resp)
			if len(rec.Spans) == 0 {
				t.Error("replan record has no span tree")
			}
			return got.ID, &rec
		}},
		{"prewarm", "", func(t *testing.T, s *Server, url string) (string, *RequestRecord) {
			waitFor(t, 10*time.Second, "prewarm sweep", func() bool { return s.Stats().Server.Prewarmed == 1 })
			res, aerr := s.resolve(&req)
			if aerr != nil {
				t.Fatal(aerr)
			}
			return res.id, nil
		}},
	}

	var wantEntry, wantFollowUp []byte
	for _, p := range paths {
		opts := Options{}
		if p.name == "prewarm" {
			opts.Prewarm = []Request{req}
		}
		s, ts := newTestServer(t, opts)
		id, rec := p.drive(t, s, ts.URL)
		if rec != nil && (rec.Cache != p.cache || rec.Outcome != "ok" || !rec.Leader) {
			t.Errorf("%s: record cache=%q outcome=%q leader=%t, want cache=%q outcome=ok leader", p.name, rec.Cache, rec.Outcome, rec.Leader, p.cache)
		}

		entry := storedBytes(t, s, id)
		if wantEntry == nil {
			wantEntry = entry
		} else if string(entry) != string(wantEntry) {
			t.Errorf("%s left a different store entry:\n got %s\nwant %s", p.name, entry, wantEntry)
		}

		// Whatever stored it, the follow-up synthesize is the same store hit.
		resp, raw := postJSON(t, ts.URL, body)
		if follow := recordOf(t, ts.URL, resp); resp.StatusCode != http.StatusOK || follow.Cache != cacheTierStore || !decodeSynth(t, raw).Cached {
			t.Errorf("%s: follow-up status %d cache %q: %s", p.name, resp.StatusCode, follow.Cache, raw)
		}
		if wantFollowUp == nil {
			wantFollowUp = raw
		} else if string(raw) != string(wantFollowUp) {
			t.Errorf("%s: follow-up body differs:\n got %s\nwant %s", p.name, raw, wantFollowUp)
		}
		if plans := s.Engine().Stats().Plans; plans != 1 {
			t.Errorf("%s: %d engine plans, want 1", p.name, plans)
		}
	}
}

// TestRefusalEquivalence: queue-full, deadline and draining are decided
// in one place each, so the three request paths must answer them with
// the same status, code and Retry-After.
func TestRefusalEquivalence(t *testing.T) {
	type refusal struct {
		status     int
		code       string
		retryAfter string
	}
	// a100x32 AlltoAll cannot finish a candidate in a millisecond.
	const slow = `"topology":"a100x32","collective":"alltoall","size":"1G","topology_delta":"slow:0-32*2","timeout_ms":1`
	const quick = `"topology":"dgx4","collective":"allgather","size":"1M","topology_delta":"slow:0-4*4"`
	ask := func(t *testing.T, url, path, fields string) refusal {
		t.Helper()
		resp, raw := postPath(t, url, path, "{"+fields+"}")
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == nil {
			t.Fatalf("%s: status %d, not a structured error: %s", path, resp.StatusCode, raw)
		}
		return refusal{resp.StatusCode, eb.Error.Code, resp.Header.Get("Retry-After")}
	}
	same := func(t *testing.T, url, fields string, want refusal) {
		t.Helper()
		for _, p := range []struct{ name, path, extra string }{
			{"one-shot", "/v1/synthesize", ""},
			{"stream", "/v1/synthesize", `,"stream":true`},
			{"replan", "/v1/replan", ""},
		} {
			if got := ask(t, url, p.path, fields+p.extra); got != want {
				t.Errorf("%s: refused with %+v, want %+v", p.name, got, want)
			}
		}
	}

	t.Run("queue-full", func(t *testing.T) {
		s, ts := newTestServer(t, Options{Concurrency: 1, QueueDepth: 1})
		if err := s.adm.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer s.adm.release()
		seat, leave := context.WithCancel(context.Background())
		left := make(chan struct{})
		go func() { _ = s.adm.acquire(seat); close(left) }()
		waitFor(t, 10*time.Second, "the queue seat to fill", func() bool { return len(s.adm.queue) == 1 })
		// One slot, one queued: the hint is base × (1 + 1/1).
		same(t, ts.URL, quick, refusal{http.StatusTooManyRequests, CodeQueueFull, "2"})
		if got := s.Stats().Server.QueueRejections; got != 3 {
			t.Errorf("queue rejections = %d, want 3", got)
		}
		leave()
		<-left
	})
	t.Run("deadline", func(t *testing.T) {
		_, ts := newTestServer(t, Options{})
		same(t, ts.URL, slow, refusal{http.StatusGatewayTimeout, CodeDeadline, ""})
	})
	t.Run("draining", func(t *testing.T) {
		s, ts := newTestServer(t, Options{})
		s.Drain(context.Background())
		same(t, ts.URL, quick, refusal{http.StatusServiceUnavailable, CodeDraining, ""})
	})
}

// TestStoreEvictionsCountedOnEveryPath: the count lives in the cache, so
// evictions caused by the prewarmer and by restoring a snapshot larger
// than the store are counted like those a request causes.
func TestStoreEvictionsCountedOnEveryPath(t *testing.T) {
	const entries = 2
	grid := PrewarmGrid([]string{"dgx4"}, []string{"allgather"}, []string{"1M", "2M", "4M", "8M", "16M"})
	dir := t.TempDir()
	s, _ := newTestServer(t, Options{StoreEntries: entries, Prewarm: grid, Persist: openStore(t, dir)})
	waitFor(t, 20*time.Second, "prewarm sweep", func() bool { return int(s.Stats().Server.Prewarmed) == len(grid) })
	st := s.Stats().Server
	if want := int64(len(grid) - entries); st.StoreEvictions != want || st.StoreEntries != entries {
		t.Fatalf("after prewarming %d keys into %d entries: %d evictions, %d resident; want %d evictions",
			len(grid), entries, st.StoreEvictions, st.StoreEntries, want)
	}
	if got := s.Recorder().CounterValue("serve.store.evictions"); got != float64(st.StoreEvictions) {
		t.Errorf("serve.store.evictions counter = %g, /statsz says %d", got, st.StoreEvictions)
	}
	s.Drain(context.Background())

	// The snapshot holds two entries; a one-entry store evicts the older.
	s2, _ := newTestServer(t, Options{StoreEntries: 1, Persist: openStore(t, dir)})
	if st := s2.Stats().Server; st.Restored != entries || st.StoreEvictions != entries-1 {
		t.Fatalf("restoring %d entries into 1: restored %d, evictions %d", entries, st.Restored, st.StoreEvictions)
	}
}

// TestWarmBootFromParentWrittenCache boots on testdata/parent_cache, a
// -cache-dir written by a daemon of persist format v1 (dgx4 allgather 1M
// and server8 allreduce 4M, then SIGTERM). Format v2 keys everything
// differently, so the old corpus is ignored and re-solved, never
// mis-served: Open resets it, nothing is restored, and both requests are
// answered cold, equal to a cold synthesis. A drained reboot on the same
// directory then restores both under their new ids.
func TestWarmBootFromParentWrittenCache(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent_cache")
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	store := openStore(t, dir)
	if st := store.Stats(); st.Entries != 0 || st.Resets != 1 {
		t.Fatalf("the v1 corpus survived Open: %+v", st)
	}
	s, ts := newTestServer(t, Options{Persist: store})
	if got := s.Stats().Server.Restored; got != 0 {
		t.Fatalf("restored %d schedules from the v1 snapshot", got)
	}

	reqs := []struct{ top, coll, size string }{{"dgx4", "allgather", "1M"}, {"server8", "allreduce", "4M"}}
	ids := make([]string, len(reqs))
	for i, r := range reqs {
		body := fmt.Sprintf(`{"topology":%q,"collective":%q,"size":%q,"include_schedule":true}`, r.top, r.coll, r.size)
		resp, raw := postJSON(t, ts.URL, body)
		got := decodeSynth(t, raw)
		if resp.StatusCode != http.StatusOK || got.Cached || got.SolverCalls == 0 {
			t.Fatalf("%s: status %d, not a cold answer: %s", body, resp.StatusCode, raw)
		}
		top, err := cli.ParseTopology(r.top)
		if err != nil {
			t.Fatal(err)
		}
		size, err := cli.ParseSize(r.size)
		if err != nil {
			t.Fatal(err)
		}
		col, err := cli.BuildCollective(r.coll, top.NumGPUs(), size)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := core.Synthesize(top, col, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.PredictedTimeS != cold.Time || !reflect.DeepEqual(got.Schedule, ToScheduleJSON(cold.Schedule)) {
			t.Fatalf("%s: the answer over a v1 corpus differs from a cold synthesis", body)
		}
		ids[i] = got.ID
	}
	s.Drain(context.Background())

	s2, ts2 := newTestServer(t, Options{Persist: openStore(t, dir)})
	if got := s2.Stats().Server.Restored; got != int64(len(reqs)) {
		t.Fatalf("drained reboot restored %d schedules, want %d", got, len(reqs))
	}
	for i, r := range reqs {
		_, raw := postJSON(t, ts2.URL, fmt.Sprintf(`{"topology":%q,"collective":%q,"size":%q}`, r.top, r.coll, r.size))
		if got := decodeSynth(t, raw); !got.Cached || got.ID != ids[i] {
			t.Fatalf("%s %s after the drained reboot: %s", r.top, r.coll, raw)
		}
	}
}
