package serve

// Warm-boot tests: a daemon with -cache-dir must come back from a
// restart serving previously synthesized schedules from its restored
// store (cache="store", engine untouched), fall back to the engine's
// disk tier for bypass-store requests (cache="warm", zero solver
// calls), and treat a damaged snapshot as a cold boot — never a crash.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"syccl/internal/persist"
)

func openStore(t *testing.T, dir string) *persist.Store {
	t.Helper()
	p, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func decodeSynth(t *testing.T, body []byte) SynthesizeResponse {
	t.Helper()
	var resp SynthesizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return resp
}

// The restart contract, end to end at the handler level: daemon one
// synthesizes and drains (final snapshot); daemon two on the same
// directory — fresh engine, fresh store handle, zero shared memory —
// serves the identical request from its restored store: bit-identical
// schedule, no engine plan, and cache="store" on the request metric.
func TestWarmBootServesFromStore(t *testing.T) {
	dir := t.TempDir()
	body := `{"topology":"dgx4","collective":"allgather","size":"1M","include_schedule":true}`

	s1 := New(Options{Persist: openStore(t, dir)})
	ts1 := httptest.NewServer(s1)
	resp1, body1 := postJSON(t, ts1.URL, body)
	if resp1.StatusCode != 200 {
		t.Fatalf("cold synthesize: status %d: %s", resp1.StatusCode, body1)
	}
	cold := decodeSynth(t, body1)
	if cold.Schedule == nil {
		t.Fatal("cold response missing schedule")
	}
	s1.Drain(context.Background())
	ts1.Close()

	s2 := New(Options{Persist: openStore(t, dir)})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	if got := s2.Stats().Server.Restored; got == 0 {
		t.Fatal("second boot restored nothing from the snapshot")
	}

	resp2, body2 := postJSON(t, ts2.URL, body)
	if resp2.StatusCode != 200 {
		t.Fatalf("warm synthesize: status %d: %s", resp2.StatusCode, body2)
	}
	warm := decodeSynth(t, body2)
	if !warm.Cached {
		t.Fatalf("rebooted daemon did not serve from the store: %s", body2)
	}
	if !reflect.DeepEqual(warm.Schedule, cold.Schedule) {
		t.Fatal("restored schedule is not bit-identical to the original")
	}
	if warm.ID != cold.ID || warm.PredictedTimeS != cold.PredictedTimeS {
		t.Fatalf("restored response drifted: cold %+v warm %+v", cold, warm)
	}
	// The store answered before the engine was ever consulted.
	if plans := s2.Engine().Stats().Plans; plans != 0 {
		t.Fatalf("store hit still ran %d engine plans", plans)
	}
	// And the request metric carries the store tier.
	_, prom := getJSON(t, ts2.URL+"/metrics")
	if !strings.Contains(string(prom), `cache="store"`) {
		t.Fatalf("exposition missing cache=\"store\" after warm-boot hit:\n%s", prom)
	}
	// GET /v1/schedule/{id} works off the restored store too.
	fresp, fbody := getJSON(t, ts2.URL+"/v1/schedule/"+warm.ID)
	if fresp.StatusCode != 200 {
		t.Fatalf("fetch restored schedule: status %d: %s", fresp.StatusCode, fbody)
	}
}

// Past the store on a rebooted daemon (its restored entry evicted by
// another plan) the engine's disk tier answers: the plan must come back
// engine-warm — zero solver calls — because every solved sub-demand was
// written through to disk by the first daemon.
func TestWarmBootEngineTierZeroSolves(t *testing.T) {
	dir := t.TempDir()
	body := `{"topology":"dgx4","collective":"allgather","size":"1M"}`

	s1 := New(Options{Persist: openStore(t, dir)})
	ts1 := httptest.NewServer(s1)
	if resp, b := postJSON(t, ts1.URL, body); resp.StatusCode != 200 {
		t.Fatalf("cold synthesize: status %d: %s", resp.StatusCode, b)
	}
	s1.Drain(context.Background())
	ts1.Close()

	s2 := New(Options{Persist: openStore(t, dir), StoreEntries: 1})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	if resp, b := postJSON(t, ts2.URL, `{"topology":"dgx4","collective":"alltoall","size":"1M"}`); resp.StatusCode != 200 {
		t.Fatalf("evicting synthesize: status %d: %s", resp.StatusCode, b)
	}
	resp, b := postJSON(t, ts2.URL, body)
	if resp.StatusCode != 200 {
		t.Fatalf("warm synthesize: status %d: %s", resp.StatusCode, b)
	}
	warm := decodeSynth(t, b)
	if warm.SolverCalls != 0 {
		t.Fatalf("rebooted engine ran %d solver calls; disk tier missed", warm.SolverCalls)
	}
	if st := s2.Engine().Stats(); st.PersistHits == 0 {
		t.Fatalf("engine never touched the disk tier: %+v", st)
	}
}

// A corrupted snapshot degrades to a cold boot: nothing restored,
// nothing panics, the damage is counted, and the daemon still serves.
func TestCorruptSnapshotColdBoot(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Options{Persist: openStore(t, dir)})
	ts1 := httptest.NewServer(s1)
	if resp, b := postJSON(t, ts1.URL, `{"topology":"dgx4","collective":"allgather","size":"1M"}`); resp.StatusCode != 200 {
		t.Fatalf("cold synthesize: status %d: %s", resp.StatusCode, b)
	}
	s1.Drain(context.Background())
	ts1.Close()

	snap := filepath.Join(dir, "snapshots", scheduleStoreSnapshot+".snap")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x5a
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	p2 := openStore(t, dir)
	s2 := New(Options{Persist: p2})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	if got := s2.Stats().Server.Restored; got != 0 {
		t.Fatalf("restored %d entries from a corrupt snapshot", got)
	}
	if st := p2.Stats(); st.CorruptSnapshots != 1 {
		t.Fatalf("persist stats %+v, want 1 corrupt snapshot", st)
	}
	resp, b := postJSON(t, ts2.URL, `{"topology":"dgx4","collective":"allgather","size":"1M"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("daemon unusable after corrupt snapshot: status %d: %s", resp.StatusCode, b)
	}
	if decodeSynth(t, b).Cached {
		t.Fatal("corrupt snapshot still produced a store hit")
	}
}

// A snapshot image whose entries were tampered with inside a valid
// container (checksum recomputed by an attacker or a buggy tool) is
// caught by the restore-time oracle: invalid schedules never enter the
// store.
func TestTamperedSnapshotEntriesRejected(t *testing.T) {
	dir := t.TempDir()
	p1 := openStore(t, dir)
	s1 := New(Options{Persist: p1})
	ts1 := httptest.NewServer(s1)
	if resp, b := postJSON(t, ts1.URL, `{"topology":"dgx4","collective":"allgather","size":"1M"}`); resp.StatusCode != 200 {
		t.Fatalf("cold synthesize: status %d: %s", resp.StatusCode, b)
	}
	s1.Drain(context.Background())
	ts1.Close()

	// Rewrite the snapshot through the legitimate API with mangled
	// transfers: the container is valid, the content is not.
	payload, ok := p1.LoadSnapshot(scheduleStoreSnapshot)
	if !ok {
		t.Fatal("snapshot missing after drain")
	}
	var img snapImage
	if err := json.Unmarshal(payload, &img); err != nil {
		t.Fatal(err)
	}
	for i := range img.Entries {
		if sj := img.Entries[i].Schedule; sj != nil && len(sj.Transfers) > 0 {
			sj.Transfers = sj.Transfers[:len(sj.Transfers)/2]
		}
	}
	mangled, err := json.Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.SaveSnapshot(scheduleStoreSnapshot, mangled); err != nil {
		t.Fatal(err)
	}

	s2 := New(Options{Persist: openStore(t, dir)})
	if got := s2.Stats().Server.Restored; got != 0 {
		t.Fatalf("restored %d oracle-invalid entries", got)
	}
}

// The periodic snapshot loop flushes without a drain: a second store
// handle sees the snapshot once the interval elapses.
func TestPeriodicSnapshotFlush(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Options{Persist: openStore(t, dir), SnapshotInterval: 20 * time.Millisecond})
	ts1 := httptest.NewServer(s1)
	defer ts1.Close()
	if resp, b := postJSON(t, ts1.URL, `{"topology":"dgx4","collective":"allgather","size":"1M"}`); resp.StatusCode != 200 {
		t.Fatalf("synthesize: status %d: %s", resp.StatusCode, b)
	}
	snap := filepath.Join(dir, "snapshots", scheduleStoreSnapshot+".snap")
	waitFor(t, 10*time.Second, "periodic snapshot", func() bool {
		_, err := os.Stat(snap)
		return err == nil
	})
	s2 := New(Options{Persist: openStore(t, dir)})
	if got := s2.Stats().Server.Restored; got == 0 {
		t.Fatal("periodic snapshot restored nothing")
	}
}

// The prewarmer sweeps its grid in the background and lands results in
// the schedule store: a first-ever client request is already a store
// hit, and the sweep is visible in syccl_prewarm_total.
func TestPrewarmerPopulatesStore(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{
		Persist: openStore(t, dir),
		Prewarm: PrewarmGrid([]string{"dgx4"}, []string{"allgather", "broadcast"}, []string{"1M"}),
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	waitFor(t, 10*time.Second, "prewarm sweep", func() bool { return s.Stats().Server.Prewarmed == 2 })

	resp, b := postJSON(t, ts.URL, `{"topology":"dgx4","collective":"broadcast","size":"1M"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("synthesize: status %d: %s", resp.StatusCode, b)
	}
	if !decodeSynth(t, b).Cached {
		t.Fatalf("first client request missed the prewarmed store: %s", b)
	}
	_, prom := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(string(prom), `syccl_prewarm_total{result="planned"} 2`) {
		t.Fatalf("exposition missing prewarm counts:\n%s", prom)
	}
}

// A pack the disk tier cannot write (objects/ replaced by a regular
// file; root ignores mode bits, so chmod cannot simulate it) costs
// durability only: the daemon answers 200 with the cold schedule from
// memory, store_errors counts the failed batches, and their keys are
// released, so once the directory is back a later plan on the same
// store writes every solved sub-schedule.
func TestPackWriteFailureFallsBackToMemory(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	objects := filepath.Join(dir, "objects")
	if err := os.Remove(objects); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objects, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	body := `{"topology":"dgx4","collective":"allgather","size":"1M","include_schedule":true}`

	_, tsCold := newTestServer(t, Options{})
	_, coldBody := postJSON(t, tsCold.URL, body)
	cold := decodeSynth(t, coldBody)

	_, ts1 := newTestServer(t, Options{Persist: store})
	resp, b := postJSON(t, ts1.URL, body)
	if resp.StatusCode != 200 {
		t.Fatalf("synthesize over a broken disk tier: status %d: %s", resp.StatusCode, b)
	}
	got := decodeSynth(t, b)
	if got.ID != cold.ID || got.PredictedTimeS != cold.PredictedTimeS || !reflect.DeepEqual(got.Schedule, cold.Schedule) {
		t.Fatal("plan over a broken disk tier differs from the cold plan")
	}
	st := store.Stats()
	if st.StoreErrors == 0 || st.Stores != 0 || st.Entries != 0 {
		t.Fatalf("failed batches not counted or not released: %+v", st)
	}
	_, prom := getJSON(t, ts1.URL+"/metrics")
	if want := fmt.Sprintf(`syccl_persist_stores_total{result="error"} %d`, st.StoreErrors); !strings.Contains(string(prom), want) {
		t.Fatalf("exposition missing %q", want)
	}

	if err := os.Remove(objects); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(objects, 0o755); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Options{Persist: store})
	_, b2 := postJSON(t, ts2.URL, body)
	again := decodeSynth(t, b2)
	if again.SolverCalls == 0 || !reflect.DeepEqual(again.Schedule, cold.Schedule) {
		t.Fatalf("later plan: %d solver calls, same schedule %t", again.SolverCalls, reflect.DeepEqual(again.Schedule, cold.Schedule))
	}
	if st := store.Stats(); st.Stores != int64(again.SolverCalls) || st.Duplicates != 0 {
		t.Fatalf("later plan wrote %d of %d solved sub-schedules: %+v", st.Stores, again.SolverCalls, st)
	}
}
