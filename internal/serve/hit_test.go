package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"syccl/internal/obs"
)

// serveOnce drives one request through ServeHTTP into a recorder: the
// whole handler, no TCP.
func serveOnce(s *Server, method, path, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rr
}

// genericHitBody is what the per-request encoder writes for a store hit
// on ent: the outcome stripped of its entry, so finish cannot take the
// cached bytes.
func genericHitBody(s *Server, ent *storeEntry, includeSchedule bool) []byte {
	hit := ent.hit()
	hit.ent = nil
	rr := httptest.NewRecorder()
	(&responder{s: s, w: rr}).finish(&hit, includeSchedule, false)
	return rr.Body.Bytes()
}

func synthBody(topo, coll, extra string) string {
	return fmt.Sprintf(`{"topology":%q,"collective":%q,"size":"1M"%s}`, topo, coll, extra)
}

// mustSolve runs the one cold solve behind body and returns its entry.
func mustSolve(t *testing.T, s *Server, body string) *storeEntry {
	t.Helper()
	rr := serveOnce(s, http.MethodPost, "/v1/synthesize", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("cold solve: %d: %s", rr.Code, rr.Body)
	}
	cold := decodeSynth(t, rr.Body.Bytes())
	if cold.Cached {
		t.Fatalf("cold solve answered cached:true: %s", rr.Body)
	}
	ent, ok := s.store.get(cold.ID)
	if !ok {
		t.Fatalf("cold solve left no store entry %s", cold.ID)
	}
	return ent
}

// TestHitBodiesEqualGenericEncoder: the cached body of a hit is, byte for
// byte, what the per-request encoder produces for the same outcome —
// plain and include_schedule — and GET /v1/schedule/{id} is the
// include_schedule hit.
func TestHitBodiesEqualGenericEncoder(t *testing.T) {
	collectives := []string{
		"allgather", "reducescatter", "alltoall", "allreduce",
		"broadcast", "reduce", "scatter", "gather", "sendrecv",
	}
	for _, topo := range []string{"dgx4", "a100x16"} {
		s, ts := newTestServer(t, Options{})
		for _, coll := range collectives {
			name := topo + "/" + coll
			ent := mustSolve(t, s, synthBody(topo, coll, ""))
			for _, include := range []bool{false, true} {
				extra := ""
				if include {
					extra = `,"include_schedule":true`
				}
				want := genericHitBody(s, ent, include)
				// Twice: the request that encodes and one that only copies.
				for i := 0; i < 2; i++ {
					resp, raw := postJSON(t, ts.URL, synthBody(topo, coll, extra))
					if resp.StatusCode != http.StatusOK || !bytes.Equal(raw, want) {
						t.Fatalf("%s include=%t hit %d: status %d\n got %s\nwant %s", name, include, i, resp.StatusCode, raw, want)
					}
					if resp.ContentLength != int64(len(want)) {
						t.Fatalf("%s include=%t: Content-Length %d for a %d-byte body", name, include, resp.ContentLength, len(want))
					}
					if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
						t.Fatalf("%s: Content-Type %q", name, ct)
					}
				}
			}
			resp, raw := getJSON(t, ts.URL+"/v1/schedule/"+ent.id)
			if want := genericHitBody(s, ent, true); resp.StatusCode != http.StatusOK || !bytes.Equal(raw, want) {
				t.Fatalf("%s: GET /v1/schedule differs from the include_schedule hit: status %d", name, resp.StatusCode)
			}
		}
		if plans := s.Engine().Stats().Plans; plans != int64(len(collectives)) {
			t.Fatalf("%s: %d engine plans for %d collectives", topo, plans, len(collectives))
		}
	}
}

// TestHitBodyFlagsNeverLeak: the cached bytes say coalesced:false,
// cached:true and carry no event envelope, so a response that must say
// otherwise never takes them, however warm the entry's bodies are.
func TestHitBodyFlagsNeverLeak(t *testing.T) {
	const body = `{"topology":"dgx4","collective":"allgather","size":"1M","include_schedule":true}`
	src := New(Options{})
	solved := mustSolve(t, src, body)

	t.Run("follower of a store-answered leader", func(t *testing.T) {
		s, ts := newTestServer(t, Options{})
		res, aerr := s.resolve(&Request{Topology: "dgx4", Collective: "allgather", Size: "1M", IncludeSchedule: true})
		if aerr != nil {
			t.Fatal(aerr)
		}
		// The test is the leader: it holds the flight open until a real
		// request has joined it, then lets the result appear in the store
		// and runs the flight — which answers from the store, the race
		// runFlight's re-check exists for.
		f, leader := s.flights.join(res.key)
		if !leader {
			t.Fatal("fresh server already has a flight")
		}
		f.rec = obs.NewRecorder()
		type reply struct {
			status int
			raw    []byte
		}
		done := make(chan reply, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				done <- reply{}
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			done <- reply{resp.StatusCode, buf.Bytes()}
		}()
		waitFor(t, 10*time.Second, "the follower to join", func() bool {
			s.flights.mu.Lock()
			defer s.flights.mu.Unlock()
			return f.waiters == 2
		})
		s.store.put(solved.id, solved.resp, solved.sched)
		s.bgFlight.Add(1)
		s.runFlight(f, res)
		s.flights.leave(f)
		if f.ent == nil {
			t.Fatal("the leader was not answered from the store")
		}

		got := <-done
		follower := decodeSynth(t, got.raw)
		if got.status != http.StatusOK || !follower.Coalesced || !follower.Cached || follower.Schedule == nil {
			t.Fatalf("follower: status %d coalesced=%t cached=%t: %s", got.status, follower.Coalesced, follower.Cached, got.raw)
		}
		// The leader's own answer is the cached body.
		rr := httptest.NewRecorder()
		(&responder{s: s, w: rr}).finish(&f.outcome, true, false)
		if lead := decodeSynth(t, rr.Body.Bytes()); lead.Coalesced || !lead.Cached {
			t.Fatalf("leader: %s", rr.Body)
		}
		if !bytes.Equal(rr.Body.Bytes(), f.ent.body(true)) {
			t.Fatal("leader answered from the store did not get the entry's body")
		}
		if s.Engine().Stats().Plans != 0 {
			t.Fatal("a store-answered flight reached the engine")
		}
	})

	t.Run("stream hit", func(t *testing.T) {
		s, ts := newTestServer(t, Options{})
		s.store.put(solved.id, solved.resp, solved.sched)
		_, oneShot := postJSON(t, ts.URL, body) // bodies are now encoded
		resp, events := postStream(t, ts.URL, strings.Replace(body, "}", `,"stream":true}`, 1))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != NDJSONContentType {
			t.Fatalf("stream hit: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if len(events) != 1 || events[0].Event != StreamEventFinal {
			t.Fatalf("stream hit has %d events, want exactly one final", len(events))
		}
		final := events[0].Response
		if !final.Cached || final.Coalesced || final.Schedule == nil {
			t.Fatalf("stream final: %+v", final)
		}
		want, err := encodeBody(final)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, oneShot) {
			t.Fatal("the stream's final response is not the one-shot hit")
		}
	})

	t.Run("engine-warm", func(t *testing.T) {
		s, ts := newTestServer(t, Options{StoreEntries: 1})
		ent := mustSolve(t, s, body)
		_, hit := postJSON(t, ts.URL, body)
		mustSolve(t, s, synthBody("dgx4", "alltoall", "")) // evicts the entry
		resp, raw := postJSON(t, ts.URL, body)
		got := decodeSynth(t, raw)
		if resp.StatusCode != http.StatusOK || got.Cached || got.Schedule == nil {
			t.Fatalf("engine-warm: status %d cached=%t: %s", resp.StatusCode, got.Cached, raw)
		}
		if bytes.Equal(raw, hit) || bytes.Equal(raw, ent.body(true)) {
			t.Fatal("engine-warm was answered with the evicted entry's cached body")
		}
		if plans := s.Engine().Stats().Plans; plans != 3 {
			t.Fatalf("engine-warm: %d engine plans, want 3", plans)
		}
	})
}

// TestHitBodyFirstHitRace: 64 goroutines hit one entry nobody has
// fetched yet. Each body is encoded exactly once and everyone gets the
// same bytes. Run under -race by the CI shard.
func TestHitBodyFirstHitRace(t *testing.T) {
	src := New(Options{})
	solved := mustSolve(t, src, synthBody("a100x16", "allgather", ""))

	s := New(Options{})
	s.store.put(solved.id, solved.resp, solved.sched)
	ent, _ := s.store.get(solved.id)
	bodies := [2]string{synthBody("a100x16", "allgather", ""), synthBody("a100x16", "allgather", `,"include_schedule":true`)}

	const n = 64
	got := make([][]byte, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			rr := serveOnce(s, http.MethodPost, "/v1/synthesize", bodies[i%2])
			if rr.Code != http.StatusOK {
				t.Errorf("hit %d: %d: %s", i, rr.Code, rr.Body)
			}
			got[i] = rr.Body.Bytes()
		}(i)
	}
	start.Done()
	wg.Wait()

	want := [2][]byte{genericHitBody(s, ent, false), genericHitBody(s, ent, true)}
	for i, b := range got {
		if !bytes.Equal(b, want[i%2]) {
			t.Fatalf("goroutine %d (include=%t) got different bytes", i, i%2 == 1)
		}
	}
	if st := s.Stats(); st.Server.StoreHits != n || st.Engine.Plans != 0 {
		t.Fatalf("store hits %d, engine plans %d", st.Server.StoreHits, st.Engine.Plans)
	}
}

// TestHitBodyLifecycle: the bytes are born, evicted and restored with
// their entry.
func TestHitBodyLifecycle(t *testing.T) {
	a := synthBody("dgx4", "allgather", `,"include_schedule":true`)
	b := synthBody("dgx4", "alltoall", "")

	t.Run("evict and re-insert", func(t *testing.T) {
		s, ts := newTestServer(t, Options{StoreEntries: 1})
		first := mustSolve(t, s, a)
		_, hit1 := postJSON(t, ts.URL, a)
		if first.bodies[1].buf == nil {
			t.Fatal("a hit left no encoded body on its entry")
		}
		mustSolve(t, s, b) // evicts a
		if _, ok := s.store.get(first.id); ok {
			t.Fatal("one-entry store kept two entries")
		}
		// Engine-warm, not a store hit: the result is inserted afresh.
		if resp, raw := postJSON(t, ts.URL, a); resp.StatusCode != http.StatusOK || decodeSynth(t, raw).Cached {
			t.Fatalf("re-insert: %d: %s", resp.StatusCode, raw)
		}
		second, ok := s.store.get(first.id)
		if !ok || second == first {
			t.Fatal("re-insert did not make a new entry")
		}
		if second.bodies[0].buf != nil || second.bodies[1].buf != nil {
			t.Fatal("a new entry was born with encoded bodies")
		}
		// The new entry records the engine-warm solve that made it, so its
		// hit is encoded from it, not inherited from the evicted one.
		_, hit2 := postJSON(t, ts.URL, a)
		if !bytes.Equal(hit2, genericHitBody(s, second, true)) || second.bodies[1].buf == nil {
			t.Fatal("the re-inserted entry's hit is not its own encoding")
		}
		if first.resp.SolverCalls == 0 || decodeSynth(t, hit1).SolverCalls != first.resp.SolverCalls || decodeSynth(t, hit2).SolverCalls != 0 {
			t.Fatalf("solver_calls: first entry %d, its hit %d, the re-inserted entry's hit %d",
				first.resp.SolverCalls, decodeSynth(t, hit1).SolverCalls, decodeSynth(t, hit2).SolverCalls)
		}
	})

	t.Run("reboot", func(t *testing.T) {
		dir := t.TempDir()
		s1 := New(Options{Persist: openStore(t, dir)})
		ts1 := httptest.NewServer(s1)
		ent := mustSolve(t, s1, a)
		_, plain1 := postJSON(t, ts1.URL, strings.Replace(a, `,"include_schedule":true`, "", 1))
		_, sched1 := postJSON(t, ts1.URL, a)
		s1.Drain(context.Background())
		ts1.Close()

		s2, ts2 := newTestServer(t, Options{Persist: openStore(t, dir)})
		if s2.Stats().Server.Restored != 1 {
			t.Fatalf("restored %d entries, want 1", s2.Stats().Server.Restored)
		}
		_, plain2 := postJSON(t, ts2.URL, strings.Replace(a, `,"include_schedule":true`, "", 1))
		_, sched2 := postJSON(t, ts2.URL, a)
		_, fetched := getJSON(t, ts2.URL+"/v1/schedule/"+ent.id)
		if !bytes.Equal(plain1, plain2) || !bytes.Equal(sched1, sched2) || !bytes.Equal(sched1, fetched) {
			t.Fatal("a rebooted daemon serves different hit bytes")
		}
		if s2.Engine().Stats().Plans != 0 {
			t.Fatal("restored hits reached the engine")
		}
	})
}

// TestResolveMemo pins what the memo table shares and what it must not.
func TestResolveMemo(t *testing.T) {
	mustResolve := func(t *testing.T, s *Server, req *Request) *resolved {
		t.Helper()
		res, aerr := s.resolve(req)
		if aerr != nil {
			t.Fatal(aerr)
		}
		return res
	}

	t.Run("per-request fields share one identity", func(t *testing.T) {
		s := New(Options{DefaultWorkers: 3, DefaultTimeout: time.Minute})
		base := Request{Topology: "a100x16", Collective: "allreduce", Size: "64M", SketchHint: "family=tree"}
		plain := mustResolve(t, s, &base)
		variants := []Request{base, base, base, base}
		variants[0].TimeoutMS = 250
		variants[1].Workers = 7
		variants[2].IncludeSchedule = true
		variants[3].Stream = true
		keys := map[string]bool{plain.key: true}
		for i := range variants {
			res := mustResolve(t, s, &variants[i])
			if res.id != plain.id || res.planKey != plain.planKey || res.top != plain.top || res.col != plain.col {
				t.Fatalf("variant %d resolved to another identity", i)
			}
			if res.req != &variants[i] {
				t.Fatalf("variant %d lost its own request", i)
			}
			keys[res.key] = true
		}
		if n := s.memo.Len(); n != 1 {
			t.Fatalf("memo holds %d entries for one identity", n)
		}
		// The deadline splits flights; the rest coalesce.
		if len(keys) != 2 {
			t.Fatalf("%d distinct flight keys, want 2 (plain, timeout)", len(keys))
		}
		if res := mustResolve(t, s, &variants[0]); res.timeout != 250*time.Millisecond || plain.timeout != time.Minute {
			t.Fatalf("timeouts %v / %v", res.timeout, plain.timeout)
		}
		if res := mustResolve(t, s, &variants[1]); res.opts.Workers != 7 || plain.opts.Workers != 3 {
			t.Fatalf("workers %d / %d", res.opts.Workers, plain.opts.Workers)
		}
		// The memoized identity itself stays worker-less.
		if idn, _ := s.memo.Get(memoKey(&base)); idn.opts.Workers != 0 {
			t.Fatalf("a request's workers (%d) leaked into the memo", idn.opts.Workers)
		}
	})

	t.Run("identity fields split", func(t *testing.T) {
		s := New(Options{})
		base := Request{Topology: "dgx4", Collective: "allgather", Size: "1M"}
		ids := map[string]bool{mustResolve(t, s, &base).id: true}
		for _, mut := range []func(*Request){
			func(r *Request) { r.Topology = "server8" },
			func(r *Request) { r.Collective = "alltoall" },
			func(r *Request) { r.Size = "2M" },
			func(r *Request) { r.Seed = 9 },
			func(r *Request) { r.E1 = 2 },
			func(r *Request) { r.E2 = 0.25 },
			func(r *Request) { r.SketchHint = "family=tree" },
			func(r *Request) { r.StopWithinPct = 5 },
			func(r *Request) { r.TopologyDelta = "slow:0-4*4" },
		} {
			req := base
			mut(&req)
			ids[mustResolve(t, s, &req).id] = true
		}
		if len(ids) != 10 || s.memo.Len() != 10 {
			t.Fatalf("%d ids, %d memo entries, want 10 and 10", len(ids), s.memo.Len())
		}
		// Respellings are separate entries of one plan.
		upper := mustResolve(t, s, &Request{Topology: "A100x16", Collective: "AllGather", Size: "1m"})
		if lower := mustResolve(t, s, &Request{Topology: "a100x16", Collective: "allgather", Size: "1M"}); upper.id != lower.id || upper.key != lower.key {
			t.Fatalf("A100x16 and a100x16 resolve to %s and %s", upper.id, lower.id)
		}
	})

	t.Run("failures are not memoized", func(t *testing.T) {
		s, ts := newTestServer(t, Options{})
		for _, body := range []string{
			`{"topology":"tpu9000","collective":"allgather","size":"1M"}`,
			`{"topology":"dgx4","collective":"allgather","size":"-3"}`,
			`{"topology":"dgx4","collective":"nope","size":"1M"}`,
			`{"topology":"dgx4","collective":"allgather","size":"1M","sketch_hint":"dims=7"}`,
			`{"topology":"dgx4","collective":"allgather","size":"1M","topology_delta":"kill:0-4"}`,
		} {
			resp1, raw1 := postJSON(t, ts.URL, body)
			resp2, raw2 := postJSON(t, ts.URL, body)
			if resp1.StatusCode != http.StatusBadRequest || resp2.StatusCode != http.StatusBadRequest || !bytes.Equal(raw1, raw2) {
				t.Fatalf("%s: %d then %d\n%s\n%s", body, resp1.StatusCode, resp2.StatusCode, raw1, raw2)
			}
		}
		if n := s.memo.Len(); n != 0 {
			t.Fatalf("failed resolves left %d memo entries", n)
		}
	})

	t.Run("bounded", func(t *testing.T) {
		s := New(Options{StoreEntries: 8})
		for seed := int64(1); seed <= 8+10; seed++ {
			mustResolve(t, s, &Request{Topology: "dgx4", Collective: "allgather", Size: "1M", Seed: seed})
		}
		if n := s.memo.Len(); n > 8 {
			t.Fatalf("memo grew to %d entries past StoreEntries 8", n)
		}
		// A padded spelling still resolves, to the same plan, and is too
		// long to keep.
		before := s.memo.Len()
		padded := mustResolve(t, s, &Request{Topology: "dgx4", Collective: "allgather", Size: "1M" + strings.Repeat(" ", 2*maxMemoKey), Seed: 18})
		if want := mustResolve(t, s, &Request{Topology: "dgx4", Collective: "allgather", Size: "1M", Seed: 18}); padded.id != want.id {
			t.Fatal("a padded size resolved to another plan")
		}
		if s.memo.Len() != before {
			t.Fatal("an oversized identity was memoized")
		}
	})
}

// TestStoreHitAllocBudget: a hit's allocations depend on neither the
// fabric nor the schedule. Counted through ServeHTTP into a recorder,
// request and recorder construction included.
func TestStoreHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const budget = 64
	s := New(Options{})
	hitAllocs := func(body string) float64 {
		return testing.AllocsPerRun(200, func() {
			if rr := serveOnce(s, http.MethodPost, "/v1/synthesize", body); rr.Code != http.StatusOK {
				t.Fatalf("hit: %d", rr.Code)
			}
		})
	}
	const (
		smallBody = `{"topology":"dgx4","collective":"allgather","size":"1M"`
		bigBody   = `{"topology":"a100x32","collective":"allgather","size":"64M"`
	)
	smallTransfers := mustSolve(t, s, smallBody+"}").resp.Transfers
	bigTransfers := mustSolve(t, s, bigBody+"}").resp.Transfers
	if bigTransfers < 50*smallTransfers {
		t.Fatalf("%d vs %d transfers: the cases no longer differ in size", smallTransfers, bigTransfers)
	}
	small, big := hitAllocs(smallBody+"}"), hitAllocs(bigBody+"}")
	if big > small || small > budget {
		t.Errorf("plain hit: %.0f allocs on dgx4, %.0f on a100x32 (budget %d, a100x32 must not cost more)", small, big, budget)
	}
	smallSched, bigSched := hitAllocs(smallBody+`,"include_schedule":true}`), hitAllocs(bigBody+`,"include_schedule":true}`)
	if smallSched > budget || bigSched > budget {
		t.Errorf("include_schedule hit: %.0f allocs for %d transfers, %.0f for %d (budget %d)",
			smallSched, smallTransfers, bigSched, bigTransfers, budget)
	}
	t.Logf("allocs per hit: plain %.0f / %.0f, include_schedule %.0f / %.0f (dgx4 / a100x32)", small, big, smallSched, bigSched)
}

// TestSharedIdentityConcurrentPlans: requests that share a memoized
// identity but not a flight plan concurrently on one topology, collective
// and delta. Nothing may write to them (the -race shard is the proof) and
// every plan must come out the same.
func TestSharedIdentityConcurrentPlans(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	const n = 8
	type result struct {
		status int
		resp   SynthesizeResponse
	}
	run := func(path string, body func(i int) string) []result {
		out := make([]result, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, raw := postPath(t, ts.URL, path, body(i))
				out[i] = result{resp.StatusCode, decodeSynth(t, raw)}
			}(i)
		}
		wg.Wait()
		return out
	}
	same := func(what string, rs []result) {
		t.Helper()
		for i, r := range rs {
			if r.status != http.StatusOK || r.resp.ID != rs[0].resp.ID || r.resp.PredictedTimeS != rs[0].resp.PredictedTimeS || r.resp.Transfers != rs[0].resp.Transfers {
				t.Fatalf("%s %d: status %d, %+v vs %+v", what, i, r.status, r.resp, rs[0].resp)
			}
		}
	}

	// Distinct deadlines: distinct flights, one identity. The plans run
	// below the store, which would otherwise answer the later ones.
	plans := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, aerr := s.resolve(&Request{Topology: "a100x16", Collective: "allreduce", Size: "1M", TimeoutMS: int64(60000 + i)})
			if aerr != nil {
				t.Error(aerr)
				return
			}
			o := s.plan(context.Background(), res, nil, "", nil)
			plans[i] = result{o.status, o.resp}
		}(i)
	}
	wg.Wait()
	same("synthesize", plans)
	if got := s.memo.Len(); got != 1 {
		t.Fatalf("memo holds %d entries for one identity", got)
	}
	if plans := s.Engine().Stats().Plans; plans != n {
		t.Fatalf("%d engine plans for %d flights", plans, n)
	}
	// Replans never coalesce: n private flights on one base and delta.
	same("replan", run("/v1/replan", func(int) string {
		return `{"topology":"h800small","collective":"allgather","size":"1M","topology_delta":"slow:0-24*4"}`
	}))
	if got := s.memo.Len(); got != 2 {
		t.Fatalf("memo holds %d entries for two identities", got)
	}
}
