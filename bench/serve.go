package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"syccl/internal/core"
	"syccl/internal/engine"
	"syccl/internal/obs"
	"syccl/internal/persist"
	"syccl/internal/schedule"
	"syccl/internal/serve"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// daemon is one in-process syccl-serve: the real handler behind a real
// loopback listener, driven by one keep-alive client.
type daemon struct {
	srv   *serve.Server
	ts    *httptest.Server
	store *persist.Store // nil without a disk tier
	hc    *http.Client
	buf   bytes.Buffer // response body of the last request
}

// boot starts a daemon. With a directory it gets the disk tier the way
// syccl-serve -cache-dir wires it: one persist.Store shared by the engine
// (solve entries) and the schedule store (snapshot), restored before the
// listener comes up.
func boot(opts serve.Options, engOpts *engine.Options, dir string) (*daemon, error) {
	d := &daemon{}
	if dir != "" {
		st, err := persist.Open(persist.Options{Dir: dir})
		if err != nil {
			return nil, err
		}
		d.store, opts.Persist = st, st
	}
	if engOpts != nil {
		// serve.New builds its own engine only with engine defaults; a
		// non-default engine is wired as New would: shared recorder and
		// registry, the store as its disk tier.
		if opts.Obs == nil {
			opts.Obs = obs.NewRecorder()
			opts.Obs.SetRetention(serve.DefaultMaxSpans, serve.DefaultMaxSamples)
		}
		opts.Metrics = obs.NewRegistry()
		eo := *engOpts
		eo.Obs, eo.Metrics = opts.Obs, opts.Metrics
		if d.store != nil {
			eo.Persist = d.store
		}
		opts.Engine = engine.New(eo)
	}
	d.srv = serve.New(opts)
	d.ts = httptest.NewServer(d.srv)
	d.hc = d.ts.Client()
	return d, nil
}

// stop drains the daemon (final snapshot included) and closes its
// listener and idle connections.
func (d *daemon) stop() {
	d.srv.Drain(context.Background())
	d.ts.Close()
}

// post sends one request and reads the whole response. The returned
// bytes are valid until the next call. wall spans send to last byte.
func (d *daemon) post(path string, body []byte, op *obs.Span) (int, []byte, time.Duration, error) {
	sp := op.Child("bench.http")
	defer sp.End()
	start := time.Now()
	resp, err := d.hc.Post(d.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	d.buf.Reset()
	if _, err := d.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, d.buf.Bytes(), time.Since(start), nil
}

// stream sends a stream:true request and reads its NDJSON to the end.
// ttfi is the time to the first line — the first incumbent a client can
// act on; the terminal event's response is returned.
func (d *daemon) stream(path string, body []byte, op *obs.Span) (*serve.SynthesizeResponse, time.Duration, error) {
	sp := op.Child("bench.http")
	defer sp.End()
	start := time.Now()
	resp, err := d.hc.Post(d.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) // the status is the error; the body only explains it
		return nil, 0, fmt.Errorf("stream: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var ttfi time.Duration
	var final *serve.SynthesizeResponse
	last := 0.0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		if ttfi == 0 {
			ttfi = time.Since(start)
		}
		ev, err := serve.ParseStreamEvent(sc.Bytes())
		if err != nil {
			return nil, 0, err
		}
		switch ev.Event {
		case serve.StreamEventIncumbent:
			if last != 0 && ev.TimeS >= last {
				return nil, 0, fmt.Errorf("stream: incumbent %d does not improve (%g after %g)", ev.Seq, ev.TimeS, last)
			}
			last = ev.TimeS
		case serve.StreamEventFinal:
			final = ev.Response
		case serve.StreamEventError:
			return nil, 0, fmt.Errorf("stream: %v", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if final == nil {
		return nil, 0, fmt.Errorf("stream ended without a final event")
	}
	return final, ttfi, nil
}

// decodeResponse parses a synthesize/replan response body, refusing
// anything but a complete 200.
func decodeResponse(status int, body []byte) (*serve.SynthesizeResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	resp := &serve.SynthesizeResponse{}
	if err := json.Unmarshal(body, resp); err != nil {
		return nil, fmt.Errorf("response body: %w", err)
	}
	if resp.Partial {
		return nil, fmt.Errorf("response is partial")
	}
	return resp, nil
}

// responseDigest folds the fields a client acts on. It leaves the
// schedule out so that one request with and without include_schedule
// digests alike; serve_hit digests whole bodies instead.
func responseDigest(r *serve.SynthesizeResponse) uint64 {
	h := fnvOffset
	h.bytes([]byte(r.ID))
	h.float(r.PredictedTimeS)
	h.int(r.Transfers)
	h.int(r.SolverCalls)
	if r.Cached {
		h.int(1)
	}
	if r.Replan != nil {
		h.int(r.Replan.TouchedGroups)
		h.int(r.Replan.Invalidated)
		h.int(r.Replan.ReusedSubs)
		h.int(r.Replan.SolvedSubs)
	}
	return uint64(h)
}

// responseSchedule rebuilds the schedule a response carries.
func responseSchedule(r *serve.SynthesizeResponse) (*schedule.Schedule, error) {
	if r.Schedule == nil {
		return nil, fmt.Errorf("response carries no schedule to check")
	}
	s, err := r.Schedule.Schedule()
	if err != nil {
		return nil, err
	}
	if len(s.Transfers) != r.Transfers {
		return nil, fmt.Errorf("response says %d transfers, schedule has %d", r.Transfers, len(s.Transfers))
	}
	return s, nil
}

// serverCounters names the /statsz fields the ledger reports.
func serverCounters(st serve.StatsSnapshot) map[string]float64 {
	m := engineCounters(st.Engine)
	m["serve.store_hits"] = float64(st.Server.StoreHits)
	m["serve.store_evictions"] = float64(st.Server.StoreEvictions)
	m["serve.coalesced"] = float64(st.Server.Coalesced)
	m["serve.queue_rejections"] = float64(st.Server.QueueRejections)
	m["serve.partial"] = float64(st.Server.Partial)
	m["serve.restored"] = float64(st.Server.Restored)
	return m
}

// requestBody renders one request. Fields are written in a fixed order
// so the same script is the same bytes.
func requestBody(f *fixture, extra string) []byte {
	return []byte(fmt.Sprintf(`{"topology":%q,"collective":%q,"size":%q%s}`, f.topo, f.coll, f.size, extra))
}

// serveHitKeys are the four stored plans serve_hit reads: a 4-GPU and
// three larger ones whose schedules make 1 KB … 508 KB bodies.
var serveHitKeys = []string{
	"dgx4:allgather:1M",
	"a100x16:allgather:1M",
	"a100x16:allreduce:64M",
	"a100x32:allgather:64M",
}

// scheduleSuffix marks the include_schedule variant of a serve_hit case.
const scheduleSuffix = "+schedule"

// serveHit is the store-hit path: decode → PlanKey → store → JSON encode
// → net/http, never reaching the engine or a solver. The two body sizes
// per key separate per-request overhead from per-byte encode cost.
type serveHit struct {
	fx     []*fixture // one per case: each key twice
	names  []string
	bodies [][]byte
	d      *daemon
	// known memoizes the decoded response per case by body digest, so
	// the timed region decodes a body only when it changes.
	known []hitMemo
	// scheds keeps each case's oracle-checked schedule for the probes.
	scheds []*schedule.Schedule
}

type hitMemo struct {
	digest  uint64
	simTime float64
	resp    *serve.SynthesizeResponse
}

func (w *serveHit) name() string             { return "serve_hit" }
func (w *serveHit) caseNames() []string      { return w.names }
func (w *serveHit) ordered() bool            { return false }
func (w *serveHit) manySamples() bool        { return true }
func (w *serveHit) beginRound() error        { return nil }
func (w *serveHit) endRound() error          { return nil }
func (w *serveHit) fixtureOf(i int) *fixture { return w.fx[i] }

func (w *serveHit) setup(e *env) error {
	keys := serveHitKeys
	if e.smoke {
		keys = keys[:2]
	}
	fx, err := newFixtures(keys)
	if err != nil {
		return err
	}
	w.fx, w.names, w.bodies = nil, nil, nil
	for _, f := range fx {
		if err := f.baseline(); err != nil {
			return err
		}
		w.fx = append(w.fx, f, f)
		w.names = append(w.names, f.spec, f.spec+scheduleSuffix)
		w.bodies = append(w.bodies, requestBody(f, ""), requestBody(f, `,"include_schedule":true`))
	}
	w.known = make([]hitMemo, len(w.names))
	w.scheds = make([]*schedule.Schedule, len(w.names))
	if w.d, err = boot(serve.Options{Obs: e.rec}, nil, ""); err != nil {
		return err
	}
	// Prime: one cold solve per key; both body variants share its entry.
	for i := 0; i < len(w.bodies); i += 2 {
		status, body, _, err := w.d.post("/v1/synthesize", w.bodies[i], nil)
		if err != nil {
			return err
		}
		resp, err := decodeResponse(status, body)
		if err != nil {
			return fmt.Errorf("prime %s: %w", w.names[i], err)
		}
		if resp.Cached {
			return fmt.Errorf("prime %s: a fresh daemon answered cached:true", w.names[i])
		}
	}
	return nil
}

func (w *serveHit) run(i int, op *obs.Span) (sample, error) {
	status, body, wall, err := w.d.post("/v1/synthesize", w.bodies[i], op)
	if err != nil {
		return sample{}, err
	}
	// Hardware CRC: the largest body is 508 KB, and a byte-wise hash of it
	// would cost the client more than the request costs the server.
	sum := uint64(crc32.ChecksumIEEE(body))
	memo := &w.known[i]
	if memo.resp == nil || memo.digest != sum {
		resp, err := decodeResponse(status, body)
		if err != nil {
			return sample{}, err
		}
		if !resp.Cached {
			return sample{}, fmt.Errorf("primed key answered cached:false")
		}
		*memo = hitMemo{digest: sum, simTime: resp.PredictedTimeS, resp: resp}
	}
	return sample{wall: wall, simTime: memo.simTime, digest: memo.digest, bytes: len(body), class: hitClass(i)}, nil
}

func hitClass(i int) string {
	if i%2 == 0 {
		return "hit_small"
	}
	return "hit_sched"
}

// check replays the schedule behind case i: the one in the body, or for
// the small variant the stored one (GET /v1/schedule/{id}), which must
// carry the same predicted time.
func (w *serveHit) check(i int, s sample) error {
	resp := w.known[i].resp
	if resp.Schedule == nil {
		r, err := w.d.hc.Get(w.d.ts.URL + "/v1/schedule/" + resp.ID)
		if err != nil {
			return err
		}
		defer r.Body.Close()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return err
		}
		stored, err := decodeResponse(r.StatusCode, body)
		if err != nil {
			return err
		}
		if stored.PredictedTimeS != resp.PredictedTimeS || stored.Transfers != resp.Transfers {
			return fmt.Errorf("stored schedule disagrees with the response that names it")
		}
		resp = stored
	}
	sched, err := responseSchedule(resp)
	if err != nil {
		return err
	}
	w.scheds[i] = sched
	return verify.CheckSchedule(w.fx[i].col, sched)
}

func (w *serveHit) extras() map[string]float64 { return nil }

// probes: a store hit is keying, lookup and encoding. They run once per
// key — the with-schedule variant of each.
func (w *serveHit) probes(p *prober, _ string) error {
	var fx []*fixture
	var scheds []*schedule.Schedule
	for i := 1; i < len(w.fx); i += 2 {
		fx, scheds = append(fx, w.fx[i]), append(scheds, w.scheds[i])
	}
	corpus, err := captureCorpus(fx[:1])
	if err != nil {
		return err
	}
	probeKeys(p, fx, corpus)
	probeCommon(p, fx, scheds)
	return probeServe(p, fx, scheds)
}

func (w *serveHit) counters() map[string]float64 { return serverCounters(w.d.srv.Stats()) }

// audit: the timed region must never reach the engine — one plan per
// key, all in set-up.
func (w *serveHit) audit(rs *runStats) {
	if n := rs.delta("engine.plans"); n != 0 {
		rs.fail("serve_hit: %g engine plans during the timed region", n)
	}
	if total, want := rs.after["engine.plans"], float64(len(w.names)/2); total != want {
		rs.fail("serve_hit: %g engine plans in all, want %g (one per key)", total, want)
	}
}

func (w *serveHit) close() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}

// churnColdKeys are serve_churn's twelve distinct cold requests: small
// fabrics (the solver share stays small), three collectives, two sizes —
// more keys than the 8-entry store holds.
var churnColdKeys = []string{
	"dgx4:allgather:1M", "dgx4:alltoall:64M", "dgx4:allreduce:1M",
	"server8:allgather:64M", "server8:alltoall:1M", "server8:allreduce:64M",
	"h800x16:allgather:1M", "h800x16:alltoall:64M", "h800x16:allreduce:1M",
	"a100x16:allgather:64M", "a100x16:alltoall:1M", "a100x16:allreduce:64M",
}

// churnStreamKeys are the keys of the stream requests. The keys are
// fixed — the cases' costs must not depend on the seed, or runs on
// different seeds could not be compared — and the seed supplies the
// request seeds that make each a plan the daemon has never seen.
var churnStreamKeys = []string{
	"h800x16:allgather:1M", "a100x16:alltoall:1M", "server8:allreduce:64M", "a100x16:allgather:64M",
}

// churnCase is one position of serve_churn's script.
type churnCase struct {
	name  string
	class string // cold, rewarm, replan, stream, restored
	path  string
	// body is the timed request; warmBody is the same request with
	// include_schedule, sent in the warm-up round so the oracle can
	// replay the result.
	body, warmBody []byte
	fx             *fixture
	counts         bool // counts towards busbw / quality (cold positions)
	// ref is what a one-shot synthesis of a cold key yields; the daemon
	// must serve the same plan.
	refTime      float64
	refTransfers int
}

// serveChurn drives the same serve/engine/persist layers as serve_hit
// and plan_warm, but for writing, evicting and invalidating. Every
// round boots a fresh daemon on a fresh directory and replays one script.
type serveChurn struct {
	e      *env
	script []churnCase
	// restoreAt is the first position served by the second daemon.
	restoreAt int
	round     int
	dir       string
	d         *daemon
	cum       map[string]float64
	// bootRestore collects the second daemon's boot times.
	bootRestore []time.Duration
	// scheds keeps each position's oracle-checked schedule for the probes.
	scheds []*schedule.Schedule
}

func (w *serveChurn) name() string      { return "serve_churn" }
func (w *serveChurn) ordered() bool     { return true }
func (w *serveChurn) manySamples() bool { return false }

func (w *serveChurn) caseNames() []string {
	out := make([]string, len(w.script))
	for i, c := range w.script {
		out[i] = c.name
	}
	return out
}

func (w *serveChurn) fixtureOf(i int) *fixture {
	if w.script[i].counts {
		return w.script[i].fx
	}
	return nil
}

// churnStoreEntries is the schedule store bound: fewer than the cold
// keys, so the script evicts.
const churnStoreEntries = 8

// churnSolveEntries bounds the engine's sub-schedule cache below the
// script's working set, so memory-tier evictions and persist-tier loads
// both happen.
const churnSolveEntries = 64

func (w *serveChurn) setup(e *env) error {
	w.e, w.round = e, 0
	w.cum = map[string]float64{}
	w.bootRestore = nil
	script, restoreAt, err := churnScript(e.seed, e.smoke)
	if err != nil {
		return err
	}
	w.script, w.restoreAt = script, restoreAt
	w.scheds = make([]*schedule.Schedule, len(script))
	// The cold keys' references: what a one-shot synthesis of each
	// yields is what the daemon must serve, and the NCCL baselines the
	// quality ratio needs.
	for i := range w.script {
		c := &w.script[i]
		if !c.counts {
			continue
		}
		if err := c.fx.baseline(); err != nil {
			return err
		}
		ref, err := core.Synthesize(c.fx.top, c.fx.col, core.Options{})
		if err != nil {
			return fmt.Errorf("reference %s: %w", c.fx.spec, err)
		}
		c.refTime, c.refTransfers = ref.Time, len(ref.Schedule.Transfers)
	}
	return nil
}

// churnScript generates the script. The seed supplies the streams'
// request seeds — fresh plan identities at (measured) equal cost — and
// nothing that moves a case's cost, or runs on different seeds could not
// be compared. The same seed gives the same bytes.
func churnScript(seed int64, smoke bool) ([]churnCase, int, error) {
	rng := rand.New(rand.NewSource(seed))
	var script []churnCase
	add := func(class, path, spec, extra string, counts bool) error {
		f, err := newFixture(spec)
		if err != nil {
			return err
		}
		script = append(script, churnCase{
			name:     fmt.Sprintf("%02d.%s.%s", len(script), class, spec),
			class:    class,
			path:     path,
			body:     requestBody(f, extra),
			warmBody: requestBody(f, extra+`,"include_schedule":true`),
			fx:       f,
			counts:   counts,
		})
		return nil
	}
	cold := churnColdKeys
	rewarm, streams, restored := 6, len(churnStreamKeys), 6
	if smoke {
		cold, rewarm, streams, restored = cold[:2], 0, 1, 1
	}
	for _, k := range cold {
		if err := add("cold", "/v1/synthesize", k, "", true); err != nil {
			return nil, 0, err
		}
	}
	// The first keys again: the store evicted them, the engine has not.
	for _, k := range cold[:rewarm] {
		if err := add("rewarm", "/v1/synthesize", k, "", false); err != nil {
			return nil, 0, err
		}
	}
	// planned remembers a request whose plan the store holds at drain.
	type planned struct{ spec, extra string }
	// Replans: a slow link and a dead rail uplink on h800small (planned
	// here for the first time, so mostly solved), a slow NVLink and a
	// slow NIC uplink on a100x16 (planned above, so mostly reused).
	var degraded []planned
	if !smoke {
		for _, r := range []struct{ spec, first, second string }{
			{"h800small:allgather:1M", "slow-nvlink", "kill-uplink"},
			{"a100x16:allgather:64M", "slow-nvlink", "slow-uplink"},
		} {
			f, err := newFixture(r.spec)
			if err != nil {
				return nil, 0, err
			}
			// Fixed GPUs: which GPU a fault hits moves the replan's cost
			// (allocs/op by 4 % between GPUs), so the seed must not pick it.
			// The second fault lands half the fabric and one slot further:
			// another server and another rail.
			n := f.top.NumGPUs()
			for k, kind := range []string{r.first, r.second} {
				delta, err := linkDelta(f.top, kind, (n/3+k*(n/2+1))%n)
				if err != nil {
					return nil, 0, err
				}
				p := planned{r.spec, fmt.Sprintf(`,"topology_delta":%q`, delta)}
				degraded = append(degraded, p)
				if err := add("replan", "/v1/replan", p.spec, p.extra, false); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	// Streams: fresh request seeds make them distinct plans, so each is a
	// cold solve whose first incumbent is timed.
	var streamed []planned
	for _, key := range churnStreamKeys[:streams] {
		p := planned{key, fmt.Sprintf(`,"seed":%d`, 1+rng.Int63n(1<<30))}
		streamed = append(streamed, p)
		if err := add("stream", "/v1/synthesize", p.spec, p.extra+`,"stream":true`, false); err != nil {
			return nil, 0, err
		}
	}
	restoreAt := len(script)
	// After the reboot: the streamed plans as plain requests, then the
	// degraded ones, newest first — among the eight entries the store
	// held at drain.
	for k := len(degraded) - 1; k >= 0; k-- {
		streamed = append(streamed, degraded[k])
	}
	for _, p := range streamed[:min(restored, len(streamed))] {
		if err := add("restored", "/v1/synthesize", p.spec, p.extra, false); err != nil {
			return nil, 0, err
		}
	}
	return script, restoreAt, nil
}

// linkDelta writes a topology delta against one GPU's links.
func linkDelta(top *topology.Topology, kind string, gpu int) (string, error) {
	// neighbour finds the first node of a kind that `from` links to.
	neighbour := func(from int, kind topology.NodeKind) int {
		for _, l := range top.Links {
			if l.Src == from && top.Nodes[l.Dst].Kind == kind {
				return l.Dst
			}
		}
		return -1
	}
	switch kind {
	case "slow-nvlink":
		if sw := neighbour(gpu, topology.KindNVSwitch); sw >= 0 {
			return fmt.Sprintf("slow:%d-%d*4", gpu, sw), nil
		}
	case "slow-uplink", "kill-uplink":
		nic := neighbour(gpu, topology.KindNIC)
		if nic < 0 {
			break
		}
		if leaf := neighbour(nic, topology.KindLeafSwitch); leaf >= 0 {
			if kind == "kill-uplink" {
				return fmt.Sprintf("kill:%d-%d", nic, leaf), nil
			}
			return fmt.Sprintf("slow:%d-%d*4", nic, leaf), nil
		}
	}
	return "", fmt.Errorf("%s: no %s link at GPU %d", top.Name, kind, gpu)
}

func (w *serveChurn) bootDaemon() (*daemon, error) {
	return boot(serve.Options{StoreEntries: churnStoreEntries, Obs: w.e.rec},
		&engine.Options{SolveCacheEntries: churnSolveEntries}, w.dir)
}

func (w *serveChurn) beginRound() error {
	var err error
	if w.dir, err = os.MkdirTemp(w.e.tmp, "churn-"); err != nil {
		return err
	}
	w.d, err = w.bootDaemon()
	return err
}

// retire stops the current daemon and folds its counters into the
// workload's cumulative ones.
func (w *serveChurn) retire() {
	if w.d == nil {
		return
	}
	w.d.stop()
	for k, v := range serverCounters(w.d.srv.Stats()) {
		w.cum[k] += v
	}
	if st := w.d.store; st != nil {
		ps := st.Stats()
		w.cum["persist.stores"] += float64(ps.Stores)
		w.cum["persist.loads"] += float64(ps.Loads)
		// Corpus size is a level, not a flow: keep the last reading.
		w.cum["persist.entries"] = float64(ps.Entries)
		w.cum["persist.bytes"] = float64(ps.Bytes)
	}
	w.d = nil
}

func (w *serveChurn) endRound() error {
	var err error
	if w.d != nil && w.restoreAt < len(w.script) {
		if st := w.d.srv.Stats(); st.Engine.Plans != 0 {
			err = fmt.Errorf("restored daemon planned %d times; its requests must all be store hits", st.Engine.Plans)
		} else if st.Server.Restored == 0 {
			err = fmt.Errorf("rebooted daemon restored nothing from the snapshot")
		}
	}
	w.retire()
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
	w.round++
	return err
}

func (w *serveChurn) run(i int, op *obs.Span) (sample, error) {
	c := &w.script[i]
	if i == w.restoreAt {
		// Drain (final snapshot) and reboot on the same directory:
		// persist.Open rescans the corpus, serve.New restores the store
		// and re-verifies each entry before the listener comes up.
		w.retire()
		start := time.Now()
		d, err := w.bootDaemon()
		if err != nil {
			return sample{}, fmt.Errorf("reboot: %w", err)
		}
		if w.round > 0 {
			w.bootRestore = append(w.bootRestore, time.Since(start))
		}
		w.d = d
	}
	body := c.body
	if w.round == 0 {
		body = c.warmBody
	}
	var resp *serve.SynthesizeResponse
	var wall time.Duration
	var n int
	if c.class == "stream" {
		var err error
		if resp, wall, err = w.d.stream(c.path, body, op); err != nil {
			return sample{}, err
		}
		if resp.Partial {
			return sample{}, fmt.Errorf("stream ended partial")
		}
	} else {
		status, raw, d, err := w.d.post(c.path, body, op)
		if err != nil {
			return sample{}, err
		}
		if resp, err = decodeResponse(status, raw); err != nil {
			return sample{}, err
		}
		wall, n = d, len(raw)
	}
	switch c.class {
	case "cold", "rewarm", "stream":
		if resp.Cached {
			return sample{}, fmt.Errorf("%s request answered cached:true", c.class)
		}
		if c.counts && (resp.PredictedTimeS != c.refTime || resp.Transfers != c.refTransfers) {
			return sample{}, fmt.Errorf("served plan (%g s, %d transfers) differs from one-shot synthesis (%g s, %d)",
				resp.PredictedTimeS, resp.Transfers, c.refTime, c.refTransfers)
		}
	case "restored":
		if !resp.Cached {
			return sample{}, fmt.Errorf("restored request answered cached:false")
		}
	case "replan":
		if resp.Replan == nil {
			return sample{}, fmt.Errorf("replan response without a replan block")
		}
		if r := resp.Replan.ReuseRatio; r < 0 || r > 1 {
			return sample{}, fmt.Errorf("replan reuse_ratio %g outside [0,1]", r)
		}
		w.cum["serve.replan_reused_subs"] += float64(resp.Replan.ReusedSubs)
		w.cum["serve.replan_total_subs"] += float64(resp.Replan.ReusedSubs + resp.Replan.SolvedSubs)
	}
	s := sample{wall: wall, simTime: resp.PredictedTimeS, digest: responseDigest(resp), bytes: n, class: c.class}
	if w.round == 0 {
		// Carry the schedule to check(); timed rounds never ask for it.
		sched, err := responseSchedule(resp)
		if err != nil {
			return sample{}, err
		}
		s.sched = sched
	}
	return s, nil
}

func (w *serveChurn) check(i int, s sample) error {
	if s.sched == nil {
		return fmt.Errorf("first result carries no schedule to check")
	}
	w.scheds[i] = s.sched
	return verify.CheckSchedule(w.script[i].fx.col, s.sched)
}

func (w *serveChurn) extras() map[string]float64 {
	return map[string]float64{"serve.boot_restore_ms": ms(bestOf(w.bootRestore))}
}

// probes: the write side adds the disk tier to what serve_hit probes.
// They run on the cold positions — one fixture and schedule per key.
func (w *serveChurn) probes(p *prober, tmp string) error {
	var fx []*fixture
	var scheds []*schedule.Schedule
	for i, c := range w.script {
		if c.counts {
			fx, scheds = append(fx, c.fx), append(scheds, w.scheds[i])
		}
	}
	corpus, err := captureCorpus(fx)
	if err != nil {
		return err
	}
	probeKeys(p, fx, corpus)
	probeCommon(p, fx, scheds)
	if err := probePersist(p, tmp, corpus); err != nil {
		return err
	}
	return probeServe(p, fx, scheds)
}

func (w *serveChurn) counters() map[string]float64 {
	out := make(map[string]float64, len(w.cum))
	for k, v := range w.cum {
		out[k] = v
	}
	return out
}

// audit: the script exists to make these layers write, evict,
// invalidate and restore; a round where one of them idled measured
// something else.
func (w *serveChurn) audit(rs *runStats) {
	if w.e.smoke {
		return
	}
	for _, name := range []string{"serve.store_evictions", "engine.replan_invalidated", "persist.stores", "serve.restored"} {
		if rs.delta(name) <= 0 {
			rs.fail("serve_churn: %s did not move", name)
		}
	}
}

func (w *serveChurn) close() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
