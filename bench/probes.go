package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"syccl/internal/core"
	"syccl/internal/engine"
	"syccl/internal/isomorph"
	"syccl/internal/nccl"
	"syccl/internal/obs"
	"syccl/internal/persist"
	"syccl/internal/schedule"
	"syccl/internal/serve"
	"syccl/internal/sim"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/verify"
)

// Direct probes (source ③ in README.md): the benchmark calls a layer's
// public function itself, best-of-N, on inputs captured from the
// workload. Nothing in the program is instrumented for them.

// captured is one solved sub-demand as core handed it to its SolveCache.
type captured struct {
	d   *solve.Demand
	sig string
	sub *solve.SubSchedule
	key string // isomorph.ExactKey(d) + "|" + sig, the sort key
}

// capture is a pass-through core.SolveCache that always misses and keeps
// what Store receives, which yields the real sub-demands of a synthesis,
// with the solutions the program found, without touching the program.
type capture struct {
	mu     sync.Mutex
	solved []captured
}

func (*capture) Lookup(*solve.Demand, string) *solve.SubSchedule { return nil }

func (c *capture) Store(d *solve.Demand, sig string, s *solve.SubSchedule) {
	// The cache contract forbids retaining the caller's arguments.
	dc := &solve.Demand{NumGPUs: d.NumGPUs, Alpha: d.Alpha, Beta: d.Beta, Pieces: make([]solve.Piece, len(d.Pieces))}
	for i, p := range d.Pieces {
		dc.Pieces[i] = solve.Piece{ID: p.ID, Bytes: p.Bytes, Srcs: append([]int(nil), p.Srcs...), Dsts: append([]int(nil), p.Dsts...)}
	}
	sc := *s
	sc.Transfers = append([]solve.Transfer(nil), s.Transfers...)
	c.mu.Lock()
	c.solved = append(c.solved, captured{d: dc, sig: sig, sub: &sc, key: isomorph.ExactKey(dc) + "|" + sig})
	c.mu.Unlock()
}

// captureCorpus synthesizes the fixtures once with the capturing cache
// and returns the distinct solved sub-demands in a deterministic order
// (the Store calls come from worker goroutines).
func captureCorpus(fx []*fixture) ([]captured, error) {
	c := &capture{}
	for _, f := range fx {
		if _, err := core.Synthesize(f.top, f.col, core.Options{SolveCache: c}); err != nil {
			return nil, fmt.Errorf("capture %s: %w", f.spec, err)
		}
	}
	sort.Slice(c.solved, func(i, j int) bool { return c.solved[i].key < c.solved[j].key })
	out := c.solved[:0]
	for i, s := range c.solved {
		if i == 0 || s.key != c.solved[i-1].key {
			out = append(out, s)
		}
	}
	return out, nil
}

// sigKnobs recovers the accuracy knob E and the requested engine from a
// solve signature ("e0.5|g0|…"): the coarse pass asks for greedy, the
// fine pass for auto.
func sigKnobs(sig string) (e float64, eng solve.Engine) {
	var g int
	if _, err := fmt.Sscanf(sig, "e%g|g%d|", &e, &g); err != nil {
		return 0, solve.EngineAuto // solve.Options treats E=0 as its default
	}
	return e, solve.Engine(g)
}

// largestFabric returns the fixture with the most GPUs (the first of
// equals).
func largestFabric(fx []*fixture) *fixture {
	big := fx[0]
	for _, f := range fx {
		if f.top.NumGPUs() > big.top.NumGPUs() {
			big = f
		}
	}
	return big
}

// prober times probes within a budget and collects their metrics.
type prober struct {
	slice time.Duration // time each probe may repeat for
	out   map[string]float64
}

// best calls fn at least once, and again until the probe's slice is used
// up, and returns the fastest call.
func (p *prober) best(fn func()) time.Duration {
	return p.bestWithin(p.slice, fn)
}

func (p *prober) bestWithin(slice time.Duration, fn func()) time.Duration {
	var best time.Duration
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < slice; n++ {
		t := time.Now()
		fn()
		if d := time.Since(t); n == 0 || d < best {
			best = d
		}
	}
	return best
}

// probeSolvers times the solver stack on the captured sub-demands:
// sketch search on the largest fabric, then each engine on the demands
// the workload really gave it — greedy on the coarse pass's, exact and
// the flow time bound on the fine pass's, the flow backend on those the
// fine pass handed to it — each summed over the distinct demands. One
// more exact pass under a recorder counts the pivots and nodes it spends.
func probeSolvers(p *prober, fx []*fixture, corpus []captured) {
	big := largestFabric(fx)
	ctx := context.Background()
	p.out["sketch.search_broadcast_us"] = us(p.best(func() { sketch.SearchBroadcast(ctx, big.top, 0, sketch.SearchOptions{}) }))
	p.out["sketch.search_scatter_us"] = us(p.best(func() { sketch.SearchScatter(ctx, big.top, 0, sketch.SearchOptions{}) }))

	var coarse, fine, flow []*captured
	for i := range corpus {
		c := &corpus[i]
		switch _, eng := sigKnobs(c.sig); {
		case eng == solve.EngineGreedy:
			coarse = append(coarse, c)
		case strings.Contains(c.sub.Engine, "flow"):
			flow = append(flow, c)
			fine = append(fine, c)
		default:
			fine = append(fine, c)
		}
	}
	// sum adds up the best time of fn over the demands, sharing one slice.
	sum := func(cs []*captured, fn func(c *captured)) time.Duration {
		var total time.Duration
		for _, c := range cs {
			total += p.bestWithin(p.slice/time.Duration(len(cs)), func() { fn(c) })
		}
		return total
	}
	solveWith := func(eng solve.Engine, span *obs.Span) func(c *captured) {
		return func(c *captured) {
			e, _ := sigKnobs(c.sig)
			// The exact engine refuses demands over its size gate at once;
			// they add nothing to the sum, as in the program.
			_, _ = solve.SolveCtx(ctx, c.d, solve.Options{E: e, Engine: eng, Span: span})
		}
	}
	p.out["solve.greedy_us"] = us(sum(coarse, solveWith(solve.EngineGreedy, nil)))
	p.out["solve.flow_us"] = us(sum(flow, solveWith(solve.EngineFlow, nil)))
	p.out["solve.flow_bound_us"] = us(sum(fine, func(c *captured) { _, _, _ = solve.FlowTimeBound(ctx, c.d) }))
	exact := sum(fine, solveWith(solve.EngineExact, nil))
	p.out["solve.exact_us"] = us(exact)

	rec := obs.NewRecorder()
	sp := rec.StartSpan("bench.probe")
	solved := 0
	for _, c := range fine {
		e, _ := sigKnobs(c.sig)
		if _, err := solve.SolveCtx(ctx, c.d, solve.Options{E: e, Engine: solve.EngineExact, Span: sp}); err == nil {
			solved++
		}
	}
	sp.End()
	if pivots := rec.CounterValue("lp.pivots"); solved > 0 && pivots > 0 {
		p.out["lp.pivots_per_exact_solve"] = pivots / float64(solved)
		p.out["milp.nodes_per_exact_solve"] = rec.CounterValue("milp.nodes") / float64(solved)
		p.out["lp.us_per_pivot"] = us(exact) / pivots
	}
}

// probeSim times the simulator on every case's winning schedule.
func probeSim(p *prober, fx []*fixture, scheds []*schedule.Schedule) {
	var total time.Duration
	events := 0
	for i, f := range fx {
		if scheds[i] == nil {
			continue
		}
		var r *sim.Result
		total += p.best(func() { r, _ = sim.Simulate(f.top, scheds[i], sim.DefaultOptions()) })
		if r != nil {
			events += r.Events
		}
	}
	p.out["sim.simulate_us"] = us(total)
	if events > 0 {
		p.out["sim.ns_per_event"] = float64(total.Nanoseconds()) / float64(events)
	}
}

// probeKeys times the keying every cache lookup pays.
func probeKeys(p *prober, fx []*fixture, corpus []captured) {
	var exact, iso, mapping time.Duration
	n := min(len(corpus), 16)
	for i := 0; i < n; i++ {
		c := &corpus[i]
		exact += p.best(func() { isomorph.ExactKey(c.d) })
		iso += p.best(func() { isomorph.Key(c.d) })
		// Map onto an isomorphic but distinct demand where the corpus
		// has one, else onto itself.
		other := c.d
		for j := range corpus {
			if j != i && isomorph.Key(corpus[j].d) == isomorph.Key(c.d) {
				other = corpus[j].d
				break
			}
		}
		mapping += p.best(func() { isomorph.FindMapping(c.d, other) })
	}
	if n > 0 {
		p.out["isomorph.exact_key_us"] = us(exact) / float64(n)
		p.out["isomorph.key_us"] = us(iso) / float64(n)
		p.out["isomorph.find_mapping_us"] = us(mapping) / float64(n)
	}
	big := largestFabric(fx)
	p.out["topology.fingerprint_us"] = us(p.best(func() { big.top.Fingerprint() }))
	p.out["engine.plan_key_us"] = us(p.best(func() { engine.PlanKey(big.top, big.col, core.Options{E1: 3, E2: 0.5}) }))
}

// probePersist times the disk tier on the captured corpus, best of three
// fresh directories: write every entry, reopen (the index is rebuilt by
// scanning), load every entry, invalidate one demand shape.
func probePersist(p *prober, tmp string, corpus []captured) error {
	if len(corpus) == 0 {
		return nil
	}
	var best [4]time.Duration // put, open, load, invalidate
	for rep := 0; rep < 3; rep++ {
		ds, err := persistOnce(tmp, corpus)
		if err != nil {
			return err
		}
		for k, d := range ds {
			if rep == 0 || d < best[k] {
				best[k] = d
			}
		}
	}
	n := float64(len(corpus))
	p.out["persist.put_us"] = us(best[0]) / n
	p.out["persist.open_us"] = us(best[1])
	p.out["persist.load_us"] = us(best[2]) / n
	p.out["persist.invalidate_us"] = us(best[3])
	return nil
}

func persistOnce(tmp string, corpus []captured) (ds [4]time.Duration, err error) {
	dir, err := os.MkdirTemp(tmp, "probe-persist-")
	if err != nil {
		return ds, err
	}
	defer os.RemoveAll(dir)
	st, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		return ds, err
	}
	t := time.Now()
	for _, c := range corpus {
		if err := st.Put(c.d, c.sig, c.sub); err != nil {
			return ds, err
		}
	}
	ds[0] = time.Since(t)
	t = time.Now()
	if st, err = persist.Open(persist.Options{Dir: dir}); err != nil {
		return ds, err
	}
	ds[1] = time.Since(t)
	t = time.Now()
	for _, c := range corpus {
		if st.Load(c.d, c.sig) == nil {
			return ds, fmt.Errorf("persist probe: stored entry did not load")
		}
	}
	ds[2] = time.Since(t)
	// The shape prefix of the first entry's key: "n<gpus>;a<α>;b<β>;" —
	// what a replan invalidates when a delta retires a group shape.
	prefix := strings.Join(strings.SplitN(isomorph.ExactKey(corpus[0].d), ";", 4)[:3], ";") + ";"
	t = time.Now()
	if st.InvalidateMatching([]string{prefix}) == 0 {
		return ds, fmt.Errorf("persist probe: prefix %q invalidated nothing", prefix)
	}
	ds[3] = time.Since(t)
	return ds, nil
}

// probeServe times the request path without TCP: strict decode, the
// whole handler on a store hit into a ResponseRecorder (op_ms minus this
// is the net/http share), and the wire conversion of the largest
// schedule.
func probeServe(p *prober, fx []*fixture, scheds []*schedule.Schedule) error {
	f := fx[0]
	body := requestBody(f, "")
	p.out["serve.decode_us"] = us(p.best(func() { _, _ = serve.DecodeRequest(bytes.NewReader(body), 0) }))

	srv := serve.New(serve.Options{})
	defer srv.Drain(context.Background())
	hit := func() int {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body)))
		return rr.Code
	}
	if code := hit(); code != http.StatusOK {
		return fmt.Errorf("serve probe: priming request got HTTP %d", code)
	}
	p.out["serve.handler_hit_us"] = us(p.best(func() { hit() }))

	var largest *schedule.Schedule
	for _, s := range scheds {
		if s != nil && (largest == nil || len(s.Transfers) > len(largest.Transfers)) {
			largest = s
		}
	}
	if largest != nil {
		p.out["serve.to_schedule_json_us"] = us(p.best(func() { serve.ToScheduleJSON(largest) }))
	}
	return nil
}

// probeCommon times the two things every workload's set-up and warm-up
// pay outside the timed region: the oracle and the NCCL baselines.
func probeCommon(p *prober, fx []*fixture, scheds []*schedule.Schedule) {
	var oracle, base time.Duration
	for i, f := range fx {
		if scheds[i] != nil {
			oracle += p.best(func() { _ = verify.CheckSchedule(f.col, scheds[i]) })
		}
		base += p.best(func() { _, _, _ = nccl.Schedule(f.top, f.col, sim.DefaultOptions()) })
	}
	p.out["verify.oracle_us"] = us(oracle)
	p.out["nccl.schedule_us"] = us(base)
}
