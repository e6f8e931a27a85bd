package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"syccl/internal/cli"
	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/sketch"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// quickOpts keeps the pipeline deterministic and fast for tests.
func quickOpts() core.Options {
	return core.Options{Workers: 1}
}

// TestWarmPlanBitIdentical is the cache-correctness contract of the full
// pass: a second, identical Plan on the same engine — its winner recipe
// dropped, so every candidate is re-assembled — must be served from the
// caches (hits > 0, zero solver calls) and return a bit-identical
// schedule. TestRecipeReplaySkipsTheSearch is the recipe-path twin.
func TestWarmPlanBitIdentical(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	eng := New(Options{})

	cold, err := eng.Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	coldStats := eng.Stats()
	if coldStats.SolveHits != 0 {
		t.Fatalf("cold plan reported %d cache hits", coldStats.SolveHits)
	}

	dropRecipes(eng)
	warm, err := eng.Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Plans != 2 {
		t.Fatalf("Plans = %d, want 2", st.Plans)
	}
	if st.SolveHits == 0 || st.ExactHits == 0 {
		t.Fatalf("warm plan hit nothing: %+v", st)
	}
	if st.SketchHits == 0 {
		t.Fatalf("warm plan re-ran the sketch search: %+v", st)
	}
	if warm.Stats.SolverCalls != 0 {
		t.Fatalf("warm plan executed %d solver calls", warm.Stats.SolverCalls)
	}
	if warm.Time != cold.Time {
		t.Fatalf("warm time %v != cold time %v", warm.Time, cold.Time)
	}
	if !reflect.DeepEqual(warm.Schedule, cold.Schedule) {
		t.Fatal("warm schedule differs from cold schedule")
	}
	if err := verify.CheckSchedule(col, warm.Schedule); err != nil {
		t.Fatalf("warm schedule invalid: %v", err)
	}
}

// historyRequest is one request of the TestPlanAnswerIndependentOfHistory
// sequence.
type historyRequest struct {
	name string
	top  *topology.Topology
	col  *collective.Collective
}

// fabric is a named topology of the request history.
type fabric struct {
	name string
	top  *topology.Topology
}

// historyRequests is, per fabric and at a latency-bound and a
// bandwidth-bound size, Broadcast, Scatter and Reduce from roots 0, 1 and
// 2, then AllGather, AllReduce and AlltoAll — 24 requests a fabric. Sizes
// are aggregates, as in internal/cli. On the GPU-transitive fabrics the
// rooted requests are relabelings of one another, which is what a
// cross-request isomorphism fallback would serve from the earlier roots.
func historyRequests(fabrics ...fabric) []historyRequest {
	var out []historyRequest
	for _, f := range fabrics {
		n := f.top.NumGPUs()
		for _, size := range []float64{1 << 20, 64 << 20} {
			add := func(what string, col *collective.Collective) {
				out = append(out, historyRequest{fmt.Sprintf("%s:%s:%gM", f.name, what, size/(1<<20)), f.top, col})
			}
			for root := 0; root < 3; root++ {
				add(fmt.Sprintf("broadcast/%d", root), collective.Broadcast(n, root, size))
				add(fmt.Sprintf("scatter/%d", root), collective.Scatter(n, root, size/float64(n-1)))
				add(fmt.Sprintf("reduce/%d", root), collective.Reduce(n, root, size))
			}
			add("allgather", collective.AllGather(n, size/float64(n)))
			add("allreduce", collective.AllReduce(n, size))
			add("alltoall", collective.AlltoAll(n, size/float64(n*(n-1))))
		}
	}
	return out
}

// planLikeCold plans the requests in a row on eng under opts and holds
// every answer — schedule bytes and the bits of the predicted time — to a
// cold core.Synthesize of the same request.
func planLikeCold(t *testing.T, eng *Engine, history []historyRequest, opts core.Options, what string) {
	t.Helper()
	for _, r := range history {
		got, err := eng.Plan(context.Background(), r.top, r.col, opts)
		if err != nil {
			t.Fatalf("%s%s: %v", r.name, what, err)
		}
		want, err := core.Synthesize(r.top, r.col, opts)
		if err != nil {
			t.Fatalf("%s%s: cold: %v", r.name, what, err)
		}
		if math.Float64bits(got.Time) != math.Float64bits(want.Time) {
			t.Errorf("%s%s: planned time %v, cold %v", r.name, what, got.Time, want.Time)
		} else if !reflect.DeepEqual(got.Schedule, want.Schedule) {
			t.Errorf("%s%s: planned schedule differs from the cold one", r.name, what)
		}
	}
}

// TestPlanAnswerIndependentOfHistory plans a 96-request history in a row
// on one engine and holds every answer to a cold core.Synthesize of the
// same request: a cached plan is the cold plan, whatever the engine
// planned before. Then it plans the history twice more, under a tree and
// a flat sketch hint, on the same engine. On a100x16 the rooted requests
// share isomorphism classes whose representatives differ from request to
// request, so a solve cache that held a class member's mapped solution
// under the member's own key would answer some of them differently.
func TestPlanAnswerIndependentOfHistory(t *testing.T) {
	history := historyRequests(
		fabric{"dgx4", topology.SingleServer(4)},
		fabric{"server8", topology.SingleServer(8)},
		fabric{"h800small", topology.H800Small(6)},
		fabric{"a100x16", topology.A100Clos(2)},
	)
	eng := New(Options{})
	planLikeCold(t, eng, history, quickOpts(), "")
	if st := eng.Stats(); st.SolveHits == 0 || st.IsoHits != 0 {
		t.Fatalf("the history served %d sub-schedules from cache (%d through a mapping), want some and none: %+v",
			st.SolveHits, st.IsoHits, st)
	}

	// The same history again, hinted, on the same engine: a hint narrows
	// the sketch search but not the sub-demand solver, so hinted plans
	// replay what the unhinted ones solved, and must still be cold plans.
	for _, hint := range []*sketch.Hint{{Family: sketch.FamilyTree}, {Family: sketch.FamilyFlat}} {
		hinted := quickOpts()
		hinted.Search.Hint = hint
		before := eng.Stats().SolveHits
		planLikeCold(t, eng, history, hinted, " ["+hint.Canonical()+"]")
		if eng.Stats().SolveHits == before {
			t.Errorf("the %s-hinted history served nothing from cache", hint.Canonical())
		}
	}
}

// TestPlanAnswerIndependentOfRandomHistory is the history test on
// randomized fabrics, in a seeded random order: per fabric and at 1 MiB
// and 64 MiB, the nine collectives plus Broadcast, Scatter, Reduce and
// Gather from a random root, shuffled together and planned in a row on
// one engine, each held to a cold synthesis.
func TestPlanAnswerIndependentOfRandomHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var history []historyRequest
	for f := 0; f < 3; f++ {
		top := verify.RandomTopology(rng)
		n := top.NumGPUs()
		for _, size := range []float64{1 << 20, 64 << 20} {
			add := func(what string, col *collective.Collective) {
				history = append(history, historyRequest{fmt.Sprintf("%s#%d:%s:%gM", top.Name, f, what, size/(1<<20)), top, col})
			}
			for _, kind := range nineCollectives {
				col, err := cli.BuildCollective(kind, n, size)
				if err != nil {
					t.Fatal(err)
				}
				add(kind, col)
			}
			root := 1 + rng.Intn(n-1)
			add(fmt.Sprintf("broadcast/%d", root), collective.Broadcast(n, root, size))
			add(fmt.Sprintf("scatter/%d", root), collective.Scatter(n, root, size/float64(n-1)))
			add(fmt.Sprintf("reduce/%d", root), collective.Reduce(n, root, size))
			add(fmt.Sprintf("gather/%d", root), collective.Gather(n, root, size/float64(n-1)))
		}
	}
	rng.Shuffle(len(history), func(i, j int) { history[i], history[j] = history[j], history[i] })
	eng := New(Options{})
	planLikeCold(t, eng, history, quickOpts(), "")
	if eng.Stats().SolveHits == 0 {
		t.Fatal("the history served nothing from cache")
	}
}

// TestPlanCancelledBeforeStart: a context cancelled before Plan begins
// must fail fast with ctx.Err and count as cancelled.
func TestPlanCancelledBeforeStart(t *testing.T) {
	top := topology.SingleServer(4)
	col := collective.AllGather(top.NumGPUs(), 1<<16)
	eng := New(Options{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := eng.Plan(ctx, top, col, quickOpts())
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled plan returned a result: %+v", res)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled plan took %v", d)
	}
	if st := eng.Stats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}
}

// countdownCtx reports Canceled after its Err budget is spent. It makes
// mid-pipeline cancellation deterministic: with Workers=1 the pipeline
// polls Err in a fixed order, so each budget lands the cancellation at a
// reproducible point (mid-search, mid-coarse, or mid-fine depending on
// the budget).
type countdownCtx struct {
	context.Context
	mu        sync.Mutex
	remaining int
	done      chan struct{}
}

func newCountdownCtx(budget int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), remaining: budget, done: make(chan struct{})}
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

// TestPlanAnytimeInvariant sweeps the cancellation point across the
// pipeline (budget 0 cancels at entry; large budgets cancel mid-search,
// mid-coarse, mid-fine, or never) and checks the anytime contract at
// every point: either ctx.Err with no result, or a complete schedule that
// passes the oracle — flagged Partial whenever the run was cut short.
func TestPlanAnytimeInvariant(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)

	full, err := New(Options{}).Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatal("uncancelled plan flagged Partial")
	}

	sawPartial := false
	for _, budget := range []int{0, 1, 5, 20, 100, 500, 2000, 10000, 1 << 30} {
		eng := New(Options{})
		ctx := newCountdownCtx(budget)
		res, err := eng.Plan(ctx, top, col, quickOpts())
		switch {
		case err != nil:
			if err != context.Canceled {
				t.Fatalf("budget %d: err = %v, want context.Canceled", budget, err)
			}
			if res != nil {
				t.Fatalf("budget %d: error with non-nil result", budget)
			}
		case res.Partial:
			sawPartial = true
			if err := verify.CheckSchedule(col, res.Schedule); err != nil {
				t.Fatalf("budget %d: partial schedule invalid: %v", budget, err)
			}
			if res.Time <= 0 {
				t.Fatalf("budget %d: partial result missing a simulated time", budget)
			}
		default:
			if err := verify.CheckSchedule(col, res.Schedule); err != nil {
				t.Fatalf("budget %d: schedule invalid: %v", budget, err)
			}
			if res.Time != full.Time {
				t.Fatalf("budget %d: complete run diverged: time %v != %v", budget, res.Time, full.Time)
			}
		}
	}
	if !sawPartial {
		t.Log("no budget produced a Partial result (pipeline may have shifted); anytime path untested by this sweep")
	}
}

// TestCancelledPlanDoesNotPoisonCache: after a cancelled plan, a fresh
// full plan on the same engine must match an engine that never saw the
// cancellation — truncated solves must not have been stored.
func TestCancelledPlanDoesNotPoisonCache(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)

	clean, err := New(Options{}).Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}

	eng := New(Options{})
	for _, budget := range []int{3, 30, 300} {
		eng.Plan(newCountdownCtx(budget), top, col, quickOpts()) //nolint:errcheck — any outcome is fine
	}
	res, err := eng.Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("uncancelled plan flagged Partial")
	}
	if res.Time != clean.Time || !reflect.DeepEqual(res.Schedule, clean.Schedule) {
		t.Fatal("plan after cancelled plans diverged from a clean engine: cache was poisoned")
	}
}

// TestPlanCancellationGoroutineGrace: cancelled plans must not leak
// worker goroutines past a bounded grace period.
func TestPlanCancellationGoroutineGrace(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	eng := New(Options{})

	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		eng.Plan(ctx, top, col, core.Options{Workers: 4}) //nolint:errcheck — outcome irrelevant
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after grace period", before, runtime.NumGoroutine())
}

// TestSolveCacheEviction: a tiny cache — one entry per shard — must
// evict (and count it) without corrupting results.
func TestSolveCacheEviction(t *testing.T) {
	top := topology.SingleServer(8)
	eng := New(Options{SolveCacheEntries: solveCacheShards})

	for _, size := range []float64{1 << 10, 1 << 14, 1 << 18, 1 << 20} {
		col := collective.AllGather(top.NumGPUs(), size)
		res, err := eng.Plan(context.Background(), top, col, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckSchedule(col, res.Schedule); err != nil {
			t.Fatalf("size %g: %v", size, err)
		}
	}
	if st := eng.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions with a %d-entry cache across 4 distinct plans: %+v", solveCacheShards, st)
	}
}

// TestConcurrentPlans hammers one engine from many goroutines over a mix
// of repeated and distinct requests. Run under -race in CI.
func TestConcurrentPlans(t *testing.T) {
	top := topology.SingleServer(8)
	eng := New(Options{SolveCacheEntries: solveCacheShards})
	cols := []*collective.Collective{
		collective.AllGather(top.NumGPUs(), 1<<16),
		collective.Broadcast(top.NumGPUs(), 0, 1<<16),
		collective.Broadcast(top.NumGPUs(), 3, 1<<16),
		collective.AllGather(top.NumGPUs(), 1<<18),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		col := cols[i%len(cols)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Plan(context.Background(), top, col, core.Options{Workers: 2})
			if err != nil {
				errs <- err
				return
			}
			if err := verify.CheckSchedule(col, res.Schedule); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Plans != 16 {
		t.Fatalf("Plans = %d, want 16", st.Plans)
	}
}
