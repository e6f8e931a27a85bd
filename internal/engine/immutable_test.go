package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/lru"
	"syccl/internal/topology"
)

// deepCopy returns a copy of v that shares no memory with it: every
// pointer and slice it reaches is followed and copied, nil stays nil.
func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return reflect.Zero(v.Type())
		}
		out := reflect.New(v.Type().Elem())
		out.Elem().Set(deepCopy(v.Elem()))
		return out
	case reflect.Slice:
		if v.IsNil() {
			return reflect.Zero(v.Type())
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(deepCopy(v.Index(i)))
		}
		return out
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(deepCopy(v.Field(i)))
		}
		return out
	default:
		return v
	}
}

// cachedValue is one cache entry as a checkpoint saw it: the stored
// value itself, and a deep copy of it taken then.
type cachedValue struct{ stored, copied any }

// checkpoint deep-copies every resident entry of the engine's three
// caches, keyed by cache name and entry key.
func checkpoint(e *Engine) map[string]cachedValue {
	out := map[string]cachedValue{}
	take(out, "sketch", e.sketches)
	take(out, "solve", e.solves)
	take(out, "recipe", e.recipes)
	return out
}

func take[V any](into map[string]cachedValue, name string, c *lru.Cache[V]) {
	c.Each(func(key string, v V) {
		into[name+" "+key] = cachedValue{v, deepCopy(reflect.ValueOf(v)).Interface()}
	})
}

// checkAgainst fails the test for every value of the checkpoint that no
// longer equals its copy — whether or not it is still resident — and
// for every resident entry under a checkpointed key that differs from
// that key's copy (an entry dropped and stored again must come back
// equal).
func checkAgainst(t *testing.T, e *Engine, was map[string]cachedValue) {
	t.Helper()
	for k, c := range was {
		if !reflect.DeepEqual(c.stored, c.copied) {
			t.Errorf("%s: the cached value was written after it was stored", k)
		}
	}
	for k, c := range checkpoint(e) {
		if old, ok := was[k]; ok && !reflect.DeepEqual(c.copied, old.copied) {
			t.Errorf("%s: the entry now differs from its checkpoint", k)
		}
	}
}

// TestCachedValuesImmutable: the engine keeps what it caches — sketch
// sets, sub-schedules, recipes — without copying, and hands the same
// pointers to every plan and, through Result.Combination and
// Result.Recipe, to every caller. So nothing may write them. Round 0
// plans cold, concurrently; each later round runs, concurrently, recipe
// replays, full passes over the cached sketches and sub-schedules (a
// sub-schedule cache too small for them all, so the disk tier's
// promotions serve some), an incumbent stream on a new fabric, a
// Replan that invalidates and re-solves, and readers that walk every
// combination and recipe handed out. After each round every value the
// previous checkpoint saw, and every entry resident under its key, must
// still equal the deep copy taken at that checkpoint. Run it under
// -race: a write racing a reader of a shared value fails there too.
func TestCachedValuesImmutable(t *testing.T) {
	h800 := topology.H800Small(2)
	a100 := topology.A100Clos(2)
	server8 := topology.SingleServer(8)
	type request struct {
		top *topology.Topology
		col *collective.Collective
	}
	requests := []request{
		{h800, collective.AllGather(h800.NumGPUs(), 1<<20)},
		{h800, collective.ReduceScatter(h800.NumGPUs(), 1<<20)},
		{h800, collective.Broadcast(h800.NumGPUs(), 0, 1<<20)},
		{a100, collective.AlltoAll(a100.NumGPUs(), 1<<20)},
		{server8, collective.AllGather(server8.NumGPUs(), 1<<20)},
	}
	// Room for every request's recipe, but not for every sub-schedule.
	eng := New(Options{SolveCacheEntries: 8 * recipeCellsPerEntry, Persist: openPersist(t, t.TempDir())})
	// Slows the only group of server8's one dimension: its healthy
	// sub-schedules go stale (TestReplanInvalidatesUnreachableShapes).
	degraded := mustApply(t, server8, "slow:0-"+itoa(nvSwitchOf(t, server8, 0))+"*8")
	fullPass := quickOpts()
	fullPass.StopWithin = 1e-6 // another plan key: no recipe, same sketch and solve keys

	var (
		mu      sync.Mutex
		handed  []*core.Result
		handOut = func(res *core.Result) {
			mu.Lock()
			handed = append(handed, res)
			mu.Unlock()
		}
	)
	// walk reads everything a result shares with the caches, as a caller
	// may, while other plans run.
	walk := func() {
		mu.Lock()
		results := append([]*core.Result(nil), handed...)
		mu.Unlock()
		for _, res := range results {
			deepCopy(reflect.ValueOf(res.Combination))
			deepCopy(reflect.ValueOf(res.Recipe))
		}
	}

	var was map[string]cachedValue
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		run := func(fn func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := fn(); err != nil {
					errs <- err
				}
			}()
		}
		for _, rq := range requests {
			run(func() error {
				res, err := eng.Plan(context.Background(), rq.top, rq.col, quickOpts())
				if err == nil {
					handOut(res)
				}
				return err
			})
			if round == 0 {
				continue
			}
			run(func() error {
				res, err := eng.Plan(context.Background(), rq.top, rq.col, fullPass)
				if err == nil {
					handOut(res)
				}
				return err
			})
		}
		if round > 0 {
			run(func() error {
				opts := quickOpts()
				opts.OnIncumbent = func(in core.Incumbent) {
					deepCopy(reflect.ValueOf(in.Combination))
				}
				col := collective.AllGather(a100.NumGPUs(), 1<<20)
				res, err := eng.Plan(context.Background(), a100, col, opts)
				if err == nil {
					handOut(res)
				}
				return err
			})
			run(func() error {
				_, err := eng.Replan(context.Background(), server8, degraded, requests[4].col, quickOpts())
				return err
			})
			for i := 0; i < 2; i++ {
				run(func() error { walk(); return nil })
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if was != nil {
			checkAgainst(t, eng, was)
		}
		was = checkpoint(eng)
	}

	// The rounds reached every path that hands out a cached value.
	st := eng.Stats()
	if st.RecipeHits == 0 || st.SketchHits == 0 || st.SolveHits == 0 || st.PersistHits == 0 ||
		st.Replans == 0 || st.ReplanInvalidated == 0 {
		t.Fatalf("a path went unexercised: %+v", st)
	}
}
