package core

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"syccl/internal/collective"
	"syccl/internal/isomorph"
	"syccl/internal/obs"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// mapSolveCache is the smallest SolveCache a pipeline can run against:
// exact keys only, values shared (the pipeline never mutates them).
type mapSolveCache struct {
	mu              sync.Mutex
	subs            map[string]*solve.SubSchedule
	lookups, stores int
}

func (c *mapSolveCache) Lookup(d *solve.Demand, sig string) *solve.SubSchedule {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	return c.subs[isomorph.ExactKey(d)+"|"+sig]
}

func (c *mapSolveCache) Store(d *solve.Demand, sig string, s *solve.SubSchedule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	if c.subs == nil {
		c.subs = map[string]*solve.SubSchedule{}
	}
	c.subs[isomorph.ExactKey(d)+"|"+sig] = s
}

// TestReplayIsOneCandidateUnderOneSpan: handed the recipe of a previous
// run, the pipeline returns the same bytes from one "replay" span under
// the root — no search, no combine, no passes, no solve-cache call — and
// says so in its stats; the time is booked to the winner's pass.
func TestReplayIsOneCandidateUnderOneSpan(t *testing.T) {
	top := topology.A100Clos(2)
	for _, col := range []*collective.Collective{
		collective.AllGather(top.NumGPUs(), 1<<20),
		collective.Reduce(top.NumGPUs(), 3, 1<<20),
		collective.AllReduce(top.NumGPUs(), 64<<20),
	} {
		cache := &mapSolveCache{}
		cold, err := Synthesize(top, col, Options{SolveCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Recipe == nil || cold.Stats.Replayed {
			t.Fatalf("%v: full pass left recipe %v, Replayed %v", col.Kind, cold.Recipe, cold.Stats.Replayed)
		}
		cells := len(cold.Recipe.Subs)
		if cells == 0 || cold.Recipe.Engine == "" {
			t.Fatalf("%v: recipe of %d cells from engine %q", col.Kind, cells, cold.Recipe.Engine)
		}

		rec := obs.NewRecorder()
		cache.lookups, cache.stores = 0, 0
		warm, err := Synthesize(top, col, Options{SolveCache: cache, Recipe: cold.Recipe, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Time != cold.Time || !reflect.DeepEqual(warm.Schedule, cold.Schedule) {
			t.Fatalf("%v: replay differs from the full pass", col.Kind)
		}
		st := warm.Stats
		if !st.Replayed || st.Candidates != 1 || st.SolverCalls != 0 || st.CrossCacheHits != cells {
			t.Fatalf("%v: replay stats %+v for %d cells", col.Kind, st, cells)
		}
		if cache.lookups != 0 || cache.stores != 0 {
			t.Fatalf("%v: replay made %d lookups and %d stores", col.Kind, cache.lookups, cache.stores)
		}
		if warm.Recipe != cold.Recipe || warm.Partial {
			t.Fatalf("%v: replay returned recipe %p (given %p), Partial %v", col.Kind, warm.Recipe, cold.Recipe, warm.Partial)
		}
		booked, other := warm.Phases.Solve1, warm.Phases.Solve2
		if cold.Recipe.Source == "fine" {
			booked, other = other, booked
		}
		if booked <= 0 || other != 0 || warm.Phases.Search != 0 || warm.Phases.Combine != 0 {
			t.Fatalf("%v: a %s winner booked phases %+v", col.Kind, cold.Recipe.Source, warm.Phases)
		}

		replays := 0
		for _, s := range rec.Spans() {
			switch s.Name {
			case "replay":
				replays++
				attrs := map[string]interface{}{}
				for _, a := range s.Attrs {
					attrs[a.Key] = a.Value()
				}
				if s.Parent != "synthesize" || attrs["source"] != cold.Recipe.Source || attrs["cells"] != int64(cells) {
					t.Fatalf("%v: replay span under %q with %v", col.Kind, s.Parent, attrs)
				}
			case "search", "combine", "solve.coarse", "solve.fine", "candidate", "bound":
				t.Fatalf("%v: replay opened a %q span", col.Kind, s.Name)
			}
		}
		if replays != 1 {
			t.Fatalf("%v: %d replay spans", col.Kind, replays)
		}
	}
}

// TestStaleRecipeRunsTheFullPass: a recipe does not depend on the solve
// cache, so one handed over with an empty cache or none at all replays
// the cold bytes. One that fails its self-check, names an unknown source,
// carries the wrong number of cells or a sub-schedule that does not fit
// its cell falls back to the full pass — same bytes, not a replay, a
// fresh recipe on the result. So does one whose combination does not
// assemble: a sub-demand GPU outside its group, or a scatter sketch whose
// tree relays through a GPU no stage informs or runs in a cycle.
func TestStaleRecipeRunsTheFullPass(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.ReduceScatter(top.NumGPUs(), 1<<20)
	cache := &mapSolveCache{}
	cold, err := Synthesize(top, col, Options{SolveCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	forged := *cold.Recipe
	forged.TimeBits++
	unknown := *cold.Recipe
	unknown.Source = "elsewhere"
	short := *cold.Recipe
	short.Subs = short.Subs[:len(short.Subs)-1]
	foreign := *cold.Recipe
	foreign.Subs = append([]*solve.SubSchedule{{Transfers: []solve.Transfer{{Src: 0, Dst: 99}}}}, foreign.Subs[1:]...)

	// withFirst is the cold recipe with the first sketch of its
	// combination replaced.
	withFirst := func(sk *sketch.Sketch) *Recipe {
		r := *cold.Recipe
		combo := *r.Combination
		combo.Sketches = append([]*sketch.Sketch{sk}, combo.Sketches[1:]...)
		r.Combination = &combo
		return &r
	}
	first := cold.Recipe.Combination.Sketches[0]
	stray := first.Clone()
	sd := &stray.Stages[0][0]
	for g := 0; g < top.NumGPUs(); g++ {
		if top.Dim(sd.Dim).GroupOf(g) != sd.Group {
			sd.Dsts[0] = g
			break
		}
	}
	// Two GPUs besides the root in the root's NVLink group route each
	// other's chunks: from an uninformed source, or in a cycle.
	group := top.Dim(0).GroupOf(first.Root)
	var others []int
	for _, g := range top.Dim(0).Groups[group] {
		if g != first.Root {
			others = append(others, g)
		}
	}
	a, b := others[0], others[1]
	relay := func(src, dst int) sketch.Stage {
		return sketch.Stage{{Dim: 0, Group: group, Srcs: []int{src}, Dsts: []int{dst}}}
	}
	uninformed := &sketch.Sketch{Root: first.Root, Scatter: true, Stages: []sketch.Stage{relay(a, b)}}
	cycle := &sketch.Sketch{Root: first.Root, Scatter: true, Stages: []sketch.Stage{relay(a, b), relay(b, a)}}

	for name, tc := range map[string]struct {
		opts   Options
		replay bool
	}{
		"cells gone":             {Options{SolveCache: &mapSolveCache{}, Recipe: cold.Recipe}, true},
		"no cache":               {Options{Recipe: cold.Recipe}, true},
		"self-check":             {Options{SolveCache: cache, Recipe: &forged}, false},
		"unknown source":         {Options{SolveCache: cache, Recipe: &unknown}, false},
		"Subs length ≠ cells":    {Options{SolveCache: cache, Recipe: &short}, false},
		"foreign cell":           {Options{SolveCache: cache, Recipe: &foreign}, false},
		"GPU outside its group":  {Options{SolveCache: cache, Recipe: withFirst(stray)}, false},
		"uninformed scatter src": {Options{SolveCache: cache, Recipe: withFirst(uninformed)}, false},
		"scatter parent cycle":   {Options{SolveCache: cache, Recipe: withFirst(cycle)}, false},
	} {
		// A malformed tree must not hang the replay: give up on it.
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := Synthesize(top, col, tc.opts)
			done <- outcome{res, err}
		}()
		var res *Result
		select {
		case out := <-done:
			res, err = out.res, out.err
		case <-time.After(time.Minute):
			t.Fatalf("%s: no result after a minute", name)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Time != cold.Time || !reflect.DeepEqual(res.Schedule, cold.Schedule) {
			t.Fatalf("%s: result differs from the cold run", name)
		}
		if tc.replay {
			if !res.Stats.Replayed || res.Recipe != tc.opts.Recipe {
				t.Fatalf("%s: stats %+v, recipe %p (given %p)", name, res.Stats, res.Recipe, tc.opts.Recipe)
			}
			continue
		}
		if res.Stats.Replayed || res.Stats.Candidates <= 1 {
			t.Fatalf("%s: stats %+v", name, res.Stats)
		}
		if res.Recipe == nil || res.Recipe == tc.opts.Recipe || !reflect.DeepEqual(res.Recipe, cold.Recipe) {
			t.Fatalf("%s: fallback recorded recipe %+v", name, res.Recipe)
		}
	}
}

// TestReplayAllocs is a tripwire on what a recipe replay allocates: the
// budgets are about 1.5× the counts measured when the replay went flat
// (48 and 472), so a map or per-transfer allocation creeping back into
// assembly, validation or finishing fails here.
func TestReplayAllocs(t *testing.T) {
	for spec, budget := range map[string]float64{
		"h800x64:alltoall:64M":  72,
		"a100x16:allreduce:64M": 708,
	} {
		top, col := digestCase(t, spec)
		opts := Options{Recipe: synth(t, top, col, Options{}).Recipe}
		allocs := testing.AllocsPerRun(10, func() {
			if res, err := Synthesize(top, col, opts); err != nil || !res.Stats.Replayed {
				t.Fatalf("%s: not replayed (%v)", spec, err)
			}
		})
		if allocs > budget {
			t.Errorf("%s: a replay allocates %.0f times, budget %.0f", spec, allocs, budget)
		}
	}
}

// TestRealizeBytes is a tripwire on what one coarse realization pass
// allocates: each candidate is built into its worker's buffer and only
// its time is kept, so the pass allocates about one schedule per worker,
// not one per candidate. The budget is about 1.5× the 2434 KiB measured
// when candidates stopped being kept (one worker on
// h800x64:allgather:64M's 13 candidates, from empty pools; keeping every
// candidate's schedule took 5630 KiB), so a schedule kept per candidate
// again fails here.
func TestRealizeBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for itself")
	}
	const budget = 3650 // KiB
	top, col := digestCase(t, "h800x64:allgather:64M")
	opts := Options{Workers: 1}.withDefaults()
	sketches := searchCached(t.Context(), top, 0, false, opts)
	combos := buildCombinations(t.Context(), top, col, sketches, true, false, opts)
	least := uint64(math.MaxUint64)
	for range 3 {
		tab := isomorph.NewTable()
		ws := new(workspace).fit(opts.Workers)
		pool := assembleAll(top, col, combos, tab, opts, ws, nil)
		var before, after runtime.MemStats
		var stats Stats
		// Two collections empty the pools (and their victim caches), so
		// every run starts from the same state: nothing recycled.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		realizeAll(t.Context(), top, tab, pool, opts.passSolver(false), opts, ws, &stats, nil, nil, "coarse")
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a coarse pass over %d candidates allocates %d KiB", len(combos), least/1024)
	if least > budget*1024 {
		t.Errorf("a coarse pass allocates %d KiB, budget %d KiB", least/1024, budget)
	}
}
