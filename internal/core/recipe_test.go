package core

import (
	"reflect"
	"sync"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/isomorph"
	"syccl/internal/obs"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// mapSolveCache is the smallest SolveCache a replay can run against:
// exact keys only, values shared (the pipeline never mutates them).
type mapSolveCache struct {
	mu      sync.Mutex
	subs    map[string]*solve.SubSchedule
	lookups int
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
	if c.subs == nil {
		c.subs = map[string]*solve.SubSchedule{}
	}
	c.subs[isomorph.ExactKey(d)+"|"+sig] = s
}

// TestReplayIsOneCandidateUnderOneSpan: handed the recipe of a previous
// run, the pipeline returns the same bytes from one "replay" span under
// the root — no search, no combine, no passes — and says so in its
// stats; the time is booked to the winner's pass.
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

		rec := obs.NewRecorder()
		cache.lookups = 0
		warm, err := Synthesize(top, col, Options{SolveCache: cache, Recipe: cold.Recipe, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Time != cold.Time || !reflect.DeepEqual(warm.Schedule, cold.Schedule) {
			t.Fatalf("%v: replay differs from the full pass", col.Kind)
		}
		st := warm.Stats
		if !st.Replayed || st.Candidates != 1 || st.SolverCalls != 0 || st.CrossCacheHits != cache.lookups {
			t.Fatalf("%v: replay stats %+v after %d lookups", col.Kind, st, cache.lookups)
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
				if s.Parent != "synthesize" || attrs["source"] != cold.Recipe.Source || attrs["cells"] != int64(st.CrossCacheHits) {
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

// TestStaleRecipeRunsTheFullPass: a recipe the cache can no longer back,
// one that fails its self-check, and one handed over without a cache at
// all each fall back to the full pass — same bytes, not a replay, a
// fresh recipe on the result.
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
	for name, opts := range map[string]Options{
		"cells gone":     {SolveCache: &mapSolveCache{}, Recipe: cold.Recipe},
		"self-check":     {SolveCache: cache, Recipe: &forged},
		"no cache":       {Recipe: cold.Recipe},
		"unknown source": {SolveCache: cache, Recipe: &unknown},
	} {
		res, err := Synthesize(top, col, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Replayed || res.Stats.Candidates <= 1 {
			t.Fatalf("%s: stats %+v", name, res.Stats)
		}
		if res.Time != cold.Time || !reflect.DeepEqual(res.Schedule, cold.Schedule) {
			t.Fatalf("%s: fallback differs from the cold run", name)
		}
		if res.Recipe == nil || res.Recipe == opts.Recipe || !reflect.DeepEqual(res.Recipe, cold.Recipe) {
			t.Fatalf("%s: fallback recorded recipe %+v", name, res.Recipe)
		}
	}
}
