package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"syccl/internal/cli"
	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/sim"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// dropRecipes forgets every winner recipe, so the next plan of each key
// runs the full pass against otherwise warm caches.
func dropRecipes(e *Engine) {
	e.recipes.RemoveIf(func(string) bool { return true })
}

// sameResult fails the test unless got carries the bytes and the time
// bits of want.
func sameResult(t *testing.T, what string, got, want *core.Result) {
	t.Helper()
	if got.Time != want.Time {
		t.Fatalf("%s: time %v, want %v", what, got.Time, want.Time)
	}
	if !reflect.DeepEqual(got.Schedule, want.Schedule) {
		t.Fatalf("%s: schedule differs", what)
	}
}

func mustPlan(t *testing.T, e *Engine, top *topology.Topology, col *collective.Collective, opts core.Options) *core.Result {
	t.Helper()
	res, err := e.Plan(context.Background(), top, col, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// nineCollectives are cli.BuildCollective's names for the nine kinds.
var nineCollectives = []string{
	"sendrecv", "broadcast", "scatter", "gather", "reduce",
	"allgather", "alltoall", "reducescatter", "allreduce",
}

// TestRecipeThreeWayDifferential: a cold plan, a recipe-warm plan and a
// full-pass-warm plan (recipes dropped) of one request return the same
// bytes and the same time bits, both warm ones without a solver call,
// for any worker count — over the nine collectives on the paper's small
// fabrics and on randomized ones, at a latency-bound and a
// bandwidth-bound size.
func TestRecipeThreeWayDifferential(t *testing.T) {
	type fabric struct {
		name string
		top  *topology.Topology
	}
	var fabrics []fabric
	for _, spec := range []string{"dgx4", "server8", "a100x16", "h800small"} {
		top, err := cli.ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		fabrics = append(fabrics, fabric{spec, top})
	}
	for _, seed := range []int64{3, 11} {
		top := verify.RandomTopology(rand.New(rand.NewSource(seed)))
		fabrics = append(fabrics, fabric{fmt.Sprintf("%s#%d", top.Name, seed), top})
	}
	sizes := []float64{1 << 20, 64 << 20}
	if testing.Short() {
		fabrics, sizes = fabrics[:2], sizes[:1]
	}

	replayed := 0
	for _, fb := range fabrics {
		eng := New(Options{})
		for _, kind := range nineCollectives {
			for _, size := range sizes {
				col, err := cli.BuildCollective(kind, fb.top.NumGPUs(), size)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s:%s:%g", fb.name, kind, size)
				cold := mustPlan(t, eng, fb.top, col, core.Options{Workers: 1})
				check := verify.CheckSchedule
				if col.Kind == collective.KindAllReduce {
					check = verify.CheckAllReduce
				}
				if err := check(col, cold.Schedule); err != nil {
					t.Fatalf("%s: cold schedule invalid: %v", name, err)
				}
				for _, workers := range []int{1, 4} {
					opts := core.Options{Workers: workers}
					byRecipe := mustPlan(t, eng, fb.top, col, opts)
					dropRecipes(eng)
					byFullPass := mustPlan(t, eng, fb.top, col, opts)
					what := fmt.Sprintf("%s workers=%d", name, workers)
					sameResult(t, what+" recipe-warm", byRecipe, cold)
					sameResult(t, what+" full-pass-warm", byFullPass, cold)
					if byRecipe.Stats.SolverCalls != 0 || byFullPass.Stats.SolverCalls != 0 {
						t.Fatalf("%s: warm plans made %d / %d solver calls", what,
							byRecipe.Stats.SolverCalls, byFullPass.Stats.SolverCalls)
					}
					if byFullPass.Stats.Replayed {
						t.Fatalf("%s: a plan without a recipe reports a replay", what)
					}
					// Routed one-to-one transfers have no candidates and
					// so no recipe; everything else must replay.
					if byRecipe.Stats.Replayed != (col.Kind != collective.KindSendRecv) {
						t.Fatalf("%s: Replayed = %v", what, byRecipe.Stats.Replayed)
					}
					if byRecipe.Stats.Replayed {
						replayed++
						if byRecipe.Stats.Candidates != 1 {
							t.Fatalf("%s: replay reports %d candidates", what, byRecipe.Stats.Candidates)
						}
					}
				}
			}
		}
		if st := eng.Stats(); st.RecipeStale != 0 {
			t.Fatalf("%s: %d recipes went stale on an engine that evicted nothing", fb.name, st.RecipeStale)
		}
	}
	if replayed == 0 {
		t.Fatal("no plan replayed")
	}
}

// recipeCase is the request the single-fabric recipe tests share: the
// one the benchmarks plan.
func recipeCase() (*topology.Topology, *collective.Collective) {
	top, col, _ := benchCase()
	return top, col
}

// TestRecipeReplaySkipsTheSearch is the recipe-path twin of
// TestWarmPlanBitIdentical: the second plan is one recipe hit and
// touches neither the sketch nor the sub-schedule cache.
func TestRecipeReplaySkipsTheSearch(t *testing.T) {
	top, col := recipeCase()
	eng := New(Options{})
	cold := mustPlan(t, eng, top, col, quickOpts())
	before := eng.Stats()
	if before.RecipeMisses != 1 || before.RecipeHits != 0 {
		t.Fatalf("cold plan: %+v", before)
	}

	warm := mustPlan(t, eng, top, col, quickOpts())
	st := eng.Stats()
	if st.RecipeHits != 1 || st.RecipeMisses != 1 || st.RecipeStale != 0 {
		t.Fatalf("warm plan was not one recipe hit: %+v", st)
	}
	if st.SketchHits != before.SketchHits || st.SketchMisses != before.SketchMisses {
		t.Fatalf("replay searched: before %+v, after %+v", before, st)
	}
	if st.SolveHits != before.SolveHits || st.SolveMisses != before.SolveMisses {
		t.Fatalf("replay consulted the sub-schedule cache: before %+v, after %+v", before, st)
	}
	if warm.Stats.SolverCalls != 0 || !warm.Stats.Replayed || warm.Stats.CrossCacheHits != len(cold.Recipe.Subs) {
		t.Fatalf("warm stats: %+v", warm.Stats)
	}
	sameResult(t, "replay", warm, cold)
	if warm.Phases.Total() <= 0 {
		t.Fatal("replay booked no phase time")
	}
}

// TestRecipeStaleFallsBack: a recipe carries its own sub-schedules, so
// invalidating or evicting the sub-schedule cache leaves it replaying the
// cold bytes; a recipe that fails its self-check must return the cold
// bytes, count recipe_stale, and leave a fresh recipe behind that the
// next plan replays.
func TestRecipeStaleFallsBack(t *testing.T) {
	top, col := recipeCase()
	ref := mustPlan(t, New(Options{}), top, col, quickOpts())

	// staleThenHit plans twice after the fault was injected.
	staleThenHit := func(t *testing.T, eng *Engine) {
		t.Helper()
		before := eng.Stats()
		res := mustPlan(t, eng, top, col, quickOpts())
		sameResult(t, "stale plan", res, ref)
		st := eng.Stats()
		if res.Stats.Replayed || st.RecipeStale != before.RecipeStale+1 ||
			st.RecipeHits != before.RecipeHits || st.RecipeMisses != before.RecipeMisses {
			t.Fatalf("stale recipe not counted as such: before %+v, after %+v", before, st)
		}
		again := mustPlan(t, eng, top, col, quickOpts())
		sameResult(t, "plan after the fallback", again, ref)
		if !again.Stats.Replayed || eng.Stats().RecipeHits != before.RecipeHits+1 {
			t.Fatalf("the fallback left no replayable recipe: %+v", eng.Stats())
		}
	}

	// replays plans once more and expects a replay of the cold bytes.
	replays := func(t *testing.T, eng *Engine) {
		t.Helper()
		res := mustPlan(t, eng, top, col, quickOpts())
		sameResult(t, "replay", res, ref)
		if st := eng.Stats(); !res.Stats.Replayed || st.RecipeStale != 0 || st.RecipeHits != 1 {
			t.Fatalf("recipe did not replay: %+v (result %+v)", st, res.Stats)
		}
	}

	t.Run("invalidated", func(t *testing.T) {
		eng := New(Options{})
		mustPlan(t, eng, top, col, quickOpts())
		// Every cell of the intra-server dimension, which any winner on
		// this fabric crosses.
		d := top.Dim(0)
		n := eng.Invalidate([]string{
			fmt.Sprintf("n%d;a%.9g;b%.9g;", len(d.Groups[0]), d.AlphaOf(0), d.BetaOf(0)),
			fmt.Sprintf("n%d;a%.6g;b%.6g;", len(d.Groups[0]), d.AlphaOf(0), d.BetaOf(0)),
		})
		if n == 0 {
			t.Fatal("nothing invalidated")
		}
		replays(t, eng)
	})

	t.Run("self-check", func(t *testing.T) {
		eng := New(Options{})
		mustPlan(t, eng, top, col, quickOpts())
		key := PlanKey(top, col, quickOpts())
		kept, ok := eng.recipes.Get(key)
		if !ok {
			t.Fatal("no recipe stored")
		}
		wrongTime := *kept
		wrongTime.TimeBits ^= 1
		dropRecipes(eng)
		eng.recipes.Add(key, func() *core.Recipe { return &wrongTime })
		staleThenHit(t, eng)

		wrongCount := *kept
		wrongCount.Transfers++
		dropRecipes(eng)
		eng.recipes.Add(key, func() *core.Recipe { return &wrongCount })
		staleThenHit(t, eng)
	})

	// A sub-schedule cache too small for the winner's cells: one entry
	// per shard.
	t.Run("evicted", func(t *testing.T) {
		eng := New(Options{SolveCacheEntries: solveCacheShards})
		cold := mustPlan(t, eng, top, col, quickOpts())
		sameResult(t, "cold plan", cold, ref)
		if cold.Recipe == nil || eng.recipes.Len() != 1 || eng.Stats().Evictions == 0 {
			t.Fatalf("no recipe stored, or nothing evicted: %+v", eng.Stats())
		}
		replays(t, eng)
	})
}

// TestRecipeAfterReboot: recipes live in memory only. A rebooted engine
// over a persisted corpus misses the recipe, runs the full pass from
// disk, and replays from then on with the cells promoted into memory.
func TestRecipeAfterReboot(t *testing.T) {
	dir := t.TempDir()
	top, col := recipeCase()
	cold := mustPlan(t, New(Options{Persist: openPersist(t, dir)}), top, col, quickOpts())

	eng := New(Options{Persist: openPersist(t, dir)})
	first := mustPlan(t, eng, top, col, quickOpts())
	st := eng.Stats()
	if first.Stats.Replayed || st.RecipeMisses != 1 || st.PersistHits == 0 || first.Stats.SolverCalls != 0 {
		t.Fatalf("first plan after reboot: %+v (result %+v)", st, first.Stats)
	}
	second := mustPlan(t, eng, top, col, quickOpts())
	after := eng.Stats()
	if !second.Stats.Replayed || after.RecipeHits != 1 {
		t.Fatalf("second plan after reboot did not replay: %+v", after)
	}
	if after.PersistHits != st.PersistHits || after.PersistMisses != st.PersistMisses {
		t.Fatalf("replay went to disk: before %+v, after %+v", st, after)
	}
	sameResult(t, "first plan after reboot", first, cold)
	sameResult(t, "replay after reboot", second, cold)
}

// TestNoRecipeFromIncompletePlans sweeps the cancellation point across
// the pipeline: a plan that errored or came back Partial stores nothing,
// a complete one stores exactly its recipe.
func TestNoRecipeFromIncompletePlans(t *testing.T) {
	top, col := recipeCase()
	incomplete := 0
	for _, budget := range []int{0, 1, 5, 20, 100, 500, 2000, 10000, 1 << 30} {
		eng := New(Options{})
		res, err := eng.Plan(newCountdownCtx(budget), top, col, quickOpts())
		switch stored := eng.recipes.Len(); {
		case err != nil || res.Partial:
			incomplete++
			if stored != 0 || (res != nil && res.Recipe != nil) {
				t.Fatalf("budget %d: incomplete plan (err %v) stored %d recipes", budget, err, stored)
			}
		case stored != 1 || res.Recipe == nil:
			t.Fatalf("budget %d: complete plan stored %d recipes", budget, stored)
		}
	}
	if incomplete == 0 {
		t.Fatal("no budget cut a plan short")
	}

	// A plan cancelled at entry says nothing about the recipe at hand.
	eng := New(Options{})
	mustPlan(t, eng, top, col, quickOpts())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Plan(ctx, top, col, quickOpts()); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := eng.Stats(); st.RecipeStale != 0 || eng.recipes.Len() != 1 {
		t.Fatalf("cancelled plan disturbed the recipe: %+v", st)
	}
	if !mustPlan(t, eng, top, col, quickOpts()).Stats.Replayed {
		t.Fatal("recipe gone after a cancelled plan")
	}
}

// TestRecipeKeyedBySimOptions: the ranking simulator's block
// configuration decides the winner, so it is in the plan key the recipe
// cache is keyed by — spelled-out defaults share a recipe with unset
// ones, anything else does not.
func TestRecipeKeyedBySimOptions(t *testing.T) {
	top, col := recipeCase()
	eng := New(Options{})
	mustPlan(t, eng, top, col, quickOpts())

	coarse := quickOpts()
	coarse.Sim = sim.Options{BlockBytes: 64 << 10, MaxBlocks: 4}
	want, err := core.Synthesize(top, col, coarse)
	if err != nil {
		t.Fatal(err)
	}
	got := mustPlan(t, eng, top, col, coarse)
	if st := eng.Stats(); got.Stats.Replayed || st.RecipeMisses != 2 || st.RecipeHits != 0 {
		t.Fatalf("another block size shared a recipe: %+v", st)
	}
	sameResult(t, "plan under other sim options", got, want)

	spelled := quickOpts()
	spelled.Sim = sim.DefaultOptions()
	if !mustPlan(t, eng, top, col, spelled).Stats.Replayed {
		t.Fatal("spelled-out default sim options missed the default recipe")
	}
	if !mustPlan(t, eng, top, col, coarse).Stats.Replayed {
		t.Fatal("second plan under other sim options did not replay")
	}
}

// TestStreamOnRecipeHit: a stream served by a replay emits exactly one
// incumbent — the result — with the provenance the winner had when the
// full pass published it.
func TestStreamOnRecipeHit(t *testing.T) {
	top := topology.H800Small(2)
	for _, col := range []*collective.Collective{
		collective.AllGather(top.NumGPUs(), 1<<20),
		collective.ReduceScatter(top.NumGPUs(), 1<<20),
		collective.AllReduce(top.NumGPUs(), 16<<20),
	} {
		eng := New(Options{})
		var coldEvents, warmEvents []core.Incumbent
		stream := func(events *[]core.Incumbent) *core.Result {
			opts := quickOpts()
			opts.OnIncumbent = func(inc core.Incumbent) { *events = append(*events, inc) }
			return mustPlan(t, eng, top, col, opts)
		}
		cold, warm := stream(&coldEvents), stream(&warmEvents)
		if !warm.Stats.Replayed || len(warmEvents) != 1 {
			t.Fatalf("%v: replayed=%v with %d stream events", col.Kind, warm.Stats.Replayed, len(warmEvents))
		}
		sameResult(t, col.Kind.String(), warm, cold)
		inc, last := warmEvents[0], coldEvents[len(coldEvents)-1]
		if inc.Seq != 1 || inc.Time != warm.Time || !reflect.DeepEqual(inc.Schedule, warm.Schedule) {
			t.Fatalf("%v: the one incumbent is not the result", col.Kind)
		}
		if inc.Source != last.Source || inc.Engine != last.Engine || !reflect.DeepEqual(inc.Combination, last.Combination) {
			t.Fatalf("%v: provenance %s/%s, the full pass published %s/%s", col.Kind,
				inc.Source, inc.Engine, last.Source, last.Engine)
		}
	}
}

// TestRecipeHammer plans identical and distinct requests from many
// goroutines against a recipe cache of one entry, so hits, stale drops,
// stores and evictions of recipes interleave (run with -race). Every
// result must be the cold reference of its request.
func TestRecipeHammer(t *testing.T) {
	top := topology.SingleServer(8)
	var cols []*collective.Collective
	var refs []*core.Result
	for _, size := range []float64{1 << 16, 1 << 20, 1 << 24} {
		for _, col := range []*collective.Collective{
			collective.AllGather(top.NumGPUs(), size),
			collective.ReduceScatter(top.NumGPUs(), size),
			collective.Broadcast(top.NumGPUs(), 0, size),
		} {
			ref, err := core.Synthesize(top, col, quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			cols, refs = append(cols, col), append(refs, ref)
		}
	}
	eng := New(Options{SolveCacheEntries: recipeCellsPerEntry}) // one recipe
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				// Half the goroutines walk the requests in step, the rest
				// each repeat their own.
				k := (i / 2) % len(cols)
				if g%2 == 1 {
					k = g % len(cols)
				}
				res, err := eng.Plan(context.Background(), top, cols[k], core.Options{Workers: 2})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Time != refs[k].Time || !reflect.DeepEqual(res.Schedule, refs[k].Schedule) {
					t.Errorf("request %d: concurrent plan differs from its cold reference", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := eng.Stats()
	if st.RecipeHits == 0 || st.RecipeMisses == 0 {
		t.Fatalf("hammer exercised one side only: %+v", st)
	}
	if n := eng.recipes.Len(); n > 1 {
		t.Fatalf("recipe cache holds %d entries, bound 1", n)
	}
}

// TestRecipeWarmAllocBudget gates the replay on a count that repeats
// exactly, so it holds on a noisy box: a recipe-warm a100x16 AllGather
// allocates under 5 000 times, a full warm pass about 115 000.
func TestRecipeWarmAllocBudget(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.AllGather(top.NumGPUs(), float64(1<<20)/float64(top.NumGPUs()))
	eng := New(Options{})
	mustPlan(t, eng, top, col, quickOpts())
	allocs := testing.AllocsPerRun(5, func() {
		if !mustPlan(t, eng, top, col, quickOpts()).Stats.Replayed {
			t.Fatal("plan did not replay")
		}
	})
	if allocs > 5000 {
		t.Fatalf("recipe-warm plan allocates %.0f times, budget 5000", allocs)
	}
	t.Logf("recipe-warm a100x16:allgather:1M: %.0f allocs", allocs)
}
