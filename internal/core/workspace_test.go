package core

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// keptResult is what a caller holds on to from one synthesis: the result
// itself and every incumbent streamed to it, with their serialized form
// as it was when the synthesis returned.
type keptResult struct {
	what       string
	res        *Result
	incumbents []Incumbent
	snapshot   []byte
}

func (k *keptResult) serialize(t *testing.T) []byte {
	t.Helper()
	raw, err := json.Marshal(struct {
		Schedule   any
		Time       float64
		Recipe     *Recipe
		Incumbents []Incumbent
	}{k.res.Schedule, k.res.Time, k.res.Recipe, k.incumbents})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// keep synthesizes spec under opts with the stream attached and keeps
// the outcome.
func keep(t *testing.T, what, spec string, opts Options) *keptResult {
	t.Helper()
	top, col := digestCase(t, spec)
	k := &keptResult{what: what}
	opts.OnIncumbent = func(inc Incumbent) { k.incumbents = append(k.incumbents, inc) }
	k.res = synth(t, top, col, opts)
	k.snapshot = k.serialize(t)
	return k
}

// TestResultsOutliveTheWorkspace: a synthesis works in a pooled
// workspace that the next synthesis reuses, so nothing it hands out —
// the schedule, the recipe, a streamed incumbent — may live there. Kept
// results of cold runs and of their replays (a forward AllGather, an
// AllReduce, a ReduceScatter and an AllGather the injected ring wins)
// must read the same after 20 more syntheses and replays on 4
// goroutines, and after the pinned specs run again, in shuffled order,
// through the pool those left dirty, each still to its pinned digest.
func TestResultsOutliveTheWorkspace(t *testing.T) {
	specs := []string{"h800x64:allgather:64M", "a100x16:allreduce:64M", "h800small:allgather:64M", "a100x16:reducescatter:64M"}
	var kept []*keptResult
	for i, spec := range specs {
		workers := 1 + i%2*3 // 1 and 4: the ring inline and beside the search
		cold := keep(t, spec+" cold", spec, Options{Workers: workers})
		replay := keep(t, spec+" replay", spec, Options{Workers: workers, Recipe: cold.res.Recipe})
		if !replay.res.Stats.Replayed {
			t.Fatalf("%s: not replayed", spec)
		}
		kept = append(kept, cold, replay)
	}
	if src := kept[4].res.Recipe.Source; src != "ring" {
		t.Fatalf("test premise: %s is won by the ring, not %q", specs[2], src)
	}
	check := func(after string) {
		t.Helper()
		for _, k := range kept {
			if string(k.serialize(t)) != string(k.snapshot) {
				t.Errorf("%s: changed after %s", k.what, after)
			}
		}
	}

	// 20 more: every spec cold and replayed, on 1, 2 or 4 workers.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				i := (g + r) % len(specs)
				top, col := digestCase(t, specs[i])
				opts := Options{Workers: 1 << ((g + r) % 3)}
				if r%2 == 1 {
					opts.Recipe = kept[2*i].res.Recipe
				}
				if _, err := Synthesize(top, col, opts); err != nil {
					t.Errorf("%s: %v", specs[i], err)
				}
			}
		}()
	}
	wg.Wait()
	check("20 more syntheses")

	pinned := loadColdDigests(t)
	shuffled := append([]string(nil), specs...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, spec := range shuffled {
		top, col := digestCase(t, spec)
		if got := digestOf(synth(t, top, col, Options{Workers: 2})); got != pinned[spec] {
			t.Errorf("%s through a dirty pool: got %+v, pinned %+v", spec, got, pinned[spec])
		}
	}
	check("the pinned specs again")
}

// TestColdSynthesisBytes is a tripwire on what a cold synthesis
// allocates once the workspace pool is warm: the second of two
// back-to-back runs of h800x64:allgather:64M on two workers. Only what
// leaves the pipeline (the winner, the recipe) and what is out of the
// workspace's scope (the sketch search and its copies, isomorphism keys,
// solver outputs, validation) should be new. The budget is the 3 561 KiB
// measured when the workspace came in, plus 25 %; the run allocated
// 10 175 KiB before.
func TestColdSynthesisBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for itself")
	}
	const budget = 4451 // KiB
	top, col := digestCase(t, "h800x64:allgather:64M")
	least := uint64(1 << 62)
	for range 3 {
		synth(t, top, col, Options{Workers: 2})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		synth(t, top, col, Options{Workers: 2})
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("the second of two cold syntheses allocates %d KiB", least/1024)
	if least > budget*1024 {
		t.Errorf("a cold synthesis allocates %d KiB, budget %d KiB", least/1024, budget)
	}
}
