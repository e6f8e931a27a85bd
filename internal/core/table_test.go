package core

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/isomorph"
	"syccl/internal/obs"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// missingSolves is a SolveCache that never has anything. It records
// how often it was asked and told, and which demand objects and which
// demand contents a run showed it.
type missingSolves struct {
	mu       sync.Mutex
	lookups  int
	stores   int
	pointers map[*solve.Demand]bool
	contents map[string]bool
}

func (c *missingSolves) note(d *solve.Demand, lookup bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pointers == nil {
		c.pointers, c.contents = map[*solve.Demand]bool{}, map[string]bool{}
	}
	if lookup {
		c.lookups++
	} else {
		c.stores++
	}
	c.pointers[d] = true
	c.contents[isomorph.ExactKey(d)] = true
}

func (c *missingSolves) Lookup(d *solve.Demand, _ string) *solve.SubSchedule {
	c.note(d, true)
	return nil
}
func (c *missingSolves) Store(d *solve.Demand, _ string, _ *solve.SubSchedule) { c.note(d, false) }

// TestBoundOncePerDistinctDemand: on h800small:allgather:1M the bound
// pass bounds the coarse incumbent alone, whose 16 cells hold 3 distinct
// demands, so it runs 3 LPs — and the fine pass still refines all five
// survivors.
func TestBoundOncePerDistinctDemand(t *testing.T) {
	top, col := digestCase(t, "h800small:allgather:1M")
	rec := obs.NewRecorder()
	var last Incumbent
	res := synth(t, top, col, Options{Obs: rec, OnIncumbent: func(in Incumbent) { last = in }})
	passes := 0
	for _, sp := range rec.Spans() {
		if sp.Name != "solve.bound" {
			continue
		}
		passes++
		attrs := map[string]int64{}
		for _, a := range sp.Attrs {
			if v, ok := a.Value().(int64); ok {
				attrs[a.Key] = v
			}
		}
		if attrs["cells"] != 16 || attrs["distinct"] != 3 {
			t.Errorf("bound pass ran %d LPs for %d cells, want 3 for 16", attrs["distinct"], attrs["cells"])
		}
	}
	if passes != 1 {
		t.Fatalf("%d bound passes, want 1", passes)
	}
	// The last incumbent is the winner re-keyed into arrival order after
	// the bound pass, so it carries the coarse incumbent's bound, as the
	// result does.
	st := res.Stats
	if st.BoundsComputed != 1 || st.Refined != 5 ||
		res.Bound <= 0 || last.Bound != res.Bound || last.Time != res.Time {
		t.Errorf("bound pass reports %+v with incumbent bound %g, result bound %g", st, last.Bound, res.Bound)
	}
	if got, want := digestOf(res), loadColdDigests(t)["h800small:allgather:1M"]; got != want {
		t.Errorf("got %+v, pinned %+v", got, want)
	}
}

// TestOneDemandTablePerSynthesize: the coarse pass and the fine pass read
// one table. Were an assembly rebuilt between passes, its cells would
// reach the cache as new demand objects; instead every call of a run
// names one object per distinct demand content, and each (content,
// signature) is looked up and stored once.
func TestOneDemandTablePerSynthesize(t *testing.T) {
	for _, spec := range []string{"h800small:allgather:1M", "a100x16:alltoall:64M", "a100x16:broadcast:1M"} {
		top, col := digestCase(t, spec)
		solves := &missingSolves{}
		res := synth(t, top, col, Options{SolveCache: solves})
		if res.Stats.Refined == 0 || res.Stats.BoundsComputed == 0 {
			t.Fatalf("%s: the fine and bound passes did not run: %+v", spec, res.Stats)
		}
		if len(solves.pointers) != len(solves.contents) {
			t.Errorf("%s: %d demand objects for %d distinct demands", spec, len(solves.pointers), len(solves.contents))
		}
		// Two passes, two signatures: at most two lookups per demand.
		if solves.lookups > 2*len(solves.contents) || solves.stores > solves.lookups {
			t.Errorf("%s: %d lookups and %d stores for %d distinct demands", spec, solves.lookups, solves.stores, len(solves.contents))
		}
		if got, want := digestOf(res), loadColdDigests(t)[spec]; got != want {
			t.Errorf("%s: got %+v, pinned %+v", spec, got, want)
		}
	}
}

// askedSolves is a mapSolveCache that also keeps, in call order, a copy
// of every demand it was asked for under each signature. (A SolveCache
// may not keep the demand itself: its memory is the synthesis's
// workspace, reused by the next synthesis.)
type askedSolves struct {
	mapSolveCache
	asked map[string][]*solve.Demand
}

func (c *askedSolves) Lookup(d *solve.Demand, sig string) *solve.SubSchedule {
	c.mu.Lock()
	if c.asked == nil {
		c.asked = map[string][]*solve.Demand{}
	}
	kept := *d
	kept.Pieces = make([]solve.Piece, len(d.Pieces))
	for i, p := range d.Pieces {
		kept.Pieces[i] = solve.Piece{ID: p.ID, Bytes: p.Bytes, Srcs: slices.Clone(p.Srcs), Dsts: slices.Clone(p.Dsts)}
	}
	c.asked[sig] = append(c.asked[sig], &kept)
	c.mu.Unlock()
	return c.mapSolveCache.Lookup(d, sig)
}

// TestStoresAreSolverOutputs: on a100x16 Reduce from root 2, whose
// isomorphism classes have members, the solve cache is told exactly what
// the solver returned (one Store per solver call) and is only asked for
// class representatives: within one pass's signature, no demand asked
// for maps from one asked before it. A second run on the warm cache
// solves and stores nothing, asks the same, and returns the cold bytes.
func TestStoresAreSolverOutputs(t *testing.T) {
	top := topology.A100Clos(2)
	for _, size := range []float64{1 << 20, 64 << 20} {
		col := collective.Reduce(top.NumGPUs(), 2, size)
		cache := &askedSolves{}
		cold := synth(t, top, col, Options{Workers: 1, SolveCache: cache})
		if cold.Stats.CacheHits == 0 {
			t.Fatalf("%g: no class has a member: %+v", size, cold.Stats)
		}
		if cache.stores != cold.Stats.SolverCalls {
			t.Errorf("%g: %d stores for %d solver calls", size, cache.stores, cold.Stats.SolverCalls)
		}
		for sig, asked := range cache.asked {
			for j, d := range asked {
				for _, r := range asked[:j] {
					if isomorph.FindFullMapping(r, d) != nil {
						t.Fatalf("%g: under %s the cache was asked for a class member", size, sig)
					}
				}
			}
		}

		first := cache.asked
		cache.asked, cache.stores = nil, 0
		warm := synth(t, top, col, Options{Workers: 1, SolveCache: cache})
		if warm.Stats.SolverCalls != 0 || cache.stores != 0 || !reflect.DeepEqual(cache.asked, first) {
			t.Errorf("%g: warm run made %d solver calls and %d stores", size, warm.Stats.SolverCalls, cache.stores)
		}
		if warm.Time != cold.Time || !reflect.DeepEqual(warm.Schedule, cold.Schedule) {
			t.Errorf("%g: warm run differs from the cold one", size)
		}
	}
}

// TestSharedMappingsAreReadOnly: a pass hands one Mapping and one mapped
// sub-schedule to every cell with an equal demand, across worker
// goroutines, and the table keeps the mappings for the next pass. Nothing
// may write to them after that: the same candidates realized twice from
// one table rebuild, from each pass's sub-schedules, into the same bytes
// at the same times, no memory is shared between the two passes, and
// -race sees no write.
func TestSharedMappingsAreReadOnly(t *testing.T) {
	top, col := digestCase(t, "h800small:allgather:1M")
	opts := Options{Workers: 4}.withDefaults()
	sketches := searchCached(t.Context(), top, 0, false, opts)
	combos := buildCombinations(t.Context(), top, col, sketches, true, false, opts)
	tab := isomorph.NewTable()
	ws := new(workspace).fit(opts.Workers)
	pool := assembleAll(top, col, combos, tab, opts, ws, nil)
	so := opts.passSolver(false)

	var stats [2]Stats
	var runs [2][]realized
	for i := range runs {
		runs[i] = realizeAll(t.Context(), top, tab, pool, so, opts, ws, &stats[i], nil, nil, "coarse")
	}
	stats[0].MaxSolve, stats[1].MaxSolve = 0, 0 // wall time
	if stats[0].CacheHits == 0 || !reflect.DeepEqual(stats[0], stats[1]) {
		t.Fatalf("stats %+v then %+v", stats[0], stats[1])
	}
	for ci, c := range pool {
		a, b := runs[0][ci], runs[1][ci]
		if !a.ok || !b.ok {
			t.Fatalf("candidate %d unrealized", ci)
		}
		sa, errA := c.asm.build(new(buildBuffer), a.subs)
		sb, errB := c.asm.build(new(buildBuffer), b.subs)
		if errA != nil || errB != nil {
			t.Fatalf("candidate %d: rebuild: %v, %v", ci, errA, errB)
		}
		if math.Float64bits(a.time) != math.Float64bits(b.time) || scheduleBytesDigest(sa) != scheduleBytesDigest(sb) {
			t.Errorf("candidate %d: second build from the same table differs", ci)
		}
		if &sa.Transfers[0] == &sb.Transfers[0] || &sa.Pieces[0] == &sb.Pieces[0] {
			t.Errorf("candidate %d: two builds share schedule memory", ci)
		}
		for i := range a.subs {
			if a.subs[i] == b.subs[i] || &a.subs[i].Transfers[0] == &b.subs[i].Transfers[0] {
				t.Errorf("candidate %d: two passes share cell %d's sub-schedule", ci, i)
			}
		}
	}
}
