package engine

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/sim"
	"syccl/internal/sketch"
	"syccl/internal/topology"
)

// TestPlanKeyCoalescingContract pins what PlanKey must and must not
// distinguish: worker counts coalesce (schedules are byte-identical
// across them), while anything that changes the synthesized schedule —
// topology shape, demand, seed, epoch knobs — must split the key.
func TestPlanKeyCoalescingContract(t *testing.T) {
	top := topology.SingleServer(4)
	col := collective.AllGather(4, 1<<20)
	base := core.Options{E1: 3.0, E2: 0.5, Workers: 1}

	key := PlanKey(top, col, base)
	if key == "" {
		t.Fatal("empty key")
	}

	// Same request, rebuilt values: identical key.
	if k := PlanKey(topology.SingleServer(4), collective.AllGather(4, 1<<20), base); k != key {
		t.Fatalf("rebuilt request keyed differently:\n%s\n%s", key, k)
	}

	// The worker count is excluded: it never changes the schedule.
	w8 := base
	w8.Workers = 8
	if k := PlanKey(top, col, w8); k != key {
		t.Fatal("Workers changed the key")
	}

	// Everything schedule-relevant must split the key.
	diff := map[string]string{
		"topology": PlanKey(topology.SingleServer(8), collective.AllGather(8, 1<<20), base),
		"kind":     PlanKey(top, collective.ReduceScatter(4, 1<<20), base),
		"size":     PlanKey(top, collective.AllGather(4, 1<<21), base),
		"root":     PlanKey(top, collective.Broadcast(4, 1, 1<<20), base),
	}
	seedOpts := base
	seedOpts.Seed = 7
	diff["seed"] = PlanKey(top, col, seedOpts)
	e1Opts := base
	e1Opts.E1 = 2.0
	diff["e1"] = PlanKey(top, col, e1Opts)
	seen := map[string]string{key: "base"}
	for what, k := range diff {
		if prev, ok := seen[k]; ok {
			t.Fatalf("%s collides with %s: %s", what, prev, k)
		}
		seen[k] = what
	}

	// Two Broadcasts from different roots differ only in the chunk maps:
	// the digest must separate them.
	b0 := PlanKey(top, collective.Broadcast(4, 0, 1<<20), base)
	b1 := PlanKey(top, collective.Broadcast(4, 1, 1<<20), base)
	if b0 == b1 {
		t.Fatal("chunk digest missed a root change")
	}
}

// TestPlanKeyIsTheDefaultedOptions: PlanKey keys what runs, not what was
// spelled. Unset options and their spelled-out defaults run identically
// and share a key; options that differ only in the ranking simulator's
// block configuration may pick another winner and do not.
func TestPlanKeyIsTheDefaultedOptions(t *testing.T) {
	top := topology.SingleServer(4)
	col := collective.AllGather(4, 1<<20)
	unset := PlanKey(top, col, core.Options{})
	spelled := core.Options{E1: 3, E2: 0.5, Sim: sim.DefaultOptions()}
	if k := PlanKey(top, col, spelled); k != unset {
		t.Fatalf("spelled-out defaults keyed differently:\n%s\n%s", unset, k)
	}
	other := spelled
	other.Sim = sim.Options{BlockBytes: 64 << 10, MaxBlocks: 4}
	if PlanKey(top, col, other) == unset {
		t.Fatal("options differing only in Sim share a key")
	}
}

// planKeyExcluded lists the option fields PlanKey deliberately leaves
// out, with the reason each can never change the schedule. Every other
// field of core.Options and of the sketch.SearchOptions and sim.Options
// nested in it must change the key (TestPlanKeyCoversEveryOption); a new
// field fails that test until it is keyed or argued onto this list.
var planKeyExcluded = map[string]string{
	"Workers":     "schedules are byte-identical across worker counts",
	"Obs":         "instrumentation only",
	"SolveCache":  "cache wiring; the engine installs its own",
	"SketchCache": "cache wiring; the engine installs its own",
	"BoundCache":  "cache wiring; the engine installs its own",
	"OnIncumbent": "publication is observation-only",
	"Recipe":      "replays the same bytes or falls back",
	"Search.Rec":  "instrumentation only",
	"Sim.Rec":     "instrumentation only",
}

// perturb sets a field to a non-zero value of its type; it reports false
// for kinds it cannot fill generically (interfaces, funcs, recorders).
func perturb(f reflect.Value) bool {
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(2)
	case reflect.Float64:
		f.SetFloat(1.5)
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Ptr:
		if f.Type() != reflect.TypeOf((*sketch.Hint)(nil)) {
			return false
		}
		f.Set(reflect.ValueOf(&sketch.Hint{Family: sketch.FamilyTree}))
	default:
		return false
	}
	return true
}

// TestPlanKeyCoversEveryOption walks every field of core.Options and of
// the sketch.SearchOptions and sim.Options nested in it: perturbing a
// field must change the key unless the field is on planKeyExcluded, in
// which case it must not. Equal keys promise byte-identical schedules,
// so an option that steers synthesis but not the key would alias two
// different schedules in the schedule store, the flights, the recipe
// cache and the schedule ids.
func TestPlanKeyCoversEveryOption(t *testing.T) {
	top := topology.SingleServer(4)
	col := collective.AllGather(4, 1<<20)
	base := PlanKey(top, col, core.Options{})

	seen := map[string]bool{}
	var walk func(prefix string, field func(*core.Options) reflect.Value)
	walk = func(prefix string, field func(*core.Options) reflect.Value) {
		var zero core.Options
		typ := field(&zero).Type()
		for i := 0; i < typ.NumField(); i++ {
			name := prefix + typ.Field(i).Name
			if name == "Search" || name == "Sim" {
				walk(name+".", func(o *core.Options) reflect.Value { return field(o).Field(i) })
				continue
			}
			seen[name] = true
			var opts core.Options
			settable := perturb(field(&opts).Field(i))
			_, excluded := planKeyExcluded[name]
			switch changed := PlanKey(top, col, opts) != base; {
			case excluded && changed:
				t.Errorf("%s is on the exclusion list but changes the key", name)
			case !excluded && !settable:
				t.Errorf("%s: the test cannot perturb this kind of field; key it and teach perturb, or exclude it with a reason", name)
			case !excluded && !changed:
				t.Errorf("%s steers synthesis but not PlanKey: key it, or exclude it with a reason", name)
			}
		}
	}
	walk("", func(o *core.Options) reflect.Value { return reflect.ValueOf(o).Elem() })
	for name := range planKeyExcluded {
		if !seen[name] {
			t.Errorf("exclusion list names %s, which no longer exists", name)
		}
	}
}

// TestPlanKeySearchOptionsChangeSchedules is the defect behind the
// coverage test: capping the sketch search at one stage changes the
// synthesized Broadcast, so the two requests must not share a key.
func TestPlanKeySearchOptionsChangeSchedules(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.Broadcast(top.NumGPUs(), 0, 1<<20)
	full := core.Options{E1: 3, E2: 0.5}
	capped := full
	capped.Search.MaxStages = 1

	a, err := core.Synthesize(top, col, full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Synthesize(top, col, capped)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time == b.Time {
		t.Skipf("MaxStages=1 no longer changes this schedule (%g s)", a.Time)
	}
	if PlanKey(top, col, full) == PlanKey(top, col, capped) {
		t.Fatalf("schedules differ (%g s vs %g s) under one PlanKey", a.Time, b.Time)
	}
}

// chunkDigestReference is chunkDigest as it stood when it fed the hash
// through fmt, kept verbatim: every schedule id, serve golden and
// persisted snapshot hangs off these bytes.
func chunkDigestReference(col *collective.Collective) uint64 {
	h := fnv.New64a()
	for _, ch := range col.Chunks {
		fmt.Fprintf(h, "%d:%d:", ch.ID, ch.Src)
		for _, d := range ch.Dsts {
			fmt.Fprintf(h, "%d,", d)
		}
		h.Write([]byte{';'})
	}
	return h.Sum64()
}

func TestChunkDigestStable(t *testing.T) {
	cols := []*collective.Collective{
		{}, // no chunks
		{Chunks: []collective.Chunk{{ID: -3, Src: -1}, {ID: 1 << 40, Src: 7, Dsts: []int{-2, 0, 1 << 33}}}},
	}
	for _, n := range []int{2, 5, 64} {
		cols = append(cols,
			collective.SendRecv(n, 0, n-1, 1), collective.Broadcast(n, 1, 1), collective.Scatter(n, 0, 1),
			collective.Gather(n, 1, 1), collective.Reduce(n, 0, 1), collective.AllGather(n, 1),
			collective.AlltoAll(n, 1), collective.ReduceScatter(n, 1), collective.AllReduce(n, 1))
	}
	for i, col := range cols {
		if got, want := chunkDigest(col), chunkDigestReference(col); got != want {
			t.Errorf("collective %d (%v, %d chunks): digest %016x, want %016x", i, col.Kind, len(col.Chunks), got, want)
		}
	}
}
