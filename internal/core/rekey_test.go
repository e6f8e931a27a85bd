package core

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/nccl"
	"syccl/internal/obs"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// assembledWinner rebuilds a result's winner as the pipeline had it
// before readyOrder: the forward schedule from the recipe, finished, in
// its assembled Orders, with its finished time and the finisher.
func assembledWinner(t *testing.T, top *topology.Topology, col *collective.Collective, res *Result, so sim.Options) (fwd, out *schedule.Schedule, tm float64, fin finisher) {
	t.Helper()
	fwdCol, fin := finisherFor(top, col, so)
	rc := res.Recipe
	var err error
	if rc.Source == "ring" {
		fwd, err = nccl.AllGather(top, fwdCol)
	} else {
		var a *assembly
		if a, err = newAssembly(nil, top, fwdCol, rc.Combination); err == nil {
			fwd, err = a.build(new(buildBuffer), rc.Subs)
		}
	}
	if err != nil {
		t.Fatalf("rebuilding the winner: %v", err)
	}
	fwdTime, err := sim.Time(top, fwd, so)
	if err != nil {
		t.Fatal(err)
	}
	if out, tm, err = fin.finish(nil, fwd, fwdTime); err != nil {
		t.Fatal(err)
	}
	return fwd, out, tm, fin
}

// withRanks is s with transfer i's Order set to ranks[i].
func withRanks(s *schedule.Schedule, ranks []int32) *schedule.Schedule {
	out := &schedule.Schedule{NumGPUs: s.NumGPUs, Pieces: s.Pieces, Transfers: slices.Clone(s.Transfers)}
	applyRanks(out, ranks)
	return out
}

// checkReadyOrder holds one synthesis result to the re-keying contract:
//   - the ready ranks (kept or not) leave every dependency ranked earlier
//     and pass the oracle — an AllReduce as two phases;
//   - readyOrder is never slower than its input, and keeps the ranks
//     exactly when strictly faster;
//   - the result is what readyOrder returns (the ring's, what it was
//     given), and its recipe carries the ranks it kept.
//
// It reports whether the ranks were kept.
func checkReadyOrder(t *testing.T, top *topology.Topology, col *collective.Collective, res *Result, so sim.Options) bool {
	t.Helper()
	if res.Recipe == nil {
		return false // a routed one-to-one transfer: nothing is re-keyed
	}
	fwd, out, tm, fin := assembledWinner(t, top, col, res, so)
	if ok, i, d := depsRankEarlier(out); !ok {
		t.Fatalf("assembled winner: transfer %d depends on %d, ranked later", i, d)
	}
	r, err := sim.Simulate(top, out, so)
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	if fin.twoPhase {
		split = len(fwd.Transfers)
	}
	if ranks := readyRanks(top, out.Transfers, r.FinishAt, split, new(rekeyScratch)); ranks != nil {
		ranked := withRanks(out, ranks)
		if ok, i, d := depsRankEarlier(ranked); !ok {
			t.Fatalf("ready ranks: transfer %d depends on %d, ranked later", i, d)
		}
		if err := verify.CheckSchedule(col, ranked); err != nil {
			t.Fatalf("ready ranks fail the oracle: %v", err)
		}
	}
	// readyOrder re-keys its input in place: give it a copy of the
	// Orders, which must come back as they were when no ranks are kept.
	in := &schedule.Schedule{NumGPUs: out.NumGPUs, Pieces: out.Pieces, Transfers: slices.Clone(out.Transfers)}
	got, gt, kept := readyOrder(top, fwd, in, tm, fin, so, new(rekeyScratch))
	switch {
	case gt > tm:
		t.Fatalf("re-keyed %v, slower than the input's %v", gt, tm)
	case (kept != nil) != (gt < tm):
		t.Fatalf("ranks kept %v at %v against %v", kept != nil, gt, tm)
	case got != in:
		t.Fatal("readyOrder did not return its input")
	case kept == nil && !reflect.DeepEqual(in, out):
		t.Fatal("readyOrder kept no ranks but changed its input")
	}
	if res.Recipe.Source == "ring" {
		got, gt, kept = out, tm, nil // the pipeline leaves the ring as built
	}
	switch {
	case gt != res.Time || !reflect.DeepEqual(got, res.Schedule):
		t.Fatalf("the result (%v) is not readyOrder's (%v)", res.Time, gt)
	case !reflect.DeepEqual(kept, res.Recipe.Ranks):
		t.Fatal("the recipe does not carry the kept ranks")
	}
	return kept != nil
}

// TestReadyOrderProperty runs checkReadyOrder over
// TestDifferentialRandomized's corpus (verify's 200 random topology ×
// collective pairs, seed 7, the same simulator options) and over the
// cold-digest specs, nine of which keep their ranks.
func TestReadyOrderProperty(t *testing.T) {
	t.Run("randomized", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		kept := 0
		for i := 0; i < 200; i++ {
			top := verify.RandomTopology(rng)
			kind := verify.AllKinds[i%len(verify.AllKinds)]
			col := verify.RandomCollective(rng, kind, top.NumGPUs())
			so := sim.DefaultOptions()
			switch i % 3 {
			case 1:
				so = sim.Options{}
			case 2:
				so = sim.Options{BlockBytes: 64 * 1024, MaxBlocks: 4}
			}
			opts := Options{Sim: so}
			res, err := Synthesize(top, col, opts)
			if err != nil {
				t.Fatalf("%03d %v on %s: %v", i, kind, top.Name, err)
			}
			// Zero options run at the defaults.
			if checkReadyOrder(t, top, col, res, opts.withDefaults().Sim) {
				kept++
			}
		}
		if kept == 0 {
			t.Error("no winner of the corpus keeps ready ranks")
		}
		t.Logf("%d of 200 winners keep ready ranks", kept)
	})
	t.Run("cold specs", func(t *testing.T) {
		specs := coldDigestSpecs()
		if testing.Short() {
			specs = specs[:36] // dgx4 and server8
		}
		var kept []string
		for _, spec := range specs {
			top, col := digestCase(t, spec)
			if checkReadyOrder(t, top, col, synth(t, top, col, Options{}), sim.DefaultOptions()) {
				kept = append(kept, spec)
			}
		}
		if !testing.Short() && len(kept) != 9 {
			t.Errorf("%d specs keep their ranks, want 9: %v", len(kept), kept)
		}
	})
}

// TestReadyRanksStayInPhase: ranking an AllReduce's transfers across its
// two phases puts ReduceScatter transfers among the AllGather ones, and
// the oracle no longer finds the phase split ("not in two-phase form");
// ranked within each phase, the same schedule passes.
func TestReadyRanksStayInPhase(t *testing.T) {
	top, col := digestCase(t, "h800small:allreduce:1M")
	so := sim.DefaultOptions()
	res := synth(t, top, col, Options{})
	fwd, out, _, _ := assembledWinner(t, top, col, res, so)
	r, err := sim.Simulate(top, out, so)
	if err != nil {
		t.Fatal(err)
	}
	across := readyRanks(top, out.Transfers, r.FinishAt, 0, new(rekeyScratch))
	if across == nil {
		t.Fatal("ready order keeps the assembled order")
	}
	if err := verify.CheckAllReduce(col, withRanks(out, across)); err == nil || !strings.Contains(err.Error(), "not in two-phase form") {
		t.Errorf("ranked across phases: oracle says %v, want the two-phase error", err)
	}
	within := readyRanks(top, out.Transfers, r.FinishAt, len(fwd.Transfers), new(rekeyScratch))
	if err := verify.CheckAllReduce(col, withRanks(out, within)); err != nil {
		t.Errorf("ranked within phases: %v", err)
	}
}

// TestReplayOfRekeyedWinner: a recipe of a re-keyed winner replays the
// re-keyed bytes with one simulation, where the replay before ready
// order ran one for the forward schedule and, for a reduction or an
// AllReduce, a second for the finished one.
func TestReplayOfRekeyedWinner(t *testing.T) {
	for spec, parentSims := range map[string]int{
		"h800x64:alltoall:64M":   1,
		"a100x16:gather:64M":     2,
		"h800small:allreduce:1M": 2,
	} {
		top, col := digestCase(t, spec)
		cold := synth(t, top, col, Options{})
		if cold.Recipe.Ranks == nil {
			t.Fatalf("%s: the winner kept its assembled order", spec)
		}
		rec := obs.NewRecorder()
		warm := synth(t, top, col, Options{Recipe: cold.Recipe, Obs: rec})
		if !warm.Stats.Replayed || warm.Time != cold.Time || !reflect.DeepEqual(warm.Schedule, cold.Schedule) {
			t.Fatalf("%s: replay differs from the full pass (replayed %v)", spec, warm.Stats.Replayed)
		}
		sims := 0
		for _, s := range rec.Spans() {
			if s.Name == "sim.simulate" {
				sims++
			}
		}
		if sims != 1 {
			t.Errorf("%s: the replay ran %d simulations, want 1 (%d before)", spec, sims, parentSims)
		}
	}
}

// readySeqReference is readySeq as one comparison sort per phase of
// (ready time, Order, index) keys: readyRanks' ranking before its radix
// sorts, kept as their oracle.
func readySeqReference(ts []schedule.Transfer, finishAt []float64, split int) []int32 {
	type key struct {
		ready float64
		order int
		i     int32
	}
	keys := make([]key, len(ts))
	for i := range ts {
		keys[i] = key{order: ts[i].Order, i: int32(i)}
		for _, d := range ts[i].Deps {
			keys[i].ready = max(keys[i].ready, finishAt[d])
		}
	}
	byReady := func(a, b key) int {
		return cmp.Or(cmp.Compare(a.ready, b.ready), cmp.Compare(a.order, b.order), cmp.Compare(a.i, b.i))
	}
	slices.SortFunc(keys[:split], byReady)
	slices.SortFunc(keys[split:], byReady)
	seq := make([]int32, len(keys))
	for k := range keys {
		seq[k] = keys[k].i
	}
	return seq
}

// TestReadySeqMatchesReference holds the radix ranking to the comparison
// sort, position for position (so readyRanks' ranks are the same rank
// for rank): on random transfer lists with tied and zero ready times,
// duplicate and negative Orders, Order spans past 2³¹ and 2³² (the
// comparison fallback), splits anywhere, and n from 0 up; and on real
// winners, an AllReduce's split between its phases included.
func TestReadySeqMatchesReference(t *testing.T) {
	check := func(name string, ts []schedule.Transfer, finishAt []float64, split int) {
		t.Helper()
		if got, want := readySeq(ts, finishAt, split, new(rekeyScratch)), readySeqReference(ts, finishAt, split); !slices.Equal(got, want) {
			t.Fatalf("%s (%d transfers, split %d): radix order %v, comparison order %v", name, len(ts), split, got, want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	levels := []float64{0, 1e-6, 2.5e-6, 3e-5, math.Nextafter(3e-5, 1), 0.75, math.SmallestNonzeroFloat64, 1e300}
	spans := []int{1, 4, 300, 1 << 31, 1 << 32, math.MaxInt}
	for iter := 0; iter < 2000; iter++ {
		n := iter % 7
		if iter >= 100 {
			n = rng.Intn(400)
		}
		span := spans[iter%len(spans)]
		base := rng.Intn(11) - 5
		ts := make([]schedule.Transfer, n)
		finishAt := make([]float64, n)
		for i := range ts {
			ts[i].Order = base + rng.Intn(span)
			if span == math.MaxInt && rng.Intn(2) == 0 {
				ts[i].Order = math.MinInt + rng.Intn(3)
			}
			for k := rng.Intn(4); k > 0; k-- {
				ts[i].Deps = append(ts[i].Deps, rng.Intn(n))
			}
			finishAt[i] = levels[rng.Intn(len(levels))]
			if rng.Intn(3) == 0 {
				finishAt[i] = rng.Float64() * 1e-3
			}
		}
		split := 0
		if iter%2 == 1 {
			split = rng.Intn(n + 1)
		}
		check("random", ts, finishAt, split)
	}
	for _, spec := range []string{"h800small:allreduce:1M", "h800x64:alltoall:64M", "a100x16:gather:64M"} {
		top, col := digestCase(t, spec)
		so := sim.DefaultOptions()
		fwd, out, _, fin := assembledWinner(t, top, col, synth(t, top, col, Options{}), so)
		r, err := sim.Simulate(top, out, so)
		if err != nil {
			t.Fatal(err)
		}
		check(spec, out.Transfers, r.FinishAt, 0)
		if fin.twoPhase {
			check(spec, out.Transfers, r.FinishAt, len(fwd.Transfers))
		}
	}
}
