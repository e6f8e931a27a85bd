package engine

// Tests for the disk tier behind the solve cache: a fresh engine on a
// reopened persist store must replay previously synthesized plans
// bit-identically with zero solver calls, and a corrupted corpus must
// degrade to cold synthesis — never to a bad schedule.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/persist"
	"syccl/internal/solve"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// The concrete store must satisfy the engine's tier interface.
var _ PersistTier = (*persist.Store)(nil)

func openPersist(t *testing.T, dir string) *persist.Store {
	t.Helper()
	s, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// packFiles lists the committed pack files under a persist directory.
func packFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), ".pack") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEnginePersistWarmBoot is the restart contract: engine A solves a
// plan cold and writes through to disk; a brand-new engine B — empty
// LRUs, fresh store handle on the same directory — must produce the
// bit-identical schedule with zero solver calls, served entirely from
// the persist tier.
func TestEnginePersistWarmBoot(t *testing.T) {
	dir := t.TempDir()
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)

	engA := New(Options{Persist: openPersist(t, dir)})
	cold, err := engA.Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.SolverCalls == 0 {
		t.Fatal("cold plan made no solver calls; test is vacuous")
	}
	if len(packFiles(t, dir)) == 0 {
		t.Fatal("cold plan wrote nothing through to disk")
	}

	// "Reboot": new store handle, new engine, no shared memory.
	storeB := openPersist(t, dir)
	engB := New(Options{Persist: storeB})
	warm, err := engB.Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.SolverCalls != 0 {
		t.Fatalf("warm-boot plan executed %d solver calls", warm.Stats.SolverCalls)
	}
	st := engB.Stats()
	if st.PersistHits == 0 {
		t.Fatalf("warm-boot plan never hit the disk tier: %+v", st)
	}
	if warm.Time != cold.Time {
		t.Fatalf("warm time %v != cold time %v", warm.Time, cold.Time)
	}
	if !reflect.DeepEqual(warm.Schedule, cold.Schedule) {
		t.Fatal("warm-boot schedule differs from cold schedule")
	}
	if err := verify.CheckSchedule(col, warm.Schedule); err != nil {
		t.Fatalf("warm-boot schedule invalid: %v", err)
	}
	// Promotion on persist hit must not write back: everything engB read
	// was already on disk, so no duplicate stores may reach the store.
	if ps := storeB.Stats(); ps.Stores != 0 {
		t.Fatalf("warm boot wrote %d entries back to disk (%+v)", ps.Stores, ps)
	}
}

// countingTier records the batches the engine hands its disk tier.
type countingTier struct {
	*persist.Store
	mu   sync.Mutex
	sigs []string // one per PutAll call
}

func (c *countingTier) PutAll(ds []*solve.Demand, sig string, subs []*solve.SubSchedule) error {
	c.mu.Lock()
	c.sigs = append(c.sigs, sig)
	c.mu.Unlock()
	return c.Store.PutAll(ds, sig, subs)
}

// A cold plan commits each solve pass's new sub-schedules as one pack: on
// a fresh store it leaves one pack file per pass that solved something
// (the coarse and the fine pass, each under its own solve signature),
// every solved representative is in them, and a reboot replays the plan
// from them with zero solver calls.
func TestColdPlanWritesOnePackPerPass(t *testing.T) {
	dir := t.TempDir()
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	tier := &countingTier{Store: openPersist(t, dir)}
	cold := mustPlan(t, New(Options{Persist: tier}), top, col, core.Options{Workers: 4})

	passes := map[string]bool{}
	for _, sig := range tier.sigs {
		passes[sig] = true
	}
	packs := packFiles(t, dir)
	if len(packs) == 0 || len(packs) > 2 || len(packs) != len(tier.sigs) || len(passes) != len(tier.sigs) {
		t.Fatalf("cold plan left %d pack files for %d batches over %d solve signatures", len(packs), len(tier.sigs), len(passes))
	}
	if st := tier.Stats(); st.Stores != int64(cold.Stats.SolverCalls) || st.Duplicates != 0 {
		t.Fatalf("%d solver calls, persist stats %+v", cold.Stats.SolverCalls, st)
	}

	store := openPersist(t, dir)
	warm := mustPlan(t, New(Options{Persist: store}), top, col, core.Options{Workers: 4})
	sameResult(t, "plan replayed from packs", warm, cold)
	if warm.Stats.SolverCalls != 0 || store.Stats().Stores != 0 {
		t.Fatalf("rebooted plan: %d solver calls, persist stats %+v", warm.Stats.SolverCalls, store.Stats())
	}
}

// After the memory tier is warm, a repeat plan that runs the full pass
// (its winner recipe dropped) is served by the LRU and must not touch the
// disk tier at all — the persist counters stay flat.
func TestPersistNotConsultedOnMemoryHit(t *testing.T) {
	dir := t.TempDir()
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	eng := New(Options{Persist: openPersist(t, dir)})

	if _, err := eng.Plan(context.Background(), top, col, quickOpts()); err != nil {
		t.Fatal(err)
	}
	dropRecipes(eng)
	before := eng.Stats()
	res, err := eng.Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Replayed {
		t.Fatal("full-pass plan replayed")
	}
	st := eng.Stats()
	if st.PersistHits != before.PersistHits || st.PersistMisses != before.PersistMisses {
		t.Fatalf("memory-warm plan consulted the disk tier: before %+v, after %+v", before, st)
	}
	if st.SolveHits == before.SolveHits {
		t.Fatalf("memory-warm plan missed the LRU: %+v", st)
	}
}

// TestEnginePersistCorruptFallsBack flips a byte in every on-disk entry
// between boots: the rebooted engine must fall back to cold synthesis
// (solver calls again), the result must still pass the chunk-replay
// oracle, and the damage must be counted — never served.
func TestEnginePersistCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)

	engA := New(Options{Persist: openPersist(t, dir)})
	cold, err := engA.Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	files := packFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no entries written")
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x5a
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	storeB := openPersist(t, dir)
	if ps := storeB.Stats(); ps.CorruptEntries == 0 {
		t.Fatalf("corruption not detected at boot: %+v", ps)
	}
	engB := New(Options{Persist: storeB})
	rebuilt, err := engB.Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatalf("plan failed instead of falling back to cold synthesis: %v", err)
	}
	if rebuilt.Stats.SolverCalls == 0 {
		t.Fatal("corrupt corpus served a plan with zero solver calls")
	}
	if err := verify.CheckSchedule(col, rebuilt.Schedule); err != nil {
		t.Fatalf("rebuilt schedule invalid: %v", err)
	}
	// Determinism: cold synthesis after corruption reproduces the
	// original answer, and the re-written corpus warm-boots again.
	if !reflect.DeepEqual(rebuilt.Schedule, cold.Schedule) {
		t.Fatal("rebuilt schedule differs from the original cold schedule")
	}
	engC := New(Options{Persist: openPersist(t, dir)})
	again, err := engC.Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.SolverCalls != 0 {
		t.Fatalf("re-written corpus did not warm-boot: %d solver calls", again.Stats.SolverCalls)
	}
}

// forgingTier writes every sub-schedule through with its first transfer
// naming a piece the demand does not have: bytes whose checksum holds,
// as a buggy or foreign writer would leave them.
type forgingTier struct{ *persist.Store }

func (f forgingTier) PutAll(ds []*solve.Demand, sig string, subs []*solve.SubSchedule) error {
	forged := make([]*solve.SubSchedule, len(subs))
	for i, sub := range subs {
		bad := *sub
		bad.Transfers = append([]solve.Transfer(nil), sub.Transfers...)
		bad.Transfers[0].Piece = len(ds[i].Pieces)
		forged[i] = &bad
	}
	return f.Store.PutAll(ds, sig, forged)
}

// TestEnginePersistTamperedEntryFallsBack: a rebooted engine over a
// corpus of checksummed but out-of-range entries must drop them and
// re-solve, returning the cold plan. Handed to the assembly, such an entry
// indexes out of range inside a worker goroutine and kills the process.
func TestEnginePersistTamperedEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	opts := core.Options{Workers: 4}
	cold := mustPlan(t, New(Options{Persist: forgingTier{openPersist(t, dir)}}), top, col, opts)

	store := openPersist(t, dir)
	res := mustPlan(t, New(Options{Persist: store}), top, col, opts)
	sameResult(t, "plan over a tampered corpus", res, cold)
	if ps := store.Stats(); res.Stats.SolverCalls == 0 || ps.CorruptEntries == 0 || ps.HitExact != 0 {
		t.Fatalf("tampered corpus: %d solver calls, persist stats %+v", res.Stats.SolverCalls, ps)
	}
}

// A relabeled request on a rebooted engine — the case the disk tier's
// iso-class fallback used to serve by mapping another root's solutions —
// is answered exactly as a cold run answers it: the sub-demands the two
// roots share verbatim replay from disk, the rest are solved.
func TestEnginePersistIsoFallbackAcrossBoot(t *testing.T) {
	dir := t.TempDir()
	top := topology.SingleServer(8)

	engA := New(Options{Persist: openPersist(t, dir)})
	col0 := collective.Broadcast(top.NumGPUs(), 0, 1<<20)
	if _, err := engA.Plan(context.Background(), top, col0, quickOpts()); err != nil {
		t.Fatal(err)
	}

	engB := New(Options{Persist: openPersist(t, dir)})
	col1 := collective.Broadcast(top.NumGPUs(), 1, 1<<20)
	res, err := engB.Plan(context.Background(), top, col1, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st := engB.Stats(); st.PersistHits == 0 {
		t.Fatalf("relabeled request never hit the disk tier: %+v", st)
	}
	cold, err := core.Synthesize(top, col1, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != cold.Time || !reflect.DeepEqual(res.Schedule, cold.Schedule) {
		t.Fatal("relabeled request on a rebooted engine differs from its cold synthesis")
	}
}
