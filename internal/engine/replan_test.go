package engine

import (
	"context"
	"reflect"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/persist"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// nvSwitchOf returns the node ID of server s's NVSwitch.
func nvSwitchOf(t *testing.T, top *topology.Topology, server int) int {
	t.Helper()
	for _, nd := range top.Nodes {
		if nd.Kind == topology.KindNVSwitch && nd.Server == server {
			return nd.ID
		}
	}
	t.Fatalf("no NVSwitch for server %d in %s", server, top.Name)
	return -1
}

func mustParseDelta(t *testing.T, spec string) *topology.Delta {
	t.Helper()
	d, err := topology.ParseDelta(spec)
	if err != nil {
		t.Fatalf("ParseDelta(%q): %v", spec, err)
	}
	return d
}

// mustApply parses a delta spec and applies it to base.
func mustApply(t *testing.T, base *topology.Topology, spec string) *topology.Topology {
	t.Helper()
	degraded, err := mustParseDelta(t, spec).Apply(base)
	if err != nil {
		t.Fatalf("Apply(%q): %v", spec, err)
	}
	return degraded
}

// TestReplanDifferential is the differential contract of the tentpole:
// Replan(base, degraded) on a warm engine must be bit-identical to a cold
// Plan on the pre-applied degraded topology, while reusing at least half
// of the sub-schedules from cache — with zero solver calls for the
// untouched groups — and the result must pass the chunk-replay oracle.
func TestReplanDifferential(t *testing.T) {
	base := topology.H800Small(4) // 4 servers × 4 GPUs: 4+4 groups over 2 dims
	col := collective.AllGather(base.NumGPUs(), 1<<20)
	nv0 := nvSwitchOf(t, base, 0)
	delta := mustParseDelta(t, "slow:0-"+itoa(nv0)+"*4")

	// Cold reference: a fresh engine planning directly on the degraded
	// topology.
	degraded, err := delta.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	coldEng := New(Options{})
	cold, err := coldEng.Plan(context.Background(), degraded, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.SolverCalls == 0 {
		t.Fatal("cold degraded plan executed no solver calls; test cannot discriminate")
	}

	// Warm path: plan on the healthy base first, then replan with the delta.
	eng := New(Options{})
	if _, err := eng.Plan(context.Background(), base, col, quickOpts()); err != nil {
		t.Fatal(err)
	}
	rr, err := eng.Replan(context.Background(), base, degraded, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}

	if rr.Degraded.Fingerprint() != degraded.Fingerprint() {
		t.Fatalf("replan degraded fingerprint mismatch:\n got %s\nwant %s", rr.Degraded.Fingerprint(), degraded.Fingerprint())
	}
	if rr.Time != cold.Time {
		t.Fatalf("replan time %v != cold degraded time %v", rr.Time, cold.Time)
	}
	if !reflect.DeepEqual(rr.Schedule, cold.Schedule) {
		t.Fatal("replanned schedule differs from cold synthesis on the pre-applied degraded topology")
	}
	if err := verify.CheckSchedule(col, rr.Schedule); err != nil {
		t.Fatalf("replanned schedule fails the chunk-replay oracle: %v", err)
	}

	// Cache-reuse contract: the delta touched 1 of 8 groups, so at least
	// half the sub-schedules replay from cache and only the touched
	// group's new demand shapes reach the solver.
	if rr.TouchedGroups != 1 || rr.TotalGroups != 8 {
		t.Errorf("touched %d/%d groups, want 1/8", rr.TouchedGroups, rr.TotalGroups)
	}
	if rr.ReusedSubs == 0 {
		t.Fatal("replan reused nothing from cache")
	}
	if ratio := rr.ReuseRatio(); ratio < 0.5 {
		t.Errorf("replan reuse ratio %.2f < 0.5 (reused %d, solved %d)", ratio, rr.ReusedSubs, rr.SolvedSubs)
	}
	if rr.SolvedSubs >= cold.Stats.SolverCalls {
		t.Errorf("replan solved %d sub-demands, cold run solved %d — untouched groups were re-solved",
			rr.SolvedSubs, cold.Stats.SolverCalls)
	}
	st := eng.Stats()
	if st.Replans != 1 {
		t.Errorf("Stats.Replans = %d, want 1", st.Replans)
	}
	if st.ReplanReused == 0 {
		t.Error("Stats.ReplanReused = 0, want > 0")
	}
	// The healthy group shape still exists (3 untouched NVSwitch groups),
	// so nothing may be invalidated.
	if rr.Invalidated != 0 || st.ReplanInvalidated != 0 {
		t.Errorf("invalidated %d entries though the healthy shape survives", rr.Invalidated)
	}
}

// TestReplanLinkKillDifferential runs the same differential on a
// structural delta: killing a rail uplink reshapes the rail partition
// (orphaning one GPU on that rail) rather than just re-costing a group.
func TestReplanLinkKillDifferential(t *testing.T) {
	base := topology.H800Small(4)
	col := collective.AllGather(base.NumGPUs(), 1<<18)

	// GPU 0's NIC and its uplink to the rail-0 leaf.
	nic := -1
	for _, l := range base.Links {
		if l.Src == 0 && base.Nodes[l.Dst].Kind == topology.KindNIC {
			nic = l.Dst
			break
		}
	}
	leaf := -1
	for _, l := range base.Links {
		if l.Src == nic && base.Nodes[l.Dst].Kind == topology.KindLeafSwitch {
			leaf = l.Dst
			break
		}
	}
	if nic < 0 || leaf < 0 {
		t.Fatal("could not locate GPU 0's rail uplink")
	}
	delta := mustParseDelta(t, "kill:"+itoa(nic)+"-"+itoa(leaf))

	degraded, err := delta.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	coldEng := New(Options{})
	cold, err := coldEng.Plan(context.Background(), degraded, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}

	eng := New(Options{})
	if _, err := eng.Plan(context.Background(), base, col, quickOpts()); err != nil {
		t.Fatal(err)
	}
	rr, err := eng.Replan(context.Background(), base, degraded, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr.Schedule, cold.Schedule) {
		t.Fatal("replanned schedule differs from cold synthesis on the degraded topology")
	}
	if err := verify.CheckSchedule(col, rr.Schedule); err != nil {
		t.Fatalf("replanned schedule fails the oracle: %v", err)
	}
	if rr.ReusedSubs == 0 {
		t.Error("structural replan reused nothing; untouched dim-0 groups should replay")
	}
	// A single killed link touches 1 of 8 groups; the warm replan must
	// reuse at least half the sub-schedules.
	if ratio := rr.ReuseRatio(); ratio < 0.5 {
		t.Errorf("link-kill replan reuse ratio %.2f < 0.5 (reused %d, solved %d)",
			ratio, rr.ReusedSubs, rr.SolvedSubs)
	}
}

// TestReplanInvalidatesUnreachableShapes exercises selective
// invalidation across both tiers: when a delta degrades the only group
// of a shape, the healthy entries become unreachable and must be dropped
// from the memory LRU and the persist tier.
func TestReplanInvalidatesUnreachableShapes(t *testing.T) {
	store, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Persist: store})
	base := topology.SingleServer(8) // one dim, one group: no shape sharing
	col := collective.AllGather(base.NumGPUs(), 1<<20)

	if _, err := eng.Plan(context.Background(), base, col, quickOpts()); err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		t.Fatal("warm plan wrote nothing to the persist tier")
	}

	degraded := mustApply(t, base, "slow:0-"+itoa(nvSwitchOf(t, base, 0))+"*8")
	rr, err := eng.Replan(context.Background(), base, degraded, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rr.TouchedGroups != 1 || rr.TotalGroups != 1 {
		t.Errorf("touched %d/%d groups, want 1/1", rr.TouchedGroups, rr.TotalGroups)
	}
	if rr.Invalidated == 0 {
		t.Fatal("no entries invalidated though the healthy shape vanished")
	}
	// The replan writes the freshly solved degraded entries through to
	// disk, so Len() alone can't witness the drop; instead re-sweep the
	// stale prefixes directly — the replan must already have removed
	// every healthy-keyed entry from the persist tier.
	_, _, stale := diffGroups(base, rr.Degraded)
	if len(stale) == 0 {
		t.Fatal("diffGroups produced no stale prefixes")
	}
	if left := store.InvalidateMatching(stale); left != 0 {
		t.Errorf("persist tier still held %d stale healthy entries after replan", left)
	}
	if eng.Stats().ReplanInvalidated == 0 {
		t.Error("Stats.ReplanInvalidated = 0")
	}
	if err := verify.CheckSchedule(col, rr.Schedule); err != nil {
		t.Fatalf("replanned schedule invalid: %v", err)
	}

	// The degraded shape must not alias the healthy one: a subsequent
	// replan of the same delta replays the degraded entries warm.
	again := mustApply(t, base, "slow:0-"+itoa(nvSwitchOf(t, base, 0))+"*8")
	rr2, err := eng.Replan(context.Background(), base, again, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rr2.SolvedSubs != 0 {
		t.Errorf("repeat replan executed %d solver calls, want 0", rr2.SolvedSubs)
	}
	if !reflect.DeepEqual(rr2.Schedule, rr.Schedule) {
		t.Error("repeat replan is not bit-identical")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
