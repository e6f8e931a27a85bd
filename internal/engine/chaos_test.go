package engine

import (
	"context"
	"math/rand"
	"testing"

	"syccl/internal/core"
	"syccl/internal/schedule"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// randomChaosDelta draws a random viable fault: a mix of link kills and
// α/β degradations over the base topology's physical links. Deltas that
// disconnect a GPU (or hit the rare retry budget) fall back to a pure
// single-link degradation, which is always applicable.
func randomChaosDelta(rng *rand.Rand, base *topology.Topology) *topology.Delta {
	for attempt := 0; attempt < 32; attempt++ {
		d := &topology.Delta{}
		for i, ops := 0, 1+rng.Intn(2); i < ops; i++ {
			l := base.Links[rng.Intn(len(base.Links))]
			switch rng.Intn(3) {
			case 0:
				d.FailLinks = append(d.FailLinks, topology.LinkFail{A: l.Src, B: l.Dst})
			case 1:
				d.Degrade = append(d.Degrade, topology.LinkDegrade{
					A: l.Src, B: l.Dst, AlphaScale: 1, BetaScale: float64(2 + rng.Intn(7)),
				})
			default:
				d.Degrade = append(d.Degrade, topology.LinkDegrade{
					A: l.Src, B: l.Dst, AlphaScale: float64(2 + rng.Intn(4)), BetaScale: 1,
				})
			}
		}
		if _, err := d.Apply(base); err == nil {
			return d
		}
	}
	l := base.Links[rng.Intn(len(base.Links))]
	return &topology.Delta{Degrade: []topology.LinkDegrade{
		{A: l.Src, B: l.Dst, AlphaScale: 2, BetaScale: 2},
	}}
}

// assertNoRemovedLinks fails the test if any transfer of the schedule
// cannot be physically routed over the SURVIVING links of the degraded
// topology within its dimension's fabric (tier 0: GPU+NVSwitch nodes;
// tier t: GPU, NIC, and switches up to tier t). This is the direct
// physical statement behind "never routes over a removed link": the
// schedule's connectivity must be witnessed by live links alone.
func assertNoRemovedLinks(t *testing.T, deg *topology.Topology, s *schedule.Schedule) {
	t.Helper()
	adj := make([][]int, len(deg.Nodes))
	for _, l := range deg.Links {
		adj[l.Src] = append(adj[l.Src], l.Dst)
	}
	allowed := func(tier int, k topology.NodeKind) bool {
		if tier == 0 {
			return k == topology.KindGPU || k == topology.KindNVSwitch
		}
		switch k {
		case topology.KindGPU, topology.KindNIC:
			return true
		case topology.KindNVSwitch:
			return false
		case topology.KindLeafSwitch:
			return tier >= 1
		case topology.KindSpineSwitch:
			return tier >= 2
		default: // core
			return tier >= 3
		}
	}
	seen := make([]int, len(deg.Nodes)) // visit epoch, avoids reallocs
	epoch := 0
	reach := func(tier, src, dst int) bool {
		epoch++
		queue := []int{src}
		seen[src] = epoch
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if n == dst {
				return true
			}
			for _, m := range adj[n] {
				if seen[m] != epoch && allowed(tier, deg.Nodes[m].Kind) {
					seen[m] = epoch
					queue = append(queue, m)
				}
			}
		}
		return false
	}
	for i, tr := range s.Transfers {
		if tr.Dim < 0 || tr.Dim >= deg.NumDims() {
			t.Fatalf("transfer %d references dimension %d of %d", i, tr.Dim, deg.NumDims())
		}
		if !deg.SameGroup(tr.Dim, tr.Src, tr.Dst) {
			t.Fatalf("transfer %d (%d→%d, dim %d) crosses groups of the degraded topology",
				i, tr.Src, tr.Dst, tr.Dim)
		}
		if !reach(deg.Dims[tr.Dim].Tier, tr.Src, tr.Dst) {
			t.Fatalf("transfer %d (%d→%d, dim %d, tier %d) has no surviving physical path: routes over a removed link",
				i, tr.Src, tr.Dst, tr.Dim, deg.Dims[tr.Dim].Tier)
		}
	}
}

// TestChaosReplan is the fault-injection harness: random topologies ×
// random link-kill / degradation deltas × all nine collectives, each
// replanned through the engine and held to the chunk-replay oracle on
// the degraded topology plus the no-removed-link routing check.
func TestChaosReplan(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	rng := rand.New(rand.NewSource(0x5cc1))
	opts := core.Options{Workers: 4}

	for trial := 0; trial < trials; trial++ {
		base := verify.RandomTopology(rng)
		delta := randomChaosDelta(rng, base)
		degraded, err := delta.Apply(base)
		if err != nil {
			t.Fatalf("trial %d: viable delta %q failed to apply: %v", trial, delta, err)
		}
		t.Logf("trial %d: %s + %q (%d GPUs)", trial, base.Name, delta, base.NumGPUs())

		eng := New(Options{})
		for _, kind := range verify.AllKinds {
			col := verify.RandomCollective(rng, kind, base.NumGPUs())
			rr, err := eng.Replan(context.Background(), base, degraded, col, opts)
			if err != nil {
				t.Fatalf("trial %d %v: replan: %v", trial, kind, err)
			}
			if rr.Partial {
				t.Fatalf("trial %d %v: replan returned a partial result", trial, kind)
			}
			if err := verify.CheckSchedule(col, rr.Schedule); err != nil {
				t.Errorf("trial %d %v on %s+%q: oracle rejects replanned schedule: %v",
					trial, kind, base.Name, delta, err)
			}
			assertNoRemovedLinks(t, degraded, rr.Schedule)
		}
	}
}
