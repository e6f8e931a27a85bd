package verify

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/topology"
)

const parityTol = 1e-9

// checkParity runs internal/sim and the reference simulator on the same
// schedule and demands agreement to 1e-9 on the completion time and every
// per-transfer arrival.
func checkParity(t *testing.T, top *topology.Topology, s *schedule.Schedule, opts sim.Options) {
	t.Helper()
	got, err := sim.Simulate(top, s, opts)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	want, err := ReferenceSimulate(top, s, opts.BlockBytes, opts.MaxBlocks)
	if err != nil {
		t.Fatalf("refsim: %v", err)
	}
	if math.Abs(got.Time-want.Time) > parityTol {
		t.Fatalf("completion time: sim %.12g vs refsim %.12g (Δ=%g)",
			got.Time, want.Time, got.Time-want.Time)
	}
	for i := range s.Transfers {
		if math.Abs(got.FinishAt[i]-want.FinishAt[i]) > parityTol {
			t.Fatalf("transfer %d arrival: sim %.12g vs refsim %.12g",
				i, got.FinishAt[i], want.FinishAt[i])
		}
	}
}

// checkDifferential pushes one (topology, collective) pair through the full
// pipeline and both independent checkers: synthesize, replay through the
// chunk oracle, and compare the two simulators.
func checkDifferential(t *testing.T, top *topology.Topology, col *collective.Collective, opts sim.Options) *core.Result {
	t.Helper()
	res, err := core.Synthesize(top, col, core.Options{Sim: opts})
	if err != nil {
		t.Fatalf("synthesize %v on %s: %v", col.Kind, top.Name, err)
	}
	if err := CheckSchedule(col, res.Schedule); err != nil {
		t.Fatalf("oracle rejects synthesized %v on %s: %v", col.Kind, top.Name, err)
	}
	checkParity(t, top, res.Schedule, opts)
	return res
}

// TestDifferentialRandomized drives ≥200 randomized (topology, collective)
// pairs through synthesis and checks every schedule against both the chunk
// oracle and the reference simulator. Pipelining options are varied so the
// block-planning paths of the two simulators are compared too.
func TestDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const cases = 200
	for i := 0; i < cases; i++ {
		top := RandomTopology(rng)
		kind := AllKinds[i%len(AllKinds)]
		col := RandomCollective(rng, kind, top.NumGPUs())
		opts := sim.DefaultOptions()
		switch i % 3 {
		case 1:
			opts = sim.Options{} // pipelining off
		case 2:
			opts = sim.Options{BlockBytes: 64 * 1024, MaxBlocks: 4}
		}
		t.Run(fmt.Sprintf("%03d-%v-%s", i, kind, top.Name), func(t *testing.T) {
			checkDifferential(t, top, col, opts)
		})
	}
}

func paperTopologies() []*topology.Topology {
	return []*topology.Topology{
		topology.A100Clos(2),  // Fig 13a, 16-GPU A100 testbed
		topology.H800Rail(2),  // Fig 13b family, rail-optimized H800
		topology.H800Small(6), // §7.4 6×4 microbenchmark cluster
		topology.Fig3(),       // worked-example multi-rail cluster
	}
}

// TestDifferentialPaperTopologies covers every paper topology × all nine
// collectives with both checkers.
func TestDifferentialPaperTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, top := range paperTopologies() {
		for _, kind := range AllKinds {
			col := RandomCollective(rng, kind, top.NumGPUs())
			t.Run(fmt.Sprintf("%s/%v", top.Name, kind), func(t *testing.T) {
				checkDifferential(t, top, col, sim.DefaultOptions())
			})
		}
	}
}

// TestPermutationSymmetrySim is the strict metamorphic invariant: relabeling
// a schedule's GPUs by a topology automorphism changes nothing the cost
// model can see, so the simulated time must be bit-for-bit comparable
// (within 1e-9) — on both simulators.
func TestPermutationSymmetrySim(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, top := range []*topology.Topology{topology.A100Clos(2), topology.H800Small(6)} {
		for _, kind := range []collective.Kind{collective.KindAllGather, collective.KindReduce, collective.KindAlltoAll} {
			col := RandomCollective(rng, kind, top.NumGPUs())
			res, err := core.Synthesize(top, col, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			base, err := sim.Simulate(top, res.Schedule, sim.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			n := top.NumGPUs()
			perm := make([]int, n)
			for pi := range n {
				if n > 8 && pi%((n+7)/8) != 0 {
					continue // sample ~8 automorphisms per topology
				}
				top.Sym.RootPerm(perm, 0, pi)
				if err := CheckDimInvariance(top, perm); err != nil {
					t.Fatalf("%s perm %d: %v", top.Name, pi, err)
				}
				ps := PermuteSchedule(res.Schedule, perm)
				checkParity(t, top, ps, sim.DefaultOptions())
				got, err := sim.Simulate(top, ps, sim.DefaultOptions())
				if err != nil {
					t.Fatalf("%s perm %d: permuted schedule unsimulatable: %v", top.Name, pi, err)
				}
				if math.Abs(got.Time-base.Time) > parityTol {
					t.Fatalf("%s %v perm %d: time %.12g vs base %.12g",
						top.Name, kind, pi, got.Time, base.Time)
				}
			}
		}
	}
}

// TestPermutationSymmetrySynthesize checks the same invariance end-to-end
// through the synthesizer: the collective rebuilt at the root's image
// under an automorphism synthesizes as fast. (The relabeled chunk list
// itself is not a constructor's layout, so Synthesize refuses it; core's
// refusal table holds those images.) Synthesis involves heuristic
// tie-breaking among equal-cost candidates, so the bound here is a loose
// sanity margin, not the simulator-level 1e-9.
func TestPermutationSymmetrySynthesize(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	top := topology.A100Clos(2)
	for _, rooted := range []struct {
		kind  collective.Kind
		build func(n, root int, bytes float64) *collective.Collective
	}{
		{collective.KindBroadcast, collective.Broadcast},
		{collective.KindScatter, collective.Scatter},
		{collective.KindReduce, collective.Reduce},
	} {
		col := RandomCollective(rng, rooted.kind, top.NumGPUs())
		base, err := core.Synthesize(top, col, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		perm := make([]int, top.NumGPUs())
		top.Sym.RootPerm(perm, 0, rng.Intn(len(perm)))
		pcol := rooted.build(col.NumGPUs, perm[col.Root], col.ChunkSize)
		got, err := core.Synthesize(top, pcol, core.Options{})
		if err != nil {
			t.Fatalf("%v at permuted root: %v", rooted.kind, err)
		}
		if err := CheckSchedule(pcol, got.Schedule); err != nil {
			t.Fatalf("%v at permuted root: %v", rooted.kind, err)
		}
		if rel := math.Abs(got.Time-base.Time) / base.Time; rel > 0.05 {
			t.Fatalf("%v: permuted-root synthesis time %.6g vs %.6g (%.1f%% apart)",
				rooted.kind, got.Time, base.Time, 100*rel)
		}
	}
}

// TestMirrorSatisfiesReduce: mirroring a valid Broadcast schedule (with the
// all-contributions piece remap) must yield a schedule the oracle accepts
// for the Reduce of the same size and root.
func TestMirrorSatisfiesReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, top := range []*topology.Topology{topology.H800Small(2), topology.A100Clos(2)} {
		n := top.NumGPUs()
		root := rng.Intn(n)
		size := 256 * 1024.0
		fwd, err := core.Synthesize(top, collective.Broadcast(n, root, size), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		red := collective.Reduce(n, root, size)
		all := make([]int, len(red.Chunks))
		for i := range all {
			all[i] = i
		}
		mirrored := fwd.Schedule.Mirror(func(p schedule.Piece) schedule.Piece {
			return schedule.Piece{Chunks: all, Bytes: p.Bytes}
		})
		if err := mirrored.Validate(red); err != nil {
			t.Fatalf("%s: Validate rejects mirror: %v", top.Name, err)
		}
		if err := CheckSchedule(red, mirrored); err != nil {
			t.Fatalf("%s: oracle rejects mirror: %v", top.Name, err)
		}
		checkParity(t, top, mirrored, sim.DefaultOptions())
	}
}

// TestConcatSatisfiesAllReduce rebuilds the paper's AllReduce composition by
// hand — mirror an AllGather schedule into its ReduceScatter, concatenate —
// and demands the oracle accept the result as an AllReduce.
func TestConcatSatisfiesAllReduce(t *testing.T) {
	for _, top := range []*topology.Topology{topology.H800Small(2), topology.Fig3()} {
		n := top.NumGPUs()
		per := 128 * 1024.0
		agCol := collective.AllGather(n, per)
		rsCol := collective.ReduceScatter(n, per)
		ag, err := core.Synthesize(top, agCol, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		byDst := map[int][]int{}
		for _, ch := range rsCol.Chunks {
			byDst[ch.Dsts[0]] = append(byDst[ch.Dsts[0]], ch.ID)
		}
		rs := ag.Schedule.Mirror(func(p schedule.Piece) schedule.Piece {
			out := schedule.Piece{Bytes: p.Bytes}
			for _, c := range p.Chunks {
				out.Chunks = append(out.Chunks, byDst[agCol.Chunks[c].Src]...)
			}
			return out
		})
		if err := rs.Validate(rsCol); err != nil {
			t.Fatalf("%s: mirrored ReduceScatter invalid: %v", top.Name, err)
		}
		full := schedule.Concat(rs, ag.Schedule)
		if err := CheckSchedule(collective.AllReduce(n, per*float64(n)), full); err != nil {
			t.Fatalf("%s: oracle rejects Concat(RS, AG) as AllReduce: %v", top.Name, err)
		}
		checkParity(t, top, full, sim.DefaultOptions())
	}
}

// TestBandwidthMonotonicity: raising every link bandwidth (scaling β down)
// can only speed a fixed schedule up. The serving order of the α-β model
// depends on the dependency graph and schedule order alone, so completion
// time is monotone in β.
func TestBandwidthMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	base := topology.Config{
		Name: "mono", Servers: 3, GPUsPerServer: 4,
		NVAlpha: 2e-6, NVBeta: 1 / 200e9, NetAlpha: 8e-6, NetBeta: 1 / 25e9,
	}
	slow := topology.Build(base)
	for _, scale := range []float64{0.5, 0.25, 0.1} {
		cfg := base
		cfg.NVBeta *= scale
		cfg.NetBeta *= scale
		fast := topology.Build(cfg)
		for _, kind := range AllKinds {
			col := RandomCollective(rng, kind, slow.NumGPUs())
			res, err := core.Synthesize(slow, col, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Simulate(slow, res.Schedule, sim.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			ft, err := sim.Simulate(fast, res.Schedule, sim.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if ft.Time > st.Time+parityTol {
				t.Fatalf("%v: %gx bandwidth slowed the schedule: %.6g vs %.6g",
					kind, 1/scale, ft.Time, st.Time)
			}
		}
	}
}
