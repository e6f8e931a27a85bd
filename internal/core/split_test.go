package core

import (
	"context"
	"errors"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/sim"
	"syccl/internal/sketch"
	"syccl/internal/solve"
)

// TestSplitFactor pins the pipelining factor of one-to-all combinations:
// the largest power of two up to maxSplit that keeps pieces at least
// n½ = α/β and the largest cell within solve.FlattenDeliveries.
func TestSplitFactor(t *testing.T) {
	top, col := digestCase(t, "server8:broadcast:64M")
	opts := Options{}.withDefaults()
	sketches := searchCached(context.Background(), top, 0, false, opts)
	var flat *sketch.Sketch // one stage: GPU 0 straight to the other seven
	for _, sk := range sketches {
		if len(sk.Stages) == 1 {
			flat = sk
		}
	}
	if flat == nil {
		t.Fatal("no one-stage sketch")
	}
	dim := top.Dim(0)
	half := dim.AlphaOf(0) / dim.BetaOf(0) // n½ of the NVLink group
	single := sketch.Single(flat)
	for _, tc := range []struct {
		name  string
		chunk float64
		combo *sketch.Combination
		want  int
	}{
		{"bandwidth-bound", col.ChunkSize, single, maxSplit},
		{"pieces of exactly n½", 4 * half, single, 4},
		{"just under 4·n½", 4 * half * (1 - 1e-9), single, 2},
		{"under 2·n½", 1.5 * half, single, 1},
		// Seven copies merge into one cell of 49 deliveries: 2·49 ≤ 128 < 4·49.
		{"delivery gate", col.ChunkSize, single.Split(7), 2},
		{"at the gate", col.ChunkSize, single.Split(solve.FlattenDeliveries / 7), 1},
	} {
		if got := splitFactor(top, tc.chunk, tc.combo); got != tc.want {
			t.Errorf("%s: k = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSplitCandidates: the split variants ride on the one-to-all path
// only, and only where pieces stay above n½.
func TestSplitCandidates(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		allToAll bool
		total    int // combinations built
		splits   int // of them, split variants
	}{
		{"server8:broadcast:64M", false, 6, 3},
		{"a100x16:broadcast:1M", false, 22, 0},
		{"server8:allgather:64M", true, 3, 0},
	} {
		top, col := digestCase(t, tc.spec)
		opts := Options{}.withDefaults()
		sketches := searchCached(context.Background(), top, 0, false, opts)
		built := buildCombinations(context.Background(), top, col, sketches, tc.allToAll, false, opts)
		splits := 0
		for _, c := range built {
			if len(c.Sketches) > 1 && c.Sketches[0] == c.Sketches[1] {
				splits++
			}
		}
		if len(built) != tc.total || splits != tc.splits {
			t.Errorf("%s: %d combinations, %d of them split; want %d, %d", tc.spec, len(built), splits, tc.total, tc.splits)
		}
	}
}

// TestPipelinedBeatsNCCL: with split candidates the 8-GPU server's
// 64 MiB Broadcast and Reduce beat NCCL's chain, with pipelined blocks
// in the simulator and without; with ready-ordered relays (readyOrder)
// the rail fabrics' AlltoAll at least ties NCCL's PXN.
func TestPipelinedBeatsNCCL(t *testing.T) {
	for _, so := range []sim.Options{sim.DefaultOptions(), {BlockBytes: 512 * 1024, MaxBlocks: 1}} {
		for _, spec := range []string{"server8:broadcast:64M", "server8:reduce:64M", "h800x64:alltoall:64M", "h800small:alltoall:1M"} {
			top, col := digestCase(t, spec)
			res := synth(t, top, col, Options{Sim: so})
			if r, ok := ncclRatio(t, top, col, res, so); !ok || r < 1 {
				t.Errorf("%s MaxBlocks %d: NCCL time / SyCCL time = %.3f (baseline %v), want ≥ 1", spec, so.MaxBlocks, r, ok)
			}
		}
	}
}

// TestCallerSplitReduceRejected: a Reduce whose sources each hold k
// chunks (a split the caller made, not the pipeline) is not what the
// Reduce constructor builds, so Synthesize refuses it at the door instead
// of timing a mirror whose pieces cover each source's k chunks at 1/k of
// their bytes. schedule's TestValidateReductionPieces pins the rule that
// would refuse such a mirror.
func TestCallerSplitReduceRejected(t *testing.T) {
	for _, topo := range []string{"dgx4", "server8"} {
		for _, k := range []int{2, 4, 8} {
			top, whole := digestCase(t, topo+":reduce:64M")
			col := &collective.Collective{Kind: collective.KindReduce, NumGPUs: whole.NumGPUs,
				ChunkSize: whole.ChunkSize / float64(k), Root: whole.Root, Reduce: true}
			for _, ch := range whole.Chunks {
				for i := 0; i < k; i++ {
					col.Chunks = append(col.Chunks, collective.Chunk{ID: len(col.Chunks), Src: ch.Src, Dsts: ch.Dsts})
				}
			}
			res, err := Synthesize(top, col, Options{})
			if !errors.Is(err, collective.ErrUnsupported) {
				t.Errorf("%s k=%d: got %v (result %v), want collective.ErrUnsupported", topo, k, err, res != nil)
			}
		}
	}
}
