package topology_test

import (
	"math/rand"
	"testing"

	"syccl/internal/topology"
	"syccl/internal/verify"
)

// TestGroupExtractionRelabelInvariant checks, for every paper topology,
// that the symmetry group's GPU relabelings really are automorphisms of
// the extracted dimension structure: the image of every group of every
// dimension is again a group of that dimension. This is the property the
// sketch-replication machinery (§4.2) silently assumes.
func TestGroupExtractionRelabelInvariant(t *testing.T) {
	tops := []*topology.Topology{
		topology.A100Clos(2),  // Fig 13a, 16 GPUs
		topology.A100Clos(4),  // Fig 13a, 32 GPUs
		topology.H800Rail(8),  // Fig 13b, 64 GPUs
		topology.H800Small(6), // §7.4 6×4 H800 cluster
		topology.Fig3(),
		topology.Fig19(),
		topology.Fig20(),
	}
	for _, top := range tops {
		t.Run(top.Name, func(t *testing.T) {
			perm := make([]int, top.NumGPUs())
			for r := range perm {
				top.Sym.RootPerm(perm, 0, r)
				if err := verify.CheckDimInvariance(top, perm); err != nil {
					t.Fatalf("element carrying 0 to %d: %v", r, err)
				}
			}
		})
	}
}

// TestRelabelInvariantRejectsArbitraryPermutations is the negative side:
// a random non-symmetry shuffle of GPU IDs should, with overwhelming
// probability, split some dimension group — confirming the checker
// actually discriminates rather than accepting everything.
func TestRelabelInvariantRejectsArbitraryPermutations(t *testing.T) {
	top := topology.A100Clos(2)
	rng := rand.New(rand.NewSource(3))
	rejected := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		perm := rng.Perm(top.NumGPUs())
		if err := verify.CheckDimInvariance(top, perm); err != nil {
			rejected++
		}
	}
	if rejected < trials-1 {
		t.Fatalf("only %d of %d random shuffles rejected", rejected, trials)
	}
}
