package verify

import (
	"fmt"
	"math/rand"
	"sort"

	"syccl/internal/collective"
	"syccl/internal/schedule"
	"syccl/internal/topology"
)

// randShape is one topology family the generator draws from. Shapes are
// curated so that topology.Build's symmetry validation always holds (the
// cyclic action on non-power-of-two axes is only valid without nested
// blocks); α, β, and the NVLink:network bandwidth ratio are randomized per
// draw, so dimension count, group sizes, and link costs all vary.
type randShape struct {
	servers, gpus  int
	serversPerLeaf int
	leavesPerSpine int
	withCore       bool
}

var randShapes = []randShape{
	{servers: 1, gpus: 4},
	{servers: 1, gpus: 8},
	{servers: 2, gpus: 2},
	{servers: 2, gpus: 4},
	{servers: 3, gpus: 2},
	{servers: 3, gpus: 4},
	{servers: 4, gpus: 2},
	{servers: 4, gpus: 4},
	{servers: 2, gpus: 8},
	{servers: 4, gpus: 2, serversPerLeaf: 4}, // one leaf over all servers
	{servers: 4, gpus: 2, serversPerLeaf: 2, leavesPerSpine: 2},                 // Clos + spine
	{servers: 4, gpus: 4, serversPerLeaf: 2, leavesPerSpine: 2},                 // Clos, 2 leaves, 1 spine
	{servers: 8, gpus: 2, serversPerLeaf: 2, leavesPerSpine: 2, withCore: true}, // Clos + core
	{servers: 4, gpus: 4, leavesPerSpine: 2, withCore: true},                    // multi-rail, Fig 3 shape
}

// RandomTopology draws a random topology: random dimension structure
// (server/GPU grid, rail vs Clos tiers) and random α-β link parameters.
func RandomTopology(rng *rand.Rand) *topology.Topology {
	sh := randShapes[rng.Intn(len(randShapes))]
	nvBW := 50e9 * (1 + 7*rng.Float64())     // 50..400 GB/s
	netBW := nvBW / (1 + 15*rng.Float64())   // 1x..16x slower than NVLink
	nvAlpha := 1e-6 * (1 + 4*rng.Float64())  // 1..5 µs
	netAlpha := 5e-6 * (1 + 3*rng.Float64()) // 5..20 µs
	return topology.Build(topology.Config{
		Name:           fmt.Sprintf("rand-%dx%d", sh.servers, sh.gpus),
		Servers:        sh.servers,
		GPUsPerServer:  sh.gpus,
		NVAlpha:        nvAlpha,
		NVBeta:         1 / nvBW,
		NetAlpha:       netAlpha,
		NetBeta:        1 / netBW,
		ServersPerLeaf: sh.serversPerLeaf,
		LeavesPerSpine: sh.leavesPerSpine,
		WithCore:       sh.withCore,
	})
}

// AllKinds lists the nine standard collectives.
var AllKinds = []collective.Kind{
	collective.KindSendRecv, collective.KindBroadcast, collective.KindScatter,
	collective.KindGather, collective.KindReduce, collective.KindAllGather,
	collective.KindAlltoAll, collective.KindReduceScatter, collective.KindAllReduce,
}

// RandomCollective draws a collective of the given kind on n GPUs with a
// random root and a random chunk size (log-uniform 1 KiB..1 MiB).
func RandomCollective(rng *rand.Rand, kind collective.Kind, n int) *collective.Collective {
	size := float64(int64(1)<<(10+rng.Intn(11))) * (1 + rng.Float64())
	root := rng.Intn(n)
	switch kind {
	case collective.KindSendRecv:
		dst := rng.Intn(n - 1)
		if dst >= root {
			dst++
		}
		return collective.SendRecv(n, root, dst, size)
	case collective.KindBroadcast:
		return collective.Broadcast(n, root, size)
	case collective.KindScatter:
		return collective.Scatter(n, root, size)
	case collective.KindGather:
		return collective.Gather(n, root, size)
	case collective.KindReduce:
		return collective.Reduce(n, root, size)
	case collective.KindAllGather:
		return collective.AllGather(n, size)
	case collective.KindAlltoAll:
		return collective.AlltoAll(n, size)
	case collective.KindReduceScatter:
		return collective.ReduceScatter(n, size)
	case collective.KindAllReduce:
		return collective.AllReduce(n, size*float64(n))
	default:
		panic(fmt.Sprintf("verify: no generator for %v", kind))
	}
}

// PermuteSchedule relabels every transfer endpoint of the schedule through
// perm. Piece chunk IDs are untouched, so the result serves the image of
// the collective under the relabeling, chunk for chunk.
func PermuteSchedule(s *schedule.Schedule, perm []int) *schedule.Schedule {
	out := s.Clone()
	for i := range out.Transfers {
		out.Transfers[i].Src = perm[out.Transfers[i].Src]
		out.Transfers[i].Dst = perm[out.Transfers[i].Dst]
	}
	return out
}

// CheckDimInvariance verifies that a GPU relabeling is an automorphism of
// the topology's extracted dimensions: the image of every group of every
// dimension must again be a group of that dimension. This is the property
// the symmetry-replication machinery (§4.2) and the permutation
// metamorphic tests both rest on.
func CheckDimInvariance(top *topology.Topology, perm []int) error {
	if len(perm) != top.NumGPUs() {
		return fmt.Errorf("verify: permutation over %d GPUs, topology has %d", len(perm), top.NumGPUs())
	}
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return fmt.Errorf("verify: not a permutation: %v", perm)
		}
		seen[p] = true
	}
	for d := 0; d < top.NumDims(); d++ {
		dim := top.Dim(d)
		for gi, grp := range dim.Groups {
			img := make([]int, len(grp))
			for i, g := range grp {
				img[i] = perm[g]
			}
			sort.Ints(img)
			tg := dim.GroupOf(img[0])
			if tg < 0 {
				return fmt.Errorf("verify: dim %s: image of group %d leaves the dimension", dim.Name, gi)
			}
			target := dim.Groups[tg]
			if len(target) != len(img) {
				return fmt.Errorf("verify: dim %s: group %d maps onto a group of different size", dim.Name, gi)
			}
			for i := range img {
				if img[i] != target[i] {
					return fmt.Errorf("verify: dim %s: relabeling splits group %d (image %v vs group %v)",
						dim.Name, gi, img, target)
				}
			}
		}
	}
	return nil
}
