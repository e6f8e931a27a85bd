// Package crafted implements the expert-optimized AllGather schedules of
// Appendix C: the multi-ring schedule, the direct schedule, the
// conventional hierarchical schedule, and the improved hierarchical
// schedule that SyCCL's winning sketch inspired (Fig 22). For each size
// the Best entry point returns the best-performing hand-crafted schedule,
// mimicking the expert's per-size choice.
package crafted

import (
	"fmt"

	"syccl/internal/collective"
	"syccl/internal/nccl"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/topology"
)

// Ring is the multi-ring AllGather (identical to NCCL's construction —
// experts use it as the bandwidth workhorse on ring-friendly fabrics).
func Ring(top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	return nccl.AllGather(top, col)
}

// Direct sends every chunk straight from its source to each destination,
// ordered as rotations to avoid convoying. It is the latency-optimal
// schedule when a one-hop path exists for every pair.
func Direct(top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	if col.Kind != collective.KindAllGather {
		return nil, fmt.Errorf("crafted.Direct: got %v", col.Kind)
	}
	n := top.NumGPUs()
	sched := &schedule.Schedule{NumGPUs: n}
	for _, ch := range col.Chunks {
		p := sched.AddPiece(col.ChunkSize, ch.ID)
		for _, dst := range ch.Dsts {
			dim := top.DimOf(ch.Src, dst)
			if dim < 0 {
				return nil, fmt.Errorf("crafted.Direct: no one-hop path %d→%d", ch.Src, dst)
			}
			order := ((dst-ch.Src)%n + n) % n
			sched.AddTransfer(schedule.Transfer{Src: ch.Src, Dst: dst, Piece: p, Dim: dim, Order: order})
		}
	}
	return sched, nil
}

// Hierarchical is the conventional two-phase AllGather: every GPU first
// broadcasts its chunk along its rail (or leaf group), then each GPU
// re-broadcasts everything it received inside its server — implemented as
// one fused schedule rather than two collective calls, per Appendix C.
func Hierarchical(top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	if col.Kind != collective.KindAllGather {
		return nil, fmt.Errorf("crafted.Hierarchical: got %v", col.Kind)
	}
	if top.NumDims() < 2 {
		return nil, fmt.Errorf("crafted.Hierarchical: needs a network dimension")
	}
	n := top.NumGPUs()
	g := top.Sym.Local.N
	s := top.Sym.Server.N
	sched := &schedule.Schedule{NumGPUs: n}

	pieces := make([]int, n)
	for c := 0; c < n; c++ {
		pieces[c] = sched.AddPiece(col.ChunkSize, c)
	}

	// Phase 1: rail broadcast — chunk (srv, loc) goes to the same local
	// index of every other server, rotation-ordered.
	arrival := map[[2]int]int{} // (chunk, gpu) → transfer index
	for src := 0; src < n; src++ {
		loc := src % g
		for k := 1; k < s; k++ {
			dstSrv := (src/g + k) % s
			dst := dstSrv*g + loc
			dim := railDim(top, src, dst)
			if dim < 0 {
				return nil, fmt.Errorf("crafted.Hierarchical: no rail path %d→%d", src, dst)
			}
			idx := sched.AddTransfer(schedule.Transfer{Src: src, Dst: dst, Piece: pieces[src], Dim: dim, Order: k})
			arrival[[2]int{src, dst}] = idx
		}
	}

	// Phase 2: NVLink fan-out — every GPU forwards its own chunk and each
	// rail-received chunk to its g-1 server mates.
	for holder := 0; holder < n; holder++ {
		srv := holder / g
		for k := 0; k < s; k++ {
			chunkSrv := (srv - k + s) % s
			chunk := chunkSrv*g + holder%g
			var dep []int
			if chunkSrv != srv {
				dep = []int{arrival[[2]int{chunk, holder}]}
			}
			for off := 1; off < g; off++ {
				dst := srv*g + (holder+off)%g
				sched.AddTransfer(schedule.Transfer{
					Src: holder, Dst: dst, Piece: pieces[chunk], Dim: 0,
					Order: 1000 + k*g + off, Deps: append([]int(nil), dep...),
				})
			}
		}
	}
	return sched, nil
}

// Improved is the Appendix C / Fig 22 schedule distilled from SyCCL's
// winning sketch on the H800 testbed: a chunk first goes to one NVLink
// peer; the two holders then spread it along their (distinct) rails; the
// two holders per server finally fan out to the remaining six GPUs with
// three sends each. It matches the H800 3.6:1 bandwidth ratio far better
// than the conventional hierarchical split.
func Improved(top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	if col.Kind != collective.KindAllGather {
		return nil, fmt.Errorf("crafted.Improved: got %v", col.Kind)
	}
	if top.NumDims() < 2 {
		return nil, fmt.Errorf("crafted.Improved: needs a network dimension")
	}
	n := top.NumGPUs()
	g := top.Sym.Local.N
	s := top.Sym.Server.N
	if g < 2 {
		return nil, fmt.Errorf("crafted.Improved: needs ≥2 GPUs per server")
	}
	sched := &schedule.Schedule{NumGPUs: n}
	pieces := make([]int, n)
	for c := 0; c < n; c++ {
		pieces[c] = sched.AddPiece(col.ChunkSize, c)
	}

	arrive := map[[2]int]int{} // (chunk, gpu) → delivering transfer
	// Stage 1: NVLink to one peer (the next local index).
	for src := 0; src < n; src++ {
		peer := (src/g)*g + (src%g+1)%g
		arrive[[2]int{src, peer}] = sched.AddTransfer(schedule.Transfer{
			Src: src, Dst: peer, Piece: pieces[src], Dim: 0, Order: 0,
		})
	}
	// Stage 2: both holders spread along their rails.
	for src := 0; src < n; src++ {
		holders := []int{src, (src/g)*g + (src%g+1)%g}
		for _, h := range holders {
			var dep []int
			if h != src {
				dep = []int{arrive[[2]int{src, h}]}
			}
			loc := h % g
			for k := 1; k < s; k++ {
				dstSrv := (h/g + k) % s
				dst := dstSrv*g + loc
				dim := railDim(top, h, dst)
				if dim < 0 {
					return nil, fmt.Errorf("crafted.Improved: no rail path %d→%d", h, dst)
				}
				idx := sched.AddTransfer(schedule.Transfer{
					Src: h, Dst: dst, Piece: pieces[src], Dim: dim,
					Order: 10 + k, Deps: append([]int(nil), dep...),
				})
				arrive[[2]int{src, dst}] = idx
			}
		}
	}
	// Stage 3: in every server the two holders of each chunk send to the
	// remaining g-2 GPUs, split between them. Port order follows each
	// chunk's rail-arrival distance so early arrivals flow out first.
	for src := 0; src < n; src++ {
		locA := src % g
		locB := (src%g + 1) % g
		for srv := 0; srv < s; srv++ {
			hop := ((srv-src/g)%s + s) % s // 0 for the home server
			ha := srv*g + locA
			hb := srv*g + locB
			depA, depB := []int(nil), []int(nil)
			if i, ok := arrive[[2]int{src, ha}]; ok {
				depA = []int{i}
			}
			if i, ok := arrive[[2]int{src, hb}]; ok {
				depB = []int{i}
			}
			others := make([]int, 0, g-2)
			for off := 0; off < g; off++ {
				loc := (locA + off) % g
				if loc != locA && loc != locB {
					others = append(others, srv*g+loc)
				}
			}
			for i, dst := range others {
				h, dep := ha, depA
				if i%2 == 1 {
					h, dep = hb, depB
				}
				sched.AddTransfer(schedule.Transfer{
					Src: h, Dst: dst, Piece: pieces[src], Dim: 0,
					Order: 100 + hop*g + i, Deps: append([]int(nil), dep...),
				})
			}
		}
	}
	return sched, nil
}

// railDim returns the network dimension connecting two GPUs, or -1.
func railDim(top *topology.Topology, a, b int) int {
	for d := 1; d < top.NumDims(); d++ {
		if top.SameGroup(d, a, b) {
			return d
		}
	}
	return -1
}

// Variants lists the hand-crafted AllGather builders by name.
func Variants() map[string]func(*topology.Topology, *collective.Collective) (*schedule.Schedule, error) {
	return map[string]func(*topology.Topology, *collective.Collective) (*schedule.Schedule, error){
		"ring":         Ring,
		"direct":       Direct,
		"hierarchical": Hierarchical,
		"improved":     Improved,
	}
}

// Best simulates every applicable hand-crafted schedule and returns the
// fastest with its name and predicted time — the Appendix C methodology
// ("for each collective size, we collect the best performance among all
// hand-crafted schedules").
func Best(top *topology.Topology, col *collective.Collective, opts sim.Options, includeImproved bool) (*schedule.Schedule, string, float64, error) {
	var best *schedule.Schedule
	bestName := ""
	bestTime := 0.0
	for name, build := range Variants() {
		if name == "improved" && !includeImproved {
			continue
		}
		sch, err := build(top, col)
		if err != nil {
			continue
		}
		r, err := sim.Simulate(top, sch, opts)
		if err != nil {
			continue
		}
		if best == nil || r.Time < bestTime {
			best, bestName, bestTime = sch, name, r.Time
		}
	}
	if best == nil {
		return nil, "", 0, fmt.Errorf("crafted: no applicable schedule on %s", top.Name)
	}
	return best, bestName, bestTime, nil
}
