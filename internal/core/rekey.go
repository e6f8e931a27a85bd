package core

import (
	"math"

	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/topology"
)

// readyOrder re-keys the winner's finished schedule out (of forward
// schedule fwd, simulated at t) so that each port serves its transfers in
// arrival order rather than in stage order. Assembly keys a transfer by
// (stage, cell-local epoch), so a later-stage port sends in its cell's
// solver order however late its pieces actually arrive, and a late piece
// holds up the ones behind it. Here one simulation gives every transfer a
// ready time — the latest FinishAt among its dependencies, 0 for none —
// and each transfer's new Order is its rank by (ready time, old Order,
// index). An AllReduce (fin.twoPhase) is ranked within each phase, the
// second phase from schedule.PhaseOrderBase, so Concat's phase split
// still holds.
//
// A dependency finishes no later than the transfer that waits on it is
// ready, so dependencies keep ranking earlier and the simulator's sorted
// serving order still applies. Ready order is a heuristic: it can also
// be slower, so the re-keyed schedule is simulated and kept only when
// strictly faster. When every port would serve its transfers in the
// order the old keys already did, the time cannot change and the second
// simulation is skipped. out is re-keyed in place, so it must be the
// caller's own (the pipeline's winner is materialized for it), and gets
// its Orders back when the re-keying does not pay; the new Orders come
// back as ranks, for the recipe (nil when out is returned as it was).
// Its working arrays come from sc.
func readyOrder(top *topology.Topology, fwd, out *schedule.Schedule, t float64, fin finisher, so sim.Options, sc *rekeyScratch) (*schedule.Schedule, float64, []int32) {
	split := 0
	if fin.twoPhase {
		split = len(fwd.Transfers)
		if split > len(out.Transfers) || split >= schedule.PhaseOrderBase/2 {
			return out, t, nil
		}
	}
	if len(out.Transfers) < 2 {
		return out, t, nil
	}
	r, err := sim.Simulate(top, out, so)
	if err != nil {
		return out, t, nil
	}
	ranks := readyRanks(top, out.Transfers, r.FinishAt, split, sc)
	if ranks == nil {
		return out, t, nil
	}
	orders := zeroed(&sc.orders, len(out.Transfers))
	for i := range out.Transfers {
		orders[i] = out.Transfers[i].Order
	}
	applyRanks(out, ranks)
	if rt, err := sim.Time(top, out, so); err == nil && rt < t {
		return out, rt, ranks
	}
	for i := range out.Transfers {
		out.Transfers[i].Order = orders[i]
	}
	return out, t, nil
}

// readyRanks ranks the transfers by (ready time, Order, index), where a
// transfer is ready at the latest finishAt among its dependencies, and
// returns each one's rank as its new Order. With split > 0 the transfers
// below split and the rest are ranked apart, the second phase from
// schedule.PhaseOrderBase. It returns nil when every port would serve its
// transfers in the order their old (Order, index) keys already do: the
// simulation, which orders transfers only per port, would not change.
func readyRanks(top *topology.Topology, ts []schedule.Transfer, finishAt []float64, split int, sc *rekeyScratch) []int32 {
	seq := readySeq(ts, finishAt, split, sc)
	if keepsPortOrder(top, ts, seq, sc) {
		return nil
	}
	ranks := make([]int32, len(seq))
	for k, i := range seq {
		if split > 0 && k >= split {
			k += schedule.PhaseOrderBase - split
		}
		ranks[i] = int32(k)
	}
	return ranks
}

// rekeyScratch is readyOrder's working memory: the ready times, the
// serving sequence and its sort keys, the old Orders and the per-port
// cursors of keepsPortOrder.
type rekeyScratch struct {
	ready     []float64
	seq, last []int32
	keys, tmp []uint64
	orders    []int
}

// readySeq lists the transfers below split, then the rest, each part in
// (ready time, Order, index) order, in sc.seq.
func readySeq(ts []schedule.Transfer, finishAt []float64, split int, sc *rekeyScratch) []int32 {
	ready := zeroed(&sc.ready, len(ts))
	for i := range ts {
		for _, d := range ts[i].Deps {
			ready[i] = max(ready[i], finishAt[d])
		}
	}
	seq := zeroed(&sc.seq, len(ts))
	keys, tmp := zeroed(&sc.keys, len(ts)), zeroed(&sc.tmp, len(ts))
	sortReady(ts, ready, 0, split, seq, keys, tmp)
	sortReady(ts, ready, split, len(ts), seq, keys, tmp)
	return seq
}

// sortReady writes transfers lo…hi−1 into seq[lo:hi] in (ready, Order,
// index) order: sorted by (Order, index) (sim.SortByOrder), then stably
// by the low and by the high half of the ready times' IEEE bits, which
// order non-negative numbers as they compare — two radix sorts of keys
// packing a half above the position (sim.SortPacked).
func sortReady(ts []schedule.Transfer, ready []float64, lo, hi int, seq []int32, keys, tmp []uint64) {
	seq, keys = seq[lo:hi], keys[:hi-lo]
	sim.SortByOrder(ts[lo:hi], seq, keys, tmp)
	for p := range seq {
		seq[p] += int32(lo)
	}
	for _, shift := range [2]int{0, 32} {
		for p, i := range seq {
			keys[p] = uint64(uint32(math.Float64bits(ready[i])>>shift))<<32 | uint64(p)
		}
		sorted := sim.SortPacked(keys, tmp)
		for q, k := range sorted {
			sorted[q] = uint64(seq[uint32(k)])
		}
		for q, i := range sorted {
			seq[q] = int32(i)
		}
	}
}

// keepsPortOrder reports whether serving the transfers in seq keeps every
// port's transfers in (Order, index) order.
func keepsPortOrder(top *topology.Topology, ts []schedule.Transfer, seq []int32, sc *rekeyScratch) bool {
	// last[p] is 1 + the transfer port p served last: egress ports first,
	// then ingress, each gpu*classes+class.
	classes := top.NumPortClasses()
	egress := top.NumGPUs() * classes
	last := zeroed(&sc.last, 2*egress)
	for _, i := range seq {
		t := &ts[i]
		c := top.Dim(t.Dim).PortClass
		for _, p := range [2]int{t.Src*classes + c, egress + t.Dst*classes + c} {
			if j := last[p] - 1; j >= 0 && (ts[j].Order > t.Order || ts[j].Order == t.Order && j > i) {
				return false
			}
			last[p] = i + 1
		}
	}
	return true
}

// applyRanks sets transfer i's Order to ranks[i].
func applyRanks(s *schedule.Schedule, ranks []int32) {
	for i := range s.Transfers {
		s.Transfers[i].Order = int(ranks[i])
	}
}
