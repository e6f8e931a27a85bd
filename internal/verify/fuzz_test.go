package verify

import (
	"math"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/topology"
)

// byteScript is a bounded reader over fuzz input: every decode consumes one
// byte, and an exhausted script yields zeros so any prefix is a valid case.
type byteScript struct {
	data []byte
	pos  int
}

func (b *byteScript) next() int {
	if b.pos >= len(b.data) {
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return int(v)
}

func (b *byteScript) pick(n int) int {
	if n <= 0 {
		return 0
	}
	return b.next() % n
}

func fuzzTopologies() []*topology.Topology {
	return []*topology.Topology{
		topology.SingleServer(4),
		topology.H800Small(2),
		topology.Fig3(),
	}
}

// fuzzCase decodes a (topology, collective, schedule) triple from the
// script. Transfers are unconstrained: sources, destinations, dependency
// edges (including forward edges, so cycles are reachable), orders, and
// piece chunk sets all come from the input.
func fuzzCase(b *byteScript) (*topology.Topology, *collective.Collective, *schedule.Schedule) {
	tops := fuzzTopologies()
	top := tops[b.pick(len(tops))]
	n := top.NumGPUs()
	kind := AllKinds[b.pick(len(AllKinds))]
	size := float64(64 * (1 + b.pick(8)))
	root := b.pick(n)
	var col *collective.Collective
	switch kind {
	case collective.KindSendRecv:
		dst := b.pick(n - 1)
		if dst >= root {
			dst++
		}
		col = collective.SendRecv(n, root, dst, size)
	case collective.KindBroadcast:
		col = collective.Broadcast(n, root, size)
	case collective.KindScatter:
		col = collective.Scatter(n, root, size)
	case collective.KindGather:
		col = collective.Gather(n, root, size)
	case collective.KindReduce:
		col = collective.Reduce(n, root, size)
	case collective.KindAllGather:
		col = collective.AllGather(n, size)
	case collective.KindAlltoAll:
		col = collective.AlltoAll(n, size)
	case collective.KindReduceScatter:
		col = collective.ReduceScatter(n, size)
	default:
		col = collective.AllReduce(n, size*float64(n))
	}

	s := &schedule.Schedule{NumGPUs: n}
	numPieces := 1 + b.pick(4)
	for p := 0; p < numPieces; p++ {
		mask := b.next()
		var chunks []int
		for c := 0; c < len(col.Chunks) && c < 8; c++ {
			if mask&(1<<c) != 0 {
				chunks = append(chunks, c)
			}
		}
		if len(chunks) == 0 {
			chunks = []int{b.pick(len(col.Chunks))}
		}
		bytes := col.ChunkSize * float64(1+b.pick(4)) / 2
		s.AddPiece(bytes, chunks...)
	}
	numTransfers := b.pick(16)
	for i := 0; i < numTransfers; i++ {
		t := schedule.Transfer{
			Src:   b.pick(n),
			Dst:   b.pick(n),
			Piece: b.pick(numPieces),
			Dim:   b.pick(top.NumDims()),
			Order: b.pick(8),
		}
		deps := b.next()
		for d := 0; d < numTransfers && d < 8; d++ {
			if d != i && deps&(1<<d) != 0 {
				t.Deps = append(t.Deps, d)
			}
		}
		s.AddTransfer(t)
	}
	return top, col, s
}

// FuzzValidate throws arbitrary schedules at schedule.Validate and the
// chunk oracle. Neither may panic, and for non-reducing collectives a
// Validate-accepted schedule must also satisfy the oracle (for reductions
// the oracle is strictly stronger — it rejects double-fold schedules
// Validate accepts — so no implication is asserted there). The oracle
// must also agree with its all-pieces reference.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 0, 3, 7, 1, 0, 1, 0, 0, 2, 0})
	f.Add([]byte{2, 8, 4, 3, 15, 255, 6, 4, 1, 2, 0, 1, 3, 128, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &byteScript{data: data}
		top, col, s := fuzzCase(b)
		vErr := s.Validate(col)
		oErr := CheckSchedule(col, s)
		_ = top
		sameOracleVerdict(t, "fuzz", col, s)
		if vErr == nil && !col.Reduce && oErr != nil {
			t.Fatalf("Validate accepted but oracle rejected a %v schedule: %v", col.Kind, oErr)
		}
	})
}

// fuzzSimSchedule decodes a schedule that is well-formed for simulation:
// dimensions in range, endpoints inside one group of the chosen dimension,
// and dependency edges pointing strictly backwards (acyclic).
func fuzzSimSchedule(b *byteScript) (*topology.Topology, *schedule.Schedule, sim.Options) {
	tops := fuzzTopologies()
	top := tops[b.pick(len(tops))]
	s := &schedule.Schedule{NumGPUs: top.NumGPUs()}
	numPieces := 1 + b.pick(4)
	for p := 0; p < numPieces; p++ {
		// Sizes with fractional parts exercise the block-count ceilings.
		bytes := float64(1+b.next()*b.next()*37) + float64(b.pick(2))/2
		s.AddPiece(bytes, 0)
	}
	numTransfers := b.pick(24)
	for i := 0; i < numTransfers; i++ {
		d := b.pick(top.NumDims())
		dim := top.Dim(d)
		grp := dim.Groups[b.pick(len(dim.Groups))]
		if len(grp) < 2 {
			continue
		}
		src := grp[b.pick(len(grp))]
		dst := grp[b.pick(len(grp))]
		if src == dst {
			dst = grp[(b.pick(len(grp))+1)%len(grp)]
			if src == dst {
				continue
			}
		}
		t := schedule.Transfer{
			Src: src, Dst: dst, Piece: b.pick(numPieces), Dim: d, Order: b.pick(6),
		}
		if ne := len(s.Transfers); ne > 0 {
			deps := b.next()
			for k := 0; k < ne && k < 8; k++ {
				if deps&(1<<k) != 0 {
					t.Deps = append(t.Deps, ne-1-k)
				}
			}
		}
		s.AddTransfer(t)
	}
	var opts sim.Options
	switch b.pick(3) {
	case 0:
		opts = sim.DefaultOptions()
	case 1:
		opts = sim.Options{} // pipelining off
	case 2:
		opts = sim.Options{BlockBytes: float64(1 + b.next()), MaxBlocks: 1 + b.pick(8)}
	}
	return top, s, opts
}

// FuzzSimParity feeds random well-formed schedules to both simulators and
// demands agreement to 1e-9 on completion time and every arrival, and the
// time-only entry sim.Time to return Simulate's time bit for bit.
func FuzzSimParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 9, 3, 11, 5, 0, 1, 2, 0, 1, 3, 0, 2, 1, 4, 0})
	f.Add([]byte{2, 7, 200, 13, 1, 20, 3, 1, 0, 2, 1, 255, 2, 0, 1, 3, 4, 2, 128, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &byteScript{data: data}
		top, s, opts := fuzzSimSchedule(b)
		got, gErr := sim.Simulate(top, s, opts)
		want, wErr := ReferenceSimulate(top, s, opts.BlockBytes, opts.MaxBlocks)
		if (gErr == nil) != (wErr == nil) {
			t.Fatalf("disagreement on admissibility: sim err %v, refsim err %v", gErr, wErr)
		}
		tm, tErr := sim.Time(top, s, opts)
		if (tErr == nil) != (gErr == nil) {
			t.Fatalf("disagreement on admissibility: Simulate err %v, Time err %v", gErr, tErr)
		}
		if gErr != nil {
			return
		}
		if math.Float64bits(tm) != math.Float64bits(got.Time) {
			t.Fatalf("time: Simulate %.17g vs Time %.17g", got.Time, tm)
		}
		if math.Abs(got.Time-want.Time) > parityTol {
			t.Fatalf("time: sim %.12g vs refsim %.12g", got.Time, want.Time)
		}
		for i := range s.Transfers {
			if math.Abs(got.FinishAt[i]-want.FinishAt[i]) > parityTol {
				t.Fatalf("transfer %d: sim %.12g vs refsim %.12g", i, got.FinishAt[i], want.FinishAt[i])
			}
		}
	})
}
