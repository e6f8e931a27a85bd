package sim

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"syccl/internal/schedule"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// testTopo returns a 2-server × 4-GPU topology with round numbers:
// dim 0 (nvswitch) β=1e-9 (1 GB/s), dim 1 (rail) β=4e-9 (0.25 GB/s).
func testTopo() *topology.Topology {
	return topology.Build(topology.Config{
		Name:          "sim-test",
		Servers:       2,
		GPUsPerServer: 4,
		NVAlpha:       1e-6,
		NVBeta:        1e-9,
		NetAlpha:      1e-5,
		NetBeta:       4e-9,
	})
}

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-12+1e-9*math.Abs(b) }

func TestSingleTransferTime(t *testing.T) {
	top := testTopo()
	s := &schedule.Schedule{NumGPUs: 8}
	p := s.AddPiece(1000, 0)
	s.AddTransfer(schedule.Transfer{Src: 0, Dst: 1, Piece: p, Dim: 0})
	r, err := Simulate(top, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-6 + 1e-9*1000
	if !approx(r.Time, want) {
		t.Errorf("time = %g, want %g", r.Time, want)
	}
	if r.Events != 1 {
		t.Errorf("events = %d", r.Events)
	}
}

func TestSameEgressPortSerializes(t *testing.T) {
	top := testTopo()
	s := &schedule.Schedule{NumGPUs: 8}
	p := s.AddPiece(1000, 0)
	s.AddTransfer(schedule.Transfer{Src: 0, Dst: 1, Piece: p, Dim: 0, Order: 0})
	s.AddTransfer(schedule.Transfer{Src: 0, Dst: 2, Piece: p, Dim: 0, Order: 1})
	r, err := Simulate(top, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Second send starts when the port frees at β·b, finishing at
	// 2β·b + α (α overlaps with the predecessor's transmission tail).
	want := 2*1e-9*1000 + 1e-6
	if !approx(r.Time, want) {
		t.Errorf("time = %g, want %g", r.Time, want)
	}
}

func TestDisjointPortsRunInParallel(t *testing.T) {
	top := testTopo()
	s := &schedule.Schedule{NumGPUs: 8}
	p := s.AddPiece(1000, 0)
	s.AddTransfer(schedule.Transfer{Src: 0, Dst: 1, Piece: p, Dim: 0})
	s.AddTransfer(schedule.Transfer{Src: 2, Dst: 3, Piece: p, Dim: 0})
	r, err := Simulate(top, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-6 + 1e-9*1000
	if !approx(r.Time, want) {
		t.Errorf("time = %g, want %g (parallel)", r.Time, want)
	}
}

func TestDifferentDimsDoNotContend(t *testing.T) {
	top := testTopo()
	s := &schedule.Schedule{NumGPUs: 8}
	p := s.AddPiece(1000, 0)
	// GPU 0 sends on dim 0 and dim 1 simultaneously (separate ports).
	s.AddTransfer(schedule.Transfer{Src: 0, Dst: 1, Piece: p, Dim: 0})
	s.AddTransfer(schedule.Transfer{Src: 0, Dst: 4, Piece: p, Dim: 1})
	r, err := Simulate(top, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-5 + 4e-9*1000 // the slower (network) transfer
	if !approx(r.Time, want) {
		t.Errorf("time = %g, want %g", r.Time, want)
	}
}

func TestDependencyChain(t *testing.T) {
	top := testTopo()
	s := &schedule.Schedule{NumGPUs: 8}
	p := s.AddPiece(1000, 0)
	t0 := s.AddTransfer(schedule.Transfer{Src: 0, Dst: 1, Piece: p, Dim: 0})
	s.AddTransfer(schedule.Transfer{Src: 1, Dst: 2, Piece: p, Dim: 0, Deps: []int{t0}})
	r, err := Simulate(top, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * (1e-6 + 1e-9*1000)
	if !approx(r.Time, want) {
		t.Errorf("time = %g, want %g", r.Time, want)
	}
}

func TestBlockPipeliningBeatsStoreAndForward(t *testing.T) {
	top := testTopo()
	build := func() *schedule.Schedule {
		s := &schedule.Schedule{NumGPUs: 8}
		p := s.AddPiece(4e6, 0) // 4 MB over a 3-hop chain
		t0 := s.AddTransfer(schedule.Transfer{Src: 0, Dst: 1, Piece: p, Dim: 0})
		t1 := s.AddTransfer(schedule.Transfer{Src: 1, Dst: 2, Piece: p, Dim: 0, Deps: []int{t0}})
		s.AddTransfer(schedule.Transfer{Src: 2, Dst: 3, Piece: p, Dim: 0, Deps: []int{t1}})
		return s
	}
	noPipe, err := Simulate(top, build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := Simulate(top, build(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Time >= noPipe.Time {
		t.Errorf("pipelined %g not faster than store-and-forward %g", pipe.Time, noPipe.Time)
	}
	// Ideal pipeline: ~(h-1 extra blocks) instead of h full chunks.
	if pipe.Time > noPipe.Time*0.6 {
		t.Errorf("pipelining too weak: %g vs %g", pipe.Time, noPipe.Time)
	}
	if pipe.Events != 24 { // 3 transfers × 8 blocks
		t.Errorf("events = %d, want 24", pipe.Events)
	}
}

// TestFig12Overlap reproduces the §5.2 observation: stage-1 communication
// overlaps stage 0, so the makespan is smaller than the sum of per-stage
// durations.
func TestFig12Overlap(t *testing.T) {
	// 16 GPUs, 4 servers — the Fig 5 topology shape. As in Fig 12, the
	// intra-server fan-out (5τ) is slower than the inter-server one (4τ),
	// so stage 1 can begin before stage 0 completes.
	top := topology.Build(topology.Config{
		Name: "fig12", Servers: 4, GPUsPerServer: 4,
		NVAlpha: 1e-6, NVBeta: 2e-9, NetAlpha: 1e-5, NetBeta: 1e-9,
	})
	s := &schedule.Schedule{NumGPUs: 16}
	p := s.AddPiece(1e6, 0)
	// Stage 0: 0→1,0→2,0→3 on dim 0; 0→4,0→8,0→12 on dim 1.
	for _, d := range []int{1, 2, 3} {
		s.AddTransfer(schedule.Transfer{Src: 0, Dst: d, Piece: p, Dim: 0})
	}
	interDeps := make(map[int]int)
	for _, d := range []int{4, 8, 12} {
		interDeps[d] = s.AddTransfer(schedule.Transfer{Src: 0, Dst: d, Piece: p, Dim: 1})
	}
	// Stage 1: each inter-server receiver fans out inside its server.
	for _, root := range []int{4, 8, 12} {
		for off := 1; off <= 3; off++ {
			s.AddTransfer(schedule.Transfer{Src: root, Dst: root + off, Piece: p, Dim: 0, Deps: []int{interDeps[root]}})
		}
	}
	r, err := Simulate(top, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Naive stage addition: stage0 = max(intra fan-out, inter fan-out),
	// stage1 = intra fan-out; overlap must beat it.
	intra := 3*2e-9*1e6 + 1e-6
	inter := 3*1e-9*1e6 + 1e-5
	naive := math.Max(intra, inter) + intra
	if r.Time >= naive {
		t.Errorf("no overlap: time %g >= naive %g", r.Time, naive)
	}
	// But it must still exceed the critical path lower bound: first
	// inter-server arrival + intra fan-out.
	lower := (1e-5 + 1e-9*1e6) + intra
	if r.Time < lower-1e-12 {
		t.Errorf("time %g below critical path %g", r.Time, lower)
	}
}

func TestOrderBreaksTies(t *testing.T) {
	top := testTopo()
	s := &schedule.Schedule{NumGPUs: 8}
	big := s.AddPiece(1e6, 0)
	small := s.AddPiece(1000, 0)
	// Both depart GPU 0's dim-0 port; the small one has lower Order so it
	// must go first and finish early.
	bi := s.AddTransfer(schedule.Transfer{Src: 0, Dst: 1, Piece: big, Dim: 0, Order: 2})
	si := s.AddTransfer(schedule.Transfer{Src: 0, Dst: 2, Piece: small, Dim: 0, Order: 1})
	r, err := Simulate(top, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.FinishAt[si] >= r.FinishAt[bi] {
		t.Errorf("small (order 1) finished at %g, after big (order 2) at %g", r.FinishAt[si], r.FinishAt[bi])
	}
	if !approx(r.FinishAt[si], 1e-6+1e-9*1000) {
		t.Errorf("small transfer delayed: %g", r.FinishAt[si])
	}
}

func TestRejectsCrossGroupTransfer(t *testing.T) {
	top := testTopo()
	s := &schedule.Schedule{NumGPUs: 8}
	p := s.AddPiece(1000, 0)
	// GPUs 0 and 5 are in different servers and different rails: invalid
	// in dim 0.
	s.AddTransfer(schedule.Transfer{Src: 0, Dst: 5, Piece: p, Dim: 0})
	if _, err := Simulate(top, s, Options{}); err == nil {
		t.Error("accepted cross-group dim-0 transfer")
	}
	// And invalid in dim 1 (different rails).
	s.Transfers[0].Dim = 1
	if _, err := Simulate(top, s, Options{}); err == nil {
		t.Error("accepted cross-rail dim-1 transfer")
	}
}

func TestRejectsCycle(t *testing.T) {
	top := testTopo()
	s := &schedule.Schedule{NumGPUs: 8}
	p := s.AddPiece(1000, 0)
	s.AddTransfer(schedule.Transfer{Src: 0, Dst: 1, Piece: p, Dim: 0, Deps: []int{1}})
	s.AddTransfer(schedule.Transfer{Src: 1, Dst: 2, Piece: p, Dim: 0, Deps: []int{0}})
	if _, err := Simulate(top, s, Options{}); err == nil {
		t.Error("accepted cyclic schedule")
	}
}

func TestUtilization(t *testing.T) {
	top := testTopo()
	s := &schedule.Schedule{NumGPUs: 8}
	p := s.AddPiece(1e6, 0)
	s.AddTransfer(schedule.Transfer{Src: 0, Dst: 1, Piece: p, Dim: 0})
	r, err := Simulate(top, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := r.Utilization(top, 0)
	if u <= 0 || u > 1 {
		t.Errorf("utilization = %g", u)
	}
	if r.Utilization(top, 1) != 0 {
		t.Errorf("idle dim shows utilization %g", r.Utilization(top, 1))
	}
}

// sortedFinishTimes returns the transfer finish times ascending.
func sortedFinishTimes(r *Result) []float64 {
	out := append([]float64(nil), r.FinishAt...)
	sort.Float64s(out)
	return out
}

func TestFinishTimesSorted(t *testing.T) {
	top := testTopo()
	s := &schedule.Schedule{NumGPUs: 8}
	p := s.AddPiece(1000, 0)
	t0 := s.AddTransfer(schedule.Transfer{Src: 0, Dst: 1, Piece: p, Dim: 0})
	s.AddTransfer(schedule.Transfer{Src: 1, Dst: 2, Piece: p, Dim: 0, Deps: []int{t0}})
	r, err := Simulate(top, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := sortedFinishTimes(r)
	if len(ts) != 2 || ts[0] > ts[1] {
		t.Errorf("finish times %v", ts)
	}
	if ts[1] != r.Time {
		t.Errorf("max finish %g != makespan %g", ts[1], r.Time)
	}
}

func TestEmptySchedule(t *testing.T) {
	top := testTopo()
	r, err := Simulate(top, &schedule.Schedule{NumGPUs: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Time != 0 || r.Events != 0 {
		t.Errorf("empty schedule: %+v", r)
	}
}

func TestUtilizationGuards(t *testing.T) {
	top := testTopo()
	s := &schedule.Schedule{NumGPUs: 8}
	p := s.AddPiece(1000, 0)
	s.AddTransfer(schedule.Transfer{Src: 0, Dst: 1, Piece: p, Dim: 0})
	r, err := Simulate(top, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// In-range dimensions report a finite fraction in [0, 1].
	for d := 0; d < top.NumDims(); d++ {
		u := r.Utilization(top, d)
		if math.IsNaN(u) || math.IsInf(u, 0) || u < 0 || u > 1 {
			t.Errorf("dim %d: utilization %g", d, u)
		}
	}
	// Out-of-range dimensions and links must return 0, not panic or index
	// past PortBusy.
	for _, d := range []int{-1, top.NumDims(), top.NumDims() + 5} {
		if u := r.Utilization(top, d); u != 0 {
			t.Errorf("dim %d: utilization %g, want 0", d, u)
		}
	}
	for _, gc := range [][2]int{{-1, 0}, {8, 0}, {0, -1}, {0, 99}} {
		if u := r.LinkUtilization(gc[0], gc[1]); u != 0 {
			t.Errorf("link (%d,%d): utilization %g, want 0", gc[0], gc[1], u)
		}
	}
}

func TestUtilizationZeroDuration(t *testing.T) {
	// An empty schedule has zero makespan; every utilization must be an
	// exact 0 rather than 0/0.
	top := testTopo()
	r, err := Simulate(top, &schedule.Schedule{NumGPUs: 8}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < top.NumDims(); d++ {
		if u := r.Utilization(top, d); u != 0 || math.IsNaN(u) {
			t.Errorf("dim %d: utilization %g", d, u)
		}
	}
	if u := r.LinkUtilization(0, 0); u != 0 {
		t.Errorf("link utilization %g", u)
	}
}

// TestRejectsMalformed: a schedule the simulator cannot run is an error
// naming the offending transfer, never a panic.
func TestRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		edit func(s *schedule.Schedule)
		want string
	}{
		{"missing dimension", func(s *schedule.Schedule) { s.Transfers[1].Dim = 7 }, "transfer 1 uses missing dimension 7"},
		{"piece past the end", func(s *schedule.Schedule) { s.Transfers[1].Piece = 3 }, "transfer 1 references missing piece 3"},
		{"negative piece", func(s *schedule.Schedule) { s.Transfers[0].Piece = -1 }, "transfer 0 references missing piece -1"},
		{"dep past the end", func(s *schedule.Schedule) { s.Transfers[1].Deps = []int{2} }, "transfer 1 has out-of-range dep 2"},
		{"negative dep", func(s *schedule.Schedule) { s.Transfers[1].Deps = []int{-1} }, "transfer 1 has out-of-range dep -1"},
		{"self dep", func(s *schedule.Schedule) { s.Transfers[0].Deps = []int{0} }, "dependency cycle"},
		{"GPU count", func(s *schedule.Schedule) { s.NumGPUs = 4 }, "schedule has 4 GPUs, topology 8"},
	}
	for _, c := range cases {
		s := &schedule.Schedule{NumGPUs: 8}
		p := s.AddPiece(1000, 0)
		t0 := s.AddTransfer(schedule.Transfer{Src: 0, Dst: 1, Piece: p, Dim: 0})
		s.AddTransfer(schedule.Transfer{Src: 1, Dst: 2, Piece: p, Dim: 0, Deps: []int{t0}})
		c.edit(s)
		_, err := Simulate(testTopo(), s, DefaultOptions())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// depsRankEarlier reports whether every dependency precedes its
// dependent in (Order, index) — the schedules servingOrder answers with
// one sort; the rest take Kahn's algorithm.
func depsRankEarlier(s *schedule.Schedule) bool {
	for i, t := range s.Transfers {
		for _, d := range t.Deps {
			if o := s.Transfers[d].Order; o > t.Order || o == t.Order && d >= i {
				return false
			}
		}
	}
	return true
}

// TestServingOrderParity holds both paths of servingOrder to the
// reference simulator's naive ready-scan, bit for bit: hand-made schedules
// whose dependencies all rank earlier (the sort is the order) and ones
// that force Kahn's algorithm — a dependency with a larger Order, equal
// Orders with the dependency at a higher index, and a cycle.
func TestServingOrderParity(t *testing.T) {
	top := testTopo()
	type tr struct {
		src, dst, dim, order int
		deps                 []int
	}
	cases := []struct {
		name   string
		sorted bool
		ts     []tr
	}{
		{"chain", true, []tr{{0, 1, 0, 0, nil}, {1, 2, 0, 1, []int{0}}, {2, 3, 0, 2, []int{1}}}},
		{"ties by index", true, []tr{{0, 1, 0, 3, nil}, {0, 2, 0, 3, nil}, {1, 5, 1, 3, []int{0}}, {2, 6, 1, 3, []int{1}}}},
		{"negative orders", true, []tr{{4, 0, 1, -9, nil}, {0, 1, 0, -4, []int{0}}, {0, 2, 0, -4, []int{0}}}},
		{"wide orders", true, []tr{{0, 1, 0, math.MinInt, nil}, {1, 2, 0, 0, []int{0}}, {0, 3, 0, math.MaxInt, nil}}},
		{"dep with larger order", false, []tr{{0, 1, 0, 5, nil}, {1, 2, 0, 1, []int{0}}, {0, 3, 0, 1, nil}}},
		{"equal orders, dep at higher index", false, []tr{{1, 2, 0, 2, []int{2}}, {0, 3, 0, 2, nil}, {0, 1, 0, 2, nil}}},
		{"wide orders, dep ranked later", false, []tr{{1, 2, 0, math.MinInt, []int{1}}, {0, 1, 0, math.MaxInt, nil}, {0, 3, 0, 0, nil}}},
		{"shared ports out of rank", false, []tr{{0, 1, 0, 9, nil}, {0, 2, 0, 4, nil}, {1, 3, 0, 0, []int{0}}, {2, 3, 0, 1, []int{1}}, {0, 4, 1, 2, []int{3}}}},
		{"cycle", false, []tr{{0, 1, 0, 0, []int{1}}, {1, 2, 0, 1, []int{0}}, {0, 3, 0, 2, nil}}},
	}
	for _, c := range cases {
		for _, opts := range []Options{{}, DefaultOptions(), {BlockBytes: 300, MaxBlocks: 3}} {
			s := &schedule.Schedule{NumGPUs: 8}
			small, big := s.AddPiece(1000, 0), s.AddPiece(1e6, 0)
			for i, x := range c.ts {
				p := small
				if i%2 == 1 {
					p = big
				}
				s.AddTransfer(schedule.Transfer{Src: x.src, Dst: x.dst, Piece: p, Dim: x.dim, Order: x.order, Deps: x.deps})
			}
			if got := depsRankEarlier(s); got != c.sorted {
				t.Fatalf("%s: deps rank earlier = %t, the case is meant to be %t", c.name, got, c.sorted)
			}
			got, gErr := Simulate(top, s, opts)
			want, wErr := verify.ReferenceSimulate(top, s, opts.BlockBytes, opts.MaxBlocks)
			if (gErr == nil) != (wErr == nil) {
				t.Fatalf("%s: sim err %v, reference err %v", c.name, gErr, wErr)
			}
			if _, err := Time(top, s, opts); (err == nil) != (gErr == nil) {
				t.Fatalf("%s: Time err %v, Simulate err %v", c.name, err, gErr)
			}
			if gErr != nil {
				if !strings.Contains(gErr.Error(), "cycle") {
					t.Errorf("%s: err = %v, want the cycle error", c.name, gErr)
				}
				continue
			}
			if got.Time != want.Time || got.Events != want.Events {
				t.Errorf("%s %+v: time/events %v/%d, reference %v/%d", c.name, opts, got.Time, got.Events, want.Time, want.Events)
			}
			if tm, err := Time(top, s, opts); err != nil || math.Float64bits(tm) != math.Float64bits(got.Time) {
				t.Errorf("%s %+v: Time %v (%v), Simulate %v", c.name, opts, tm, err, got.Time)
			}
			for i := range s.Transfers {
				if got.FinishAt[i] != want.FinishAt[i] {
					t.Errorf("%s %+v: transfer %d finishes at %v, reference %v", c.name, opts, i, got.FinishAt[i], want.FinishAt[i])
				}
			}
		}
	}
}

// pxnAlltoAll is a 7 168-transfer AlltoAll on H800Rail(8): every pair in
// a server or on a rail goes direct, and every other pair relays through
// the sender's server-mate on the receiver's rail, PXN-style.
func pxnAlltoAll() (*topology.Topology, *schedule.Schedule) {
	top := topology.H800Rail(8)
	n, g := top.NumGPUs(), top.Sym.Local.N
	s := &schedule.Schedule{NumGPUs: n}
	dimFor := func(a, b int) int {
		for d := 0; d < top.NumDims(); d++ {
			if top.SameGroup(d, a, b) {
				return d
			}
		}
		return -1
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			p := s.AddPiece(float64(1<<20+src), 0)
			if d := dimFor(src, dst); d >= 0 {
				s.AddTransfer(schedule.Transfer{Src: src, Dst: dst, Piece: p, Dim: d, Order: dst})
				continue
			}
			relay := src/g*g + dst%g
			first := s.AddTransfer(schedule.Transfer{Src: src, Dst: relay, Piece: p, Dim: dimFor(src, relay)})
			s.AddTransfer(schedule.Transfer{Src: relay, Dst: dst, Piece: p, Dim: dimFor(relay, dst), Deps: []int{first}, Order: 1})
		}
	}
	return top, s
}

// TestTimeParity: Time returns Simulate's Time bit for bit on every
// serving-order case and on a large schedule, and a scratch grown by the
// 7 168-transfer schedule and left full of garbage times a 12-transfer
// one exactly as a fresh scratch does.
func TestTimeParity(t *testing.T) {
	bigTop, big := pxnAlltoAll()
	if len(big.Transfers) != 7168 {
		t.Fatalf("%d transfers, want 7168", len(big.Transfers))
	}
	smallTop := testTopo()
	small := &schedule.Schedule{NumGPUs: 8}
	for i := 0; i < 12; i++ {
		p := small.AddPiece(float64(1000*(i+1)), 0)
		tr := schedule.Transfer{Src: i % 4, Dst: 4 + i%4, Piece: p, Dim: 1, Order: 12 - i}
		if i >= 4 {
			tr = schedule.Transfer{Src: 4 + i%4, Dst: 4 + (i+1)%4, Piece: i - 4, Dim: 0, Order: i, Deps: []int{i - 4}}
		}
		small.AddTransfer(tr)
	}
	for _, opts := range []Options{{}, DefaultOptions(), {BlockBytes: 300, MaxBlocks: 3}} {
		sc := new(scratch)
		for _, c := range []struct {
			top *topology.Topology
			s   *schedule.Schedule
		}{{bigTop, big}, {smallTop, small}, {bigTop, big}} {
			want, err := Simulate(c.top, c.s, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Time(c.top, c.s, opts)
			if err != nil || math.Float64bits(got) != math.Float64bits(want.Time) {
				t.Fatalf("%d transfers %+v: Time %v (%v), Simulate %v", len(c.s.Transfers), opts, got, err, want.Time)
			}
			// The same scratch throughout, dirtied between runs.
			for _, buf := range [][]float64{sc.blockFinish[:cap(sc.blockFinish)], sc.ports[:cap(sc.ports)]} {
				for i := range buf {
					buf[i] = math.NaN()
				}
			}
			keys := sc.keys[:cap(sc.keys)]
			for i := range keys {
				keys[i] = math.MaxUint64
			}
			res, err := simulate(context.Background(), c.top, c.s, opts, false, sc)
			if err != nil || math.Float64bits(res.Time) != math.Float64bits(want.Time) || res.FinishAt != nil {
				t.Fatalf("%d transfers %+v: reused scratch gives %v (%v), Simulate %v", len(c.s.Transfers), opts, res.Time, err, want.Time)
			}
		}
		if cap(sc.first) < 7169 {
			t.Fatalf("scratch did not keep the large schedule's arrays")
		}
	}
}

// TestTimeAllocatesNothing: timing a schedule again allocates nothing —
// the scratch comes from the pool and no Result array is made.
func TestTimeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	top, s := pxnAlltoAll()
	opts := DefaultOptions()
	if _, err := Time(top, s, opts); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = Time(top, s, opts) }); allocs != 0 {
		t.Errorf("Time allocates %.1f times per call", allocs)
	}
}

// TestTimeConcurrent: simulations running at once each get their own
// pooled scratch — schedules of different sizes timed from several
// goroutines keep their exact times (run under -race in CI).
func TestTimeConcurrent(t *testing.T) {
	bigTop, big := pxnAlltoAll()
	smallTop, small := topology.SingleServer(8), randomSchedule(rand.New(rand.NewSource(1)), 8, 1<<20)
	opts := DefaultOptions()
	want := [2]float64{}
	for k, s := range []*schedule.Schedule{big, small} {
		top := bigTop
		if k == 1 {
			top = smallTop
		}
		r, err := Simulate(top, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = r.Time
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := (g + i) % 2
				top, s := bigTop, big
				if k == 1 {
					top, s = smallTop, small
				}
				if got, err := Time(top, s, opts); err != nil || math.Float64bits(got) != math.Float64bits(want[k]) {
					t.Errorf("goroutine %d: Time %v (%v), want %v", g, got, err, want[k])
				}
			}
		}()
	}
	wg.Wait()
}
