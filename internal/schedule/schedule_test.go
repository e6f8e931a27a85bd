package schedule

import (
	"reflect"
	"strings"
	"testing"

	"syccl/internal/collective"
)

// chainBroadcast builds a 0→1→2→…→n-1 pipeline for Broadcast(n, 0, bytes).
func chainBroadcast(n int, bytes float64) *Schedule {
	s := &Schedule{NumGPUs: n}
	p := s.AddPiece(bytes, 0)
	prev := -1
	for g := 1; g < n; g++ {
		t := Transfer{Src: g - 1, Dst: g, Piece: p, Dim: 0, Order: g}
		if prev >= 0 {
			t.Deps = []int{prev}
		}
		prev = s.AddTransfer(t)
	}
	return s
}

// ringAllGather builds the canonical single-ring AllGather on n GPUs.
func ringAllGather(n int, bytes float64) *Schedule {
	s := &Schedule{NumGPUs: n}
	pieces := make([]int, n)
	for c := 0; c < n; c++ {
		pieces[c] = s.AddPiece(bytes, c)
	}
	// last[c] is the transfer index that last moved chunk c.
	last := make([]int, n)
	for i := range last {
		last[i] = -1
	}
	for step := 0; step < n-1; step++ {
		for g := 0; g < n; g++ {
			c := ((g-step)%n + n) % n // chunk forwarded by g at this step
			t := Transfer{Src: g, Dst: (g + 1) % n, Piece: pieces[c], Dim: 0, Order: step}
			if last[c] >= 0 {
				t.Deps = []int{last[c]}
			}
			last[c] = s.AddTransfer(t)
		}
	}
	return s
}

func TestChainBroadcastValidates(t *testing.T) {
	col := collective.Broadcast(4, 0, 100)
	s := chainBroadcast(4, 100)
	if err := s.Validate(col); err != nil {
		t.Fatal(err)
	}
}

func TestRingAllGatherValidates(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		col := collective.AllGather(n, 64)
		s := ringAllGather(n, 64)
		if err := s.Validate(col); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got, want := len(s.Transfers), n*(n-1); got != want {
			t.Errorf("n=%d: %d transfers, want %d", n, got, want)
		}
	}
}

func TestValidateRejectsUndelivered(t *testing.T) {
	col := collective.Broadcast(4, 0, 100)
	s := chainBroadcast(3, 100) // stops at GPU 2
	s.NumGPUs = 4
	if err := s.Validate(col); err == nil {
		t.Error("accepted schedule missing a destination")
	}
}

func TestValidateRejectsSendBeforeReceive(t *testing.T) {
	col := collective.Broadcast(3, 0, 100)
	s := &Schedule{NumGPUs: 3}
	p := s.AddPiece(100, 0)
	// GPU 1 relays to 2 without depending on receiving the piece first.
	s.AddTransfer(Transfer{Src: 0, Dst: 1, Piece: p})
	s.AddTransfer(Transfer{Src: 1, Dst: 2, Piece: p}) // missing dep
	if err := s.Validate(col); err == nil {
		t.Error("accepted relay without arrival dependency")
	}
}

func TestValidateRejectsPhantomSource(t *testing.T) {
	col := collective.Broadcast(3, 0, 100)
	s := &Schedule{NumGPUs: 3}
	p := s.AddPiece(100, 0)
	s.AddTransfer(Transfer{Src: 2, Dst: 1, Piece: p}) // GPU 2 never holds it
	if err := s.Validate(col); err == nil {
		t.Error("accepted send from GPU that never obtains the piece")
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	col := collective.Broadcast(3, 0, 100)
	s := &Schedule{NumGPUs: 3}
	p := s.AddPiece(100, 0)
	s.AddTransfer(Transfer{Src: 0, Dst: 1, Piece: p, Deps: []int{1}})
	s.AddTransfer(Transfer{Src: 1, Dst: 2, Piece: p, Deps: []int{0}})
	if err := s.Validate(col); err == nil {
		t.Error("accepted cyclic dependencies")
	}
}

func TestValidateRejectsPartialCoverage(t *testing.T) {
	col := collective.Broadcast(3, 0, 100)
	s := &Schedule{NumGPUs: 3}
	p := s.AddPiece(50, 0) // only half the chunk
	t0 := s.AddTransfer(Transfer{Src: 0, Dst: 1, Piece: p})
	s.AddTransfer(Transfer{Src: 1, Dst: 2, Piece: p, Deps: []int{t0}})
	if err := s.Validate(col); err == nil {
		t.Error("accepted half-covered chunk")
	}
}

func TestSplitPiecesValidate(t *testing.T) {
	// Broadcast split into two half-chunks taking different paths.
	col := collective.Broadcast(3, 0, 100)
	s := &Schedule{NumGPUs: 3}
	pa := s.AddPiece(50, 0)
	pb := s.AddPiece(50, 0)
	a0 := s.AddTransfer(Transfer{Src: 0, Dst: 1, Piece: pa})
	s.AddTransfer(Transfer{Src: 1, Dst: 2, Piece: pa, Deps: []int{a0}})
	b0 := s.AddTransfer(Transfer{Src: 0, Dst: 2, Piece: pb})
	s.AddTransfer(Transfer{Src: 2, Dst: 1, Piece: pb, Deps: []int{b0}})
	if err := s.Validate(col); err != nil {
		t.Fatal(err)
	}
}

// TestValidateReductionPieces is the edge table of the rule that a
// reduction piece covers at most one chunk per source.
func TestValidateReductionPieces(t *testing.T) {
	// splitReduce is a 3-GPU Reduce to GPU 0 whose sources each hold
	// two 50-byte chunks, the layout of a caller-split Reduce.
	splitReduce := &collective.Collective{Kind: collective.KindReduce, NumGPUs: 3, ChunkSize: 50, Root: 0, Reduce: true}
	for i, src := range []int{1, 1, 2, 2} {
		splitReduce.Chunks = append(splitReduce.Chunks, collective.Chunk{ID: i, Src: src, Dsts: []int{0}})
	}
	// tree reduces every piece 2 → 1 → 0.
	tree := func(pieces ...Piece) *Schedule {
		s := &Schedule{NumGPUs: 3}
		for _, p := range pieces {
			id := s.AddPiece(p.Bytes, p.Chunks...)
			in := s.AddTransfer(Transfer{Src: 2, Dst: 1, Piece: id})
			s.AddTransfer(Transfer{Src: 1, Dst: 0, Piece: id, Deps: []int{in}})
		}
		return s
	}
	for _, tc := range []struct {
		name    string
		col     *collective.Collective
		s       *Schedule
		wantErr string // "" accepts
	}{
		{"one piece over both chunks of each source", splitReduce,
			tree(Piece{Bytes: 50, Chunks: []int{0, 1, 2, 3}}),
			"reduction piece 0 covers chunks 0 and 1 of source 1"},
		{"one piece per chunk pair, one chunk per source", splitReduce,
			tree(Piece{Bytes: 50, Chunks: []int{0, 2}}, Piece{Bytes: 50, Chunks: []int{1, 3}}), ""},
		{"pipelined Reduce: k pieces of chunk/k, one chunk per source", collective.Reduce(3, 0, 100),
			tree(Piece{Bytes: 25, Chunks: []int{0, 1}}, Piece{Bytes: 25, Chunks: []int{0, 1}},
				Piece{Bytes: 25, Chunks: []int{0, 1}}, Piece{Bytes: 25, Chunks: []int{0, 1}}), ""},
		{"ReduceScatter slice over two chunks of source 2", collective.ReduceScatter(3, 100),
			tree(Piece{Bytes: 100, Chunks: []int{1, 3}}),
			"reduction piece 0 covers chunks 1 and 3 of source 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate(tc.col)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("got %v, want %q", err, tc.wantErr)
			}
		})
	}
}

func TestMirrorBroadcastIsReduce(t *testing.T) {
	n := 4
	bc := chainBroadcast(n, 100)
	red := bc.Mirror(func(p Piece) Piece {
		// The broadcast piece of chunk 0 becomes the reduction slice
		// covering all of Reduce's contributions (chunks 0..n-2).
		chunks := make([]int, n-1)
		for i := range chunks {
			chunks[i] = i
		}
		return Piece{Chunks: chunks, Bytes: p.Bytes}
	})
	col := collective.Reduce(n, 0, 100)
	if err := red.Validate(col); err != nil {
		t.Fatal(err)
	}
	if len(red.Transfers) != len(bc.Transfers) {
		t.Errorf("mirror changed transfer count")
	}
}

func TestMirrorReversesDeps(t *testing.T) {
	s := chainBroadcast(4, 10)
	m := s.Mirror(nil)
	// Original: t1 deps t0, t2 deps t1. Mirrored: t0 deps t1, t1 deps t2.
	if len(m.Transfers[0].Deps) != 1 || m.Transfers[0].Deps[0] != 1 {
		t.Errorf("mirrored t0 deps = %v", m.Transfers[0].Deps)
	}
	if len(m.Transfers[2].Deps) != 0 {
		t.Errorf("mirrored t2 deps = %v", m.Transfers[2].Deps)
	}
	if m.Transfers[0].Src != 1 || m.Transfers[0].Dst != 0 {
		t.Errorf("mirrored endpoints: %+v", m.Transfers[0])
	}
}

func TestReduceRequiresAllInboundDeps(t *testing.T) {
	// Star reduction into GPU 0 from 1 and 2 via relay 1: 2→1, then 1→0
	// must depend on 2→1.
	col := collective.Reduce(3, 0, 100)
	s := &Schedule{NumGPUs: 3}
	p := s.AddPiece(100, 0, 1)
	s.AddTransfer(Transfer{Src: 2, Dst: 1, Piece: p})
	s.AddTransfer(Transfer{Src: 1, Dst: 0, Piece: p}) // missing dep on inbound
	if err := s.Validate(col); err == nil {
		t.Error("accepted reduction send before all contributions arrived")
	}
	s.Transfers[1].Deps = []int{0}
	if err := s.Validate(col); err != nil {
		t.Fatal(err)
	}
}

func TestConcatAllReduce(t *testing.T) {
	// 2-GPU AllReduce = RS (each sends its contribution) ; AG (each sends
	// the reduced slice back).
	n := 2
	rs := &Schedule{NumGPUs: n}
	p0 := rs.AddPiece(50, 0) // contribution for slice at GPU 1... simplified
	rs.AddTransfer(Transfer{Src: 0, Dst: 1, Piece: p0})
	ag := &Schedule{NumGPUs: n}
	q0 := ag.AddPiece(50, 0)
	ag.AddTransfer(Transfer{Src: 1, Dst: 0, Piece: q0})
	out := Concat(rs, ag)
	if len(out.Transfers) != 2 {
		t.Fatalf("transfers = %d", len(out.Transfers))
	}
	// AG transfer starts at GPU 1, which received in RS → must depend on it.
	if len(out.Transfers[1].Deps) != 1 || out.Transfers[1].Deps[0] != 0 {
		t.Errorf("phase-b deps = %v", out.Transfers[1].Deps)
	}
	if _, err := out.topoOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	s := chainBroadcast(4, 100)
	st := s.ComputeStats(1)
	if st.Transfers != 3 || st.WireBytes != 300 || st.MaxHops != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.DuplicateArrival != 0 {
		t.Errorf("duplicates = %d", st.DuplicateArrival)
	}
	if st.PerDimBytes[0] != 300 {
		t.Errorf("per-dim bytes = %v", st.PerDimBytes)
	}
}

func TestStatsDetectsDuplicates(t *testing.T) {
	s := &Schedule{NumGPUs: 3}
	p := s.AddPiece(10, 0)
	a := s.AddTransfer(Transfer{Src: 0, Dst: 1, Piece: p})
	b := s.AddTransfer(Transfer{Src: 0, Dst: 2, Piece: p})
	s.AddTransfer(Transfer{Src: 2, Dst: 1, Piece: p, Deps: []int{a, b}}) // 1 already has it
	st := s.ComputeStats(1)
	if st.DuplicateArrival != 1 {
		t.Errorf("duplicates = %d, want 1", st.DuplicateArrival)
	}
}

func TestSortTransfersByOrder(t *testing.T) {
	s := &Schedule{NumGPUs: 3}
	p := s.AddPiece(10, 0)
	t1 := s.AddTransfer(Transfer{Src: 0, Dst: 1, Piece: p, Order: 5})
	s.AddTransfer(Transfer{Src: 1, Dst: 2, Piece: p, Order: 1, Deps: []int{t1}})
	s.SortTransfersByOrder()
	if s.Transfers[0].Order != 1 || s.Transfers[1].Order != 5 {
		t.Fatalf("not sorted: %+v", s.Transfers)
	}
	// Dep must be rewritten to the new index of the order-5 transfer.
	if len(s.Transfers[0].Deps) != 1 || s.Transfers[0].Deps[0] != 1 {
		t.Errorf("deps not rewritten: %+v", s.Transfers[0])
	}
}

func TestClone(t *testing.T) {
	s := chainBroadcast(3, 10)
	s.AddPiece(5, 0, 1) // a piece of two chunks
	s.AddPiece(1)       // and one of none
	s.AddTransfer(Transfer{Src: 0, Dst: 2, Piece: 1, Deps: []int{0, 1}})
	c := s.Clone()
	if !reflect.DeepEqual(c, s) {
		t.Fatalf("Clone = %+v, want %+v", c, s)
	}
	for i := range s.Pieces {
		if len(s.Pieces[i].Chunks) > 0 && &c.Pieces[i].Chunks[0] == &s.Pieces[i].Chunks[0] {
			t.Errorf("piece %d: Clone shares the chunk list", i)
		}
	}
	for i := range s.Transfers {
		if len(s.Transfers[i].Deps) > 0 && &c.Transfers[i].Deps[0] == &s.Transfers[i].Deps[0] {
			t.Errorf("transfer %d: Clone shares the dependency list", i)
		}
	}
	c.Transfers[0].Src = 9
	c.Pieces[0].Bytes = 99
	if s.Transfers[0].Src == 9 || s.Pieces[0].Bytes == 99 {
		t.Error("Clone shares memory with original")
	}
}

// TestConcatEdgeCases covers the empty-phase, piece-ID renumbering, and
// Order-offset behaviors of Concat in one table.
func TestConcatEdgeCases(t *testing.T) {
	two := func() *Schedule {
		s := &Schedule{NumGPUs: 2}
		p := s.AddPiece(64, 0)
		s.AddTransfer(Transfer{Src: 0, Dst: 1, Piece: p, Order: 3})
		return s
	}
	cases := []struct {
		name          string
		a, b          *Schedule
		wantPieces    int
		wantTransfers int
		check         func(t *testing.T, out *Schedule)
	}{
		{
			name: "both empty",
			a:    &Schedule{NumGPUs: 2}, b: &Schedule{NumGPUs: 2},
			wantPieces: 0, wantTransfers: 0,
		},
		{
			name: "empty a keeps b unbarriered",
			a:    &Schedule{NumGPUs: 2}, b: two(),
			wantPieces: 1, wantTransfers: 1,
			check: func(t *testing.T, out *Schedule) {
				if len(out.Transfers[0].Deps) != 0 {
					t.Errorf("b-root gained deps %v with empty phase a", out.Transfers[0].Deps)
				}
				if out.Transfers[0].Order != 3+PhaseOrderBase {
					t.Errorf("order = %d, want %d", out.Transfers[0].Order, 3+PhaseOrderBase)
				}
			},
		},
		{
			name: "empty b is identity on a",
			a:    two(), b: &Schedule{NumGPUs: 2},
			wantPieces: 1, wantTransfers: 1,
			check: func(t *testing.T, out *Schedule) {
				if out.Transfers[0].Order != 3 {
					t.Errorf("phase-a order changed: %d", out.Transfers[0].Order)
				}
			},
		},
		{
			name: "disjoint piece IDs renumber",
			a:    two(), b: two(),
			wantPieces: 2, wantTransfers: 2,
			check: func(t *testing.T, out *Schedule) {
				if out.Transfers[0].Piece != 0 || out.Transfers[1].Piece != 1 {
					t.Errorf("pieces = %d, %d", out.Transfers[0].Piece, out.Transfers[1].Piece)
				}
				// b's root transfer starts at GPU 0, which received nothing
				// in phase a, so no cross-phase dep is added; 0→1 did
				// arrive at GPU 1 but that is not b's source here.
				if got := out.Transfers[1].Deps; len(got) != 0 {
					t.Errorf("unexpected barrier deps %v", got)
				}
				if out.Transfers[1].Order-out.Transfers[0].Order != PhaseOrderBase {
					t.Errorf("orders %d, %d", out.Transfers[0].Order, out.Transfers[1].Order)
				}
			},
		},
		{
			name: "cross-phase barrier lands on b roots",
			a:    two(),
			b: func() *Schedule {
				s := &Schedule{NumGPUs: 2}
				p := s.AddPiece(64, 1)
				s.AddTransfer(Transfer{Src: 1, Dst: 0, Piece: p}) // starts where a delivered
				return s
			}(),
			wantPieces: 2, wantTransfers: 2,
			check: func(t *testing.T, out *Schedule) {
				if got := out.Transfers[1].Deps; len(got) != 1 || got[0] != 0 {
					t.Errorf("barrier deps = %v, want [0]", got)
				}
			},
		},
		{
			name: "b-internal deps shift by a's transfer count",
			a:    two(),
			b: func() *Schedule {
				s := &Schedule{NumGPUs: 2}
				p := s.AddPiece(64, 0)
				t0 := s.AddTransfer(Transfer{Src: 0, Dst: 1, Piece: p})
				s.AddTransfer(Transfer{Src: 1, Dst: 0, Piece: p, Deps: []int{t0}, Order: 1})
				return s
			}(),
			wantPieces: 2, wantTransfers: 3,
			check: func(t *testing.T, out *Schedule) {
				if got := out.Transfers[2].Deps; len(got) != 1 || got[0] != 1 {
					t.Errorf("shifted deps = %v, want [1]", got)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := Concat(c.a, c.b)
			if len(out.Pieces) != c.wantPieces || len(out.Transfers) != c.wantTransfers {
				t.Fatalf("got %d pieces / %d transfers, want %d / %d",
					len(out.Pieces), len(out.Transfers), c.wantPieces, c.wantTransfers)
			}
			if c.check != nil {
				c.check(t, out)
			}
		})
	}
}

func TestConcatPanicsOnGPUMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Concat accepted mismatched GPU counts")
		}
	}()
	Concat(&Schedule{NumGPUs: 2}, &Schedule{NumGPUs: 4})
}

// TestMirrorEdgeCases covers the empty schedule, dependency reversal,
// order negation, and the nil/identity remap contract.
func TestMirrorEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		m := (&Schedule{NumGPUs: 4}).Mirror(nil)
		if len(m.Pieces) != 0 || len(m.Transfers) != 0 || m.NumGPUs != 4 {
			t.Fatalf("mirror of empty: %+v", m)
		}
	})
	t.Run("reverses deps and negates order", func(t *testing.T) {
		s := &Schedule{NumGPUs: 3}
		p := s.AddPiece(64, 0)
		t0 := s.AddTransfer(Transfer{Src: 0, Dst: 1, Piece: p, Order: 1})
		s.AddTransfer(Transfer{Src: 1, Dst: 2, Piece: p, Deps: []int{t0}, Order: 2})
		m := s.Mirror(nil)
		if m.Transfers[0].Src != 1 || m.Transfers[0].Dst != 0 {
			t.Errorf("endpoints not swapped: %+v", m.Transfers[0])
		}
		if got := m.Transfers[0].Deps; len(got) != 1 || got[0] != 1 {
			t.Errorf("deps not reversed: %v", got)
		}
		if len(m.Transfers[1].Deps) != 0 {
			t.Errorf("tail kept deps: %v", m.Transfers[1].Deps)
		}
		if m.Transfers[0].Order != -1 || m.Transfers[1].Order != -2 {
			t.Errorf("orders = %d, %d", m.Transfers[0].Order, m.Transfers[1].Order)
		}
	})
	t.Run("remap rewrites pieces", func(t *testing.T) {
		s := &Schedule{NumGPUs: 2}
		s.AddPiece(64, 0)
		m := s.Mirror(func(p Piece) Piece {
			return Piece{Chunks: []int{0, 1, 2}, Bytes: p.Bytes}
		})
		if len(m.Pieces[0].Chunks) != 3 || m.Pieces[0].Bytes != 64 {
			t.Errorf("remap not applied: %+v", m.Pieces[0])
		}
		if len(s.Pieces[0].Chunks) != 1 {
			t.Errorf("remap mutated the source schedule: %+v", s.Pieces[0])
		}
	})
	t.Run("double mirror is the identity on structure", func(t *testing.T) {
		s := chainBroadcast(4, 100)
		mm := s.Mirror(nil).Mirror(nil)
		if len(mm.Transfers) != len(s.Transfers) {
			t.Fatalf("transfer count changed: %d vs %d", len(mm.Transfers), len(s.Transfers))
		}
		for i := range s.Transfers {
			a, b := s.Transfers[i], mm.Transfers[i]
			if a.Src != b.Src || a.Dst != b.Dst || a.Order != b.Order || a.Piece != b.Piece {
				t.Errorf("transfer %d: %+v vs %+v", i, a, b)
			}
		}
	})
}
