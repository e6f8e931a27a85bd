package collective

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if KindAllGather.String() != "AllGather" {
		t.Errorf("got %q", KindAllGather.String())
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("got %q", Kind(99).String())
	}
}

func TestParseKind(t *testing.T) {
	for k, name := range kindNames {
		got, err := ParseKind(name)
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus name")
	}
}

func TestBroadcastShape(t *testing.T) {
	c := Broadcast(8, 3, 1024)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Chunks) != 1 {
		t.Fatalf("chunks = %d", len(c.Chunks))
	}
	ch := c.Chunks[0]
	if ch.Src != 3 || len(ch.Dsts) != 7 || ch.Demands(3) {
		t.Errorf("broadcast chunk wrong: %+v", ch)
	}
	if !ch.Demands(0) || !ch.Demands(7) {
		t.Error("broadcast chunk missing destinations")
	}
}

func TestScatterGatherInverse(t *testing.T) {
	sc := Scatter(5, 0, 64)
	ga := Gather(5, 0, 64)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ga.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sc.Chunks) != 4 || len(ga.Chunks) != 4 {
		t.Fatalf("chunk counts: %d, %d", len(sc.Chunks), len(ga.Chunks))
	}
	// Scatter chunk i goes root→i-th destination; Gather reverses it.
	for i := range sc.Chunks {
		s, g := sc.Chunks[i], ga.Chunks[i]
		if s.Src != 0 || g.Dsts[0] != 0 {
			t.Errorf("chunk %d: scatter src %d, gather dst %v", i, s.Src, g.Dsts)
		}
		if s.Dsts[0] != g.Src {
			t.Errorf("chunk %d not inverse: %v vs %v", i, s, g)
		}
	}
}

func TestReduceFlag(t *testing.T) {
	r := Reduce(4, 1, 128)
	if !r.Reduce || r.Kind != KindReduce {
		t.Errorf("Reduce: %+v", r)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	rs := ReduceScatter(4, 128)
	if !rs.Reduce {
		t.Error("ReduceScatter should set Reduce")
	}
	if err := rs.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherShape(t *testing.T) {
	c := AllGather(4, 100)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Chunks) != 4 {
		t.Fatalf("chunks = %d", len(c.Chunks))
	}
	if c.TotalBytes() != 400 {
		t.Errorf("TotalBytes = %g", c.TotalBytes())
	}
	for i, ch := range c.Chunks {
		if ch.Src != i || len(ch.Dsts) != 3 || ch.Demands(i) {
			t.Errorf("chunk %d: %+v", i, ch)
		}
	}
}

func TestAlltoAllShape(t *testing.T) {
	c := AlltoAll(4, 10)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Chunks) != 12 {
		t.Fatalf("chunks = %d, want 12", len(c.Chunks))
	}
	// Every (src,dst) ordered pair appears exactly once.
	seen := make(map[[2]int]bool)
	for _, ch := range c.Chunks {
		if len(ch.Dsts) != 1 {
			t.Fatalf("chunk %d has %d dsts", ch.ID, len(ch.Dsts))
		}
		key := [2]int{ch.Src, ch.Dsts[0]}
		if seen[key] {
			t.Errorf("duplicate pair %v", key)
		}
		seen[key] = true
	}
}

func TestReduceScatterShape(t *testing.T) {
	c := ReduceScatter(3, 10)
	if len(c.Chunks) != 6 {
		t.Fatalf("chunks = %d, want 6", len(c.Chunks))
	}
	// Each destination receives exactly n-1 chunks.
	per := make(map[int]int)
	for _, ch := range c.Chunks {
		per[ch.Dsts[0]]++
	}
	for d := 0; d < 3; d++ {
		if per[d] != 2 {
			t.Errorf("dst %d receives %d chunks, want 2", d, per[d])
		}
	}
}

func TestAllReducePhases(t *testing.T) {
	ag, phases := AllReduce(4, 400).Phases()
	if len(phases) != 2 {
		t.Fatalf("%d phases, want 2", len(phases))
	}
	rs := phases[0].Col
	if rs.ChunkSize != 100 || ag.ChunkSize != 100 {
		t.Errorf("chunk sizes %g, %g, want 100", rs.ChunkSize, ag.ChunkSize)
	}
	if rs.Kind != KindReduceScatter || !phases[0].Mirrored || ag.Kind != KindAllGather ||
		phases[1].Col != ag || phases[1].Mirrored {
		t.Errorf("phases %+v over %v, want mirrored ReduceScatter then the forward AllGather", phases, ag.Kind)
	}
}

// TestPhases holds every kind to the phase table's contract: one valid
// forward collective of the same GPUs; a forward kind is its own and has
// no phases (allocating nothing); the all-to-one kinds and ReduceScatter
// are one mirrored phase of themselves; only a first phase is mirrored,
// and a forward phase is the forward collective.
func TestPhases(t *testing.T) {
	cols := []*Collective{
		SendRecv(6, 1, 4, 10), Broadcast(6, 2, 10), Scatter(6, 2, 10), Gather(6, 2, 10),
		Reduce(6, 2, 10), AllGather(6, 10), AlltoAll(6, 10), ReduceScatter(6, 10), AllReduce(6, 60),
	}
	for _, c := range cols {
		fwd, phases := c.Phases()
		if err := fwd.Validate(); err != nil || fwd.NumGPUs != c.NumGPUs || fwd.ChunkSize != c.ChunkSize {
			t.Errorf("%v: forward %v (%v)", c.Kind, fwd, err)
		}
		if fwd.Reduce {
			t.Errorf("%v: forward collective %v reduces", c.Kind, fwd.Kind)
		}
		switch c.Kind {
		case KindSendRecv, KindBroadcast, KindScatter, KindAllGather, KindAlltoAll:
			if fwd != c || phases != nil {
				t.Errorf("%v: forward %v, phases %+v, want itself and none", c.Kind, fwd.Kind, phases)
			}
			if a := testing.AllocsPerRun(10, func() { c.Phases() }); a != 0 {
				t.Errorf("%v: Phases allocates %g times", c.Kind, a)
			}
		case KindGather, KindReduce, KindReduceScatter:
			if len(phases) != 1 || phases[0].Col != c || !phases[0].Mirrored {
				t.Errorf("%v: phases %+v, want one mirrored phase of itself", c.Kind, phases)
			}
		}
		for i, ph := range phases {
			if err := ph.Col.Validate(); err != nil {
				t.Errorf("%v phase %d: %v", c.Kind, i, err)
			}
			if ph.Mirrored && i > 0 {
				t.Errorf("%v phase %d is mirrored", c.Kind, i)
			}
			if !ph.Mirrored && ph.Col != fwd {
				t.Errorf("%v phase %d: forward phase %v is not the forward collective", c.Kind, i, ph.Col.Kind)
			}
		}
	}
}

func TestSendRecv(t *testing.T) {
	c := SendRecv(8, 2, 5, 1e6)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Chunks[0].Src != 2 || c.Chunks[0].Dsts[0] != 5 {
		t.Errorf("SendRecv chunk: %+v", c.Chunks[0])
	}
}

func TestValidateRejections(t *testing.T) {
	for _, tc := range []struct {
		name string
		col  *Collective
		edit func(*Collective)
	}{
		{"non-dense chunk IDs", AllGather(4, 100), func(c *Collective) { c.Chunks[1].ID = 7 }},
		{"out-of-range destination", AllGather(4, 100), func(c *Collective) { c.Chunks[0].Dsts = []int{9} }},
		{"zero chunk size", AllGather(4, 0), func(*Collective) {}},
		{"NaN chunk size", AllGather(4, math.NaN()), func(*Collective) {}},
		{"infinite chunk size", AllGather(4, math.Inf(1)), func(*Collective) {}},
		{"self-demand", Broadcast(4, 0, 10), func(c *Collective) { c.Chunks[0].Dsts = []int{0, 1} }},
		{"unsorted destinations", Broadcast(4, 0, 10), func(c *Collective) { c.Chunks[0].Dsts = []int{3, 2, 1} }},
		{"swapped chunks", Scatter(4, 0, 10), func(c *Collective) { c.Chunks[0].Dsts, c.Chunks[1].Dsts = c.Chunks[1].Dsts, c.Chunks[0].Dsts }},
		{"split chunk", AllReduce(4, 400), func(c *Collective) {
			c.ChunkSize /= 2
			c.Chunks = append(c.Chunks, AllGather(4, 1).Chunks...)
			for i := range c.Chunks {
				c.Chunks[i].ID = i
			}
		}},
		{"reduce flag off", Reduce(4, 1, 10), func(c *Collective) { c.Reduce = false }},
		{"reduce flag on", AllReduce(4, 400), func(c *Collective) { c.Reduce = true }},
		{"root out of range", Gather(4, 1, 10), func(c *Collective) { c.Root = 4 }},
		{"root on an unrooted kind", AlltoAll(4, 10), func(c *Collective) { c.Root = 0 }},
		{"SendRecv to its root", SendRecv(4, 2, 3, 10), func(c *Collective) { c.Chunks[0].Dsts = []int{2} }},
		{"SendRecv to two GPUs", SendRecv(4, 2, 3, 10), func(c *Collective) { c.Chunks[0].Dsts = []int{0, 3} }},
		{"one GPU", AllGather(1, 10), func(*Collective) {}},
		{"unknown kind", AllGather(4, 10), func(c *Collective) { c.Kind = Kind(99) }},
	} {
		tc.edit(tc.col)
		if err := tc.col.Validate(); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: Validate = %v, want ErrUnsupported", tc.name, err)
		}
	}
}

// TestValidateAdmitsConstructors: every constructor's output, at every
// root and destination, is admitted.
func TestValidateAdmitsConstructors(t *testing.T) {
	for n := 2; n <= 9; n++ {
		cols := []*Collective{AllGather(n, 1), AlltoAll(n, 1), ReduceScatter(n, 1), AllReduce(n, 1)}
		for r := 0; r < n; r++ {
			cols = append(cols, Broadcast(n, r, 1), Scatter(n, r, 1), Gather(n, r, 1), Reduce(n, r, 1))
			for d := 0; d < n; d++ {
				if d != r {
					cols = append(cols, SendRecv(n, r, d, 1))
				}
			}
		}
		for _, c := range cols {
			if err := c.Validate(); err != nil {
				t.Errorf("%v: %v", c, err)
			}
		}
	}
}

// TestValidateAllocatesNothing: the admission check runs on every
// Synthesize and Plan, so it is allocation-free on the 64-GPU (h800x64)
// AlltoAll and AllGather.
func TestValidateAllocatesNothing(t *testing.T) {
	for _, c := range []*Collective{AlltoAll(64, 1<<14), AllGather(64, 1<<20), SendRecv(64, 0, 63, 1)} {
		if a := testing.AllocsPerRun(20, func() {
			if c.Validate() != nil {
				t.Fatal("refused")
			}
		}); a != 0 {
			t.Errorf("%v: Validate allocates %v times", c, a)
		}
	}
}

// Property: for any n in 2..16, AllGather chunks cover every ordered pair
// exactly once as (src → demanded-by).
func TestAllGatherCoverageProperty(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%15) + 2
		c := AllGather(n, 8)
		if c.Validate() != nil {
			return false
		}
		count := 0
		for _, ch := range c.Chunks {
			count += len(ch.Dsts)
		}
		return count == n*(n-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: ReduceScatter and AllGather are volume-symmetric inverses.
func TestRSAGVolumeProperty(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%15) + 2
		rs := ReduceScatter(n, 4)
		ag := AllGather(n, 4)
		vol := func(c *Collective) int {
			v := 0
			for _, ch := range c.Chunks {
				v += len(ch.Dsts)
			}
			return v
		}
		return vol(rs) == vol(ag)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
