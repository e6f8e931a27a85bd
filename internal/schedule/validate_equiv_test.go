package schedule

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"syccl/internal/collective"
)

// topoOrderReference is topoOrder as it stood before the CSR rewrite, kept
// verbatim: per-transfer successor slices and a FIFO queue. The reference
// validator below walks its order, so it does not follow the rewrite.
func (s *Schedule) topoOrderReference() ([]int, error) {
	n := len(s.Transfers)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for i, t := range s.Transfers {
		for _, d := range t.Deps {
			if d < 0 || d >= n {
				return nil, fmt.Errorf("schedule: transfer %d has out-of-range dep %d", i, d)
			}
			succ[d] = append(succ[d], i)
			indeg[i]++
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, j := range succ[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("schedule: dependency cycle among transfers")
	}
	return order, nil
}

// validateReference is Validate as it stood before the linear rewrite,
// kept verbatim: it recomputes each piece's origin set and a dependency
// map per transfer, and scans every piece per (chunk, destination). The
// equivalence tests below hold Validate to its verdicts and its error
// text.
func (s *Schedule) validateReference(col *collective.Collective) error {
	if s.NumGPUs != col.NumGPUs {
		return fmt.Errorf("schedule: NumGPUs %d != collective %d", s.NumGPUs, col.NumGPUs)
	}
	order, err := s.topoOrderReference()
	if err != nil {
		return err
	}
	for i, t := range s.Transfers {
		if t.Src < 0 || t.Src >= s.NumGPUs || t.Dst < 0 || t.Dst >= s.NumGPUs || t.Src == t.Dst {
			return fmt.Errorf("schedule: transfer %d has bad endpoints %d->%d", i, t.Src, t.Dst)
		}
		if t.Piece < 0 || t.Piece >= len(s.Pieces) {
			return fmt.Errorf("schedule: transfer %d references missing piece %d", i, t.Piece)
		}
	}

	// Chunk coverage: fraction-weighted piece bytes per chunk.
	cover := make([]float64, len(col.Chunks))
	for _, p := range s.Pieces {
		for _, c := range p.Chunks {
			if c < 0 || c >= len(col.Chunks) {
				return fmt.Errorf("schedule: piece references missing chunk %d", c)
			}
			cover[c] += p.Bytes
		}
	}
	// The one-chunk-per-source rule for reduction pieces, added to
	// Validate after the rewrite.
	if col.Reduce {
		for pi, p := range s.Pieces {
			if len(p.Chunks) < 2 {
				continue
			}
			seen := map[int]int{}
			for _, c := range p.Chunks {
				src := col.Chunks[c].Src
				if src < 0 || src >= s.NumGPUs {
					continue
				}
				if prev, ok := seen[src]; ok && prev != c {
					return fmt.Errorf("schedule: reduction piece %d covers chunks %d and %d of source %d", pi, prev, c, src)
				}
				seen[src] = c
			}
		}
	}
	const tol = 1e-6
	for c, got := range cover {
		if len(col.Chunks[c].Dsts) == 0 {
			continue
		}
		if got < col.ChunkSize*(1-tol) || got > col.ChunkSize*(1+tol) {
			return fmt.Errorf("schedule: chunk %d covered by %g bytes of pieces, want %g", c, got, col.ChunkSize)
		}
	}

	// Walk transfers in dependency order tracking piece possession.
	// has[p] is the set of GPUs holding piece p (for reduction pieces:
	// holding the partial aggregate rooted at their subtree).
	has := make([]map[int]bool, len(s.Pieces))
	originOf := func(p int) map[int]bool {
		set := make(map[int]bool)
		chunks := s.Pieces[p].Chunks
		if len(chunks) == 0 {
			return set
		}
		if col.Reduce && len(chunks) > 1 {
			// A reduction slice: every contributor starts with its own
			// partial aggregate.
			for _, c := range chunks {
				set[col.Chunks[c].Src] = true
			}
			return set
		}
		// A forward piece is the concatenation of its chunks: only a GPU
		// sourcing every one of them holds the piece before any transfer
		// runs. (Sourcing a single chunk of a multi-chunk piece is not
		// possession of the piece.)
		src := col.Chunks[chunks[0]].Src
		for _, c := range chunks[1:] {
			if col.Chunks[c].Src != src {
				return set
			}
		}
		set[src] = true
		return set
	}
	for p := range s.Pieces {
		has[p] = originOf(p)
	}
	// completedInto[p][g] counts inbound transfers of piece p delivered
	// to GPU g among the transfers processed so far (for the reduction
	// all-inbound-before-send check we instead verify dependency sets).
	inbound := make([]map[int][]int, len(s.Pieces)) // piece -> dst -> transfer indices
	for i, t := range s.Transfers {
		if inbound[t.Piece] == nil {
			inbound[t.Piece] = make(map[int][]int)
		}
		inbound[t.Piece][t.Dst] = append(inbound[t.Piece][t.Dst], i)
	}
	depSet := func(t Transfer) map[int]bool {
		m := make(map[int]bool, len(t.Deps))
		for _, d := range t.Deps {
			m[d] = true
		}
		return m
	}
	for _, i := range order {
		t := s.Transfers[i]
		p := t.Piece
		reduce := len(s.Pieces[p].Chunks) > 1 && col.Reduce
		if !has[p][t.Src] {
			return fmt.Errorf("schedule: transfer %d sends piece %d from GPU %d which never obtains it", i, p, t.Src)
		}
		origin := originOf(p)[t.Src]
		deps := depSet(t)
		if reduce {
			// Sender must have waited for every inbound contribution.
			for _, in := range inbound[p][t.Src] {
				if !deps[in] {
					return fmt.Errorf("schedule: reduction transfer %d from GPU %d missing dep on inbound transfer %d", i, t.Src, in)
				}
			}
		} else if !origin {
			// Sender must depend on at least one inbound delivery.
			ok := false
			for _, in := range inbound[p][t.Src] {
				if deps[in] {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("schedule: transfer %d relays piece %d from GPU %d without a dependency on its arrival", i, p, t.Src)
			}
		}
		has[p][t.Dst] = true
	}

	// Demand satisfaction.
	for c, ch := range col.Chunks {
		for _, d := range ch.Dsts {
			satisfied := 0.0
			for p, piece := range s.Pieces {
				for _, pc := range piece.Chunks {
					if pc == c && has[p][d] {
						satisfied += piece.Bytes
						break
					}
				}
			}
			if satisfied < col.ChunkSize*(1-tol) {
				return fmt.Errorf("schedule: chunk %d not delivered to GPU %d (%g of %g bytes)", c, d, satisfied, col.ChunkSize)
			}
		}
	}
	return nil
}

// sameVerdict fails the test when Validate and validateReference
// disagree on the schedule: one accepts what the other rejects, or the
// error texts differ. topoOrder must return the reference's order, or its
// error.
func sameVerdict(t *testing.T, what string, s *Schedule, col *collective.Collective) (accepted bool) {
	t.Helper()
	order, err := s.topoOrder()
	refOrder, refErr := s.topoOrderReference()
	if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(order, refOrder) {
		t.Fatalf("%s: topoOrder = %v, %v; reference = %v, %v", what, order, err, refOrder, refErr)
	}
	got, want := s.Validate(col), s.validateReference(col)
	switch {
	case (got == nil) != (want == nil):
		t.Fatalf("%s: Validate = %v, reference = %v", what, got, want)
	case got != nil && got.Error() != want.Error():
		t.Fatalf("%s: error text drifted:\n got: %v\nwant: %v", what, got, want)
	}
	return got == nil
}

// spread delivers the piece from root to every GPU of targets along a
// random arborescence with dependency-correct relays.
func spread(rng *rand.Rand, s *Schedule, piece, root int, targets []int) {
	informed := []int{root}
	delivered := map[int]int{}
	for _, k := range rng.Perm(len(targets)) {
		dst := targets[k]
		src := informed[rng.Intn(len(informed))]
		t := Transfer{Src: src, Dst: dst, Piece: piece, Dim: rng.Intn(2), Order: len(s.Transfers)}
		if di, ok := delivered[src]; ok {
			t.Deps = []int{di}
		}
		delivered[dst] = s.AddTransfer(t)
		informed = append(informed, dst)
	}
}

func others(n, skip int) []int {
	out := make([]int, 0, n-1)
	for g := 0; g < n; g++ {
		if g != skip {
			out = append(out, g)
		}
	}
	return out
}

type equivCase struct {
	name string
	s    *Schedule
	col  *collective.Collective
	// valid marks cases both validators must accept before mutation.
	valid bool
}

// randomCases builds one schedule per shape the pipeline produces:
// forward broadcasts (whole, split across pieces, with a piece naming
// its chunk twice), per-root fans, relayed one-to-one pieces, their
// mirrors into the reduction collectives, and a Concat of two phases.
func randomCases(rng *rand.Rand, n int) []equivCase {
	const size = 1 << 20
	root := rng.Intn(n)
	var cases []equivCase

	bc := &Schedule{NumGPUs: n}
	spread(rng, bc, bc.AddPiece(size, 0), root, others(n, root))
	cases = append(cases, equivCase{"broadcast", bc, collective.Broadcast(n, root, size), true})

	split := &Schedule{NumGPUs: n}
	k := 2 + rng.Intn(3)
	for i := 0; i < k; i++ {
		spread(rng, split, split.AddPiece(size/float64(k), 0), root, others(n, root))
	}
	cases = append(cases, equivCase{"split", split, collective.Broadcast(n, root, size), true})

	// A sliver that names chunk 0 twice rides along a whole piece: it is
	// covered twice but may count once per destination.
	twice := &Schedule{NumGPUs: n}
	spread(rng, twice, twice.AddPiece(size, 0), root, others(n, root))
	spread(rng, twice, twice.AddPiece(size*1e-8, 0, 0), root, others(n, root))
	cases = append(cases, equivCase{"twice", twice, collective.Broadcast(n, root, size), true})
	// ...and two halves that each name it twice cover the chunk but
	// deliver only half of it.
	halves := &Schedule{NumGPUs: n}
	spread(rng, halves, halves.AddPiece(size/2, 0, 0), root, others(n, root))
	cases = append(cases, equivCase{"twice-short", halves, collective.Broadcast(n, root, size), false})

	agCol := collective.AllGather(n, size)
	ag := &Schedule{NumGPUs: n}
	for g := 0; g < n; g++ {
		spread(rng, ag, ag.AddPiece(size, g), g, others(n, g))
	}
	cases = append(cases, equivCase{"allgather", ag, agCol, true})

	// Scatter and AlltoAll: one piece per (source, destination), relayed
	// through a random third GPU half of the time.
	relay := func(s *Schedule, col *collective.Collective) {
		for _, ch := range col.Chunks {
			p := s.AddPiece(size, ch.ID)
			dst := ch.Dsts[0]
			via := rng.Intn(n)
			if via == ch.Src || via == dst {
				s.AddTransfer(Transfer{Src: ch.Src, Dst: dst, Piece: p, Order: len(s.Transfers)})
				continue
			}
			first := s.AddTransfer(Transfer{Src: ch.Src, Dst: via, Piece: p, Order: len(s.Transfers)})
			s.AddTransfer(Transfer{Src: via, Dst: dst, Piece: p, Dim: 1, Deps: []int{first}, Order: len(s.Transfers)})
		}
	}
	scCol := collective.Scatter(n, root, size)
	sc := &Schedule{NumGPUs: n}
	relay(sc, scCol)
	cases = append(cases, equivCase{"scatter", sc, scCol, true})
	a2aCol := collective.AlltoAll(n, size)
	a2a := &Schedule{NumGPUs: n}
	relay(a2a, a2aCol)
	cases = append(cases, equivCase{"alltoall", a2a, a2aCol, true})

	// Mirrors, remapped the way internal/core does it.
	redCol := collective.Reduce(n, root, size)
	all := make([]int, len(redCol.Chunks))
	for i := range all {
		all[i] = i
	}
	red := bc.Mirror(func(p Piece) Piece { return Piece{Chunks: all, Bytes: p.Bytes} })
	cases = append(cases, equivCase{"reduce", red, redCol, true})

	gaCol := collective.Gather(n, root, size)
	bySrc := map[int]int{}
	for _, ch := range gaCol.Chunks {
		bySrc[ch.Src] = ch.ID
	}
	ga := sc.Mirror(func(p Piece) Piece {
		return Piece{Chunks: []int{bySrc[scCol.Chunks[p.Chunks[0]].Dsts[0]]}, Bytes: p.Bytes}
	})
	cases = append(cases, equivCase{"gather", ga, gaCol, true})

	rsCol := collective.ReduceScatter(n, size)
	byDst := map[int][]int{}
	for _, ch := range rsCol.Chunks {
		byDst[ch.Dsts[0]] = append(byDst[ch.Dsts[0]], ch.ID)
	}
	rs := ag.Mirror(func(p Piece) Piece {
		return Piece{Chunks: append([]int(nil), byDst[p.Chunks[0]]...), Bytes: p.Bytes}
	})
	cases = append(cases, equivCase{"reducescatter", rs, rsCol, true})

	// The two AllReduce phases concatenated validate against neither
	// phase's collective alone; what matters is the same refusal.
	full := Concat(rs, ag)
	cases = append(cases,
		equivCase{"concat/rs", full, rsCol, false},
		equivCase{"concat/ag", full, agCol, false},
		equivCase{"concat/allreduce", full, collective.AllReduce(n, size*float64(n)), false})
	return cases
}

// mutate changes one field of a copy of the schedule: an endpoint, a
// piece reference, a dependency edge (dropped, added, possibly forward
// or out of range), a piece's size or chunk list, the transfer count or
// the GPU count.
func mutate(rng *rand.Rand, in *Schedule, chunks int) (*Schedule, string) {
	s := in.Clone()
	pick := func(n int) int { return rng.Intn(n+2) - 1 } // -1 .. n: both ends out of range
	nt, np := len(s.Transfers), len(s.Pieces)
	switch op := rng.Intn(11); {
	case op == 0 && nt > 0:
		s.Transfers[rng.Intn(nt)].Src = pick(s.NumGPUs)
		return s, "src"
	case op == 1 && nt > 0:
		s.Transfers[rng.Intn(nt)].Dst = pick(s.NumGPUs)
		return s, "dst"
	case op == 2 && nt > 0:
		s.Transfers[rng.Intn(nt)].Piece = pick(np)
		return s, "piece"
	case op == 3 && nt > 0:
		t := &s.Transfers[rng.Intn(nt)]
		if len(t.Deps) > 0 {
			k := rng.Intn(len(t.Deps))
			t.Deps = append(t.Deps[:k], t.Deps[k+1:]...)
		}
		return s, "drop-dep"
	case op == 4 && nt > 0:
		t := &s.Transfers[rng.Intn(nt)]
		t.Deps = append(t.Deps, pick(nt))
		return s, "add-dep"
	case op == 5 && nt > 0:
		t := &s.Transfers[rng.Intn(nt)]
		if len(t.Deps) > 0 {
			t.Deps[rng.Intn(len(t.Deps))] = rng.Intn(nt)
		}
		return s, "rewire-dep"
	case op == 6 && np > 0:
		s.Pieces[rng.Intn(np)].Bytes *= []float64{0, 0.5, 1 + 1e-9, 1 + 1e-5, 2}[rng.Intn(5)]
		return s, "bytes"
	case op == 7 && np > 0:
		p := &s.Pieces[rng.Intn(np)]
		p.Chunks = append(p.Chunks, pick(chunks))
		return s, "add-chunk"
	case op == 8 && np > 0:
		p := &s.Pieces[rng.Intn(np)]
		if len(p.Chunks) > 0 {
			p.Chunks = p.Chunks[:len(p.Chunks)-1]
		}
		return s, "drop-chunk"
	case op == 9 && nt > 0:
		s.Transfers = s.Transfers[:nt-1]
		return s, "drop-transfer"
	default:
		s.NumGPUs += rng.Intn(3) - 1
		return s, "gpus"
	}
}

// TestValidateEquivalence: on every shape of valid schedule and on
// single-field mutations of them, Validate returns what the quadratic
// reference returns — same verdict, same error text.
func TestValidateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	accepted, rejected := 0, 0
	for round := 0; round < 60; round++ {
		n := 2 + rng.Intn(9)
		if round == 0 {
			n = 65 + rng.Intn(8) // more than one bitset word per piece
		}
		for _, c := range randomCases(rng, n) {
			ok := sameVerdict(t, c.name, c.s, c.col)
			if c.valid && !ok {
				t.Fatalf("%s (n=%d): valid schedule rejected: %v", c.name, n, c.s.Validate(c.col))
			}
			for m := 0; m < 12; m++ {
				mut, what := mutate(rng, c.s, len(c.col.Chunks))
				if sameVerdict(t, fmt.Sprintf("%s/%s", c.name, what), mut, c.col) {
					accepted++
				} else {
					rejected++
				}
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("mutations are one-sided: %d accepted, %d rejected", accepted, rejected)
	}
}

// fuzzSchedule decodes an unconstrained (collective, schedule) pair from
// fuzz input; an exhausted input reads as zeros.
func fuzzSchedule(data []byte) (*Schedule, *collective.Collective) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	n := 2 + next()%7
	size := float64(64 * (1 + next()%4))
	root := next() % n
	var col *collective.Collective
	switch next() % 8 {
	case 0:
		col = collective.Broadcast(n, root, size)
	case 1:
		col = collective.Scatter(n, root, size)
	case 2:
		col = collective.Gather(n, root, size)
	case 3:
		col = collective.Reduce(n, root, size)
	case 4:
		col = collective.AllGather(n, size)
	case 5:
		col = collective.AlltoAll(n, size)
	case 6:
		col = collective.ReduceScatter(n, size)
	default:
		col = collective.AllReduce(n, size*float64(n))
	}
	s := &Schedule{NumGPUs: n}
	pieces := 1 + next()%4
	for p := 0; p < pieces; p++ {
		mask := next()
		var chunks []int
		for c := 0; c < 8; c++ {
			if mask&(1<<c) != 0 {
				// Wraps, so a piece can name one chunk twice.
				chunks = append(chunks, c%len(col.Chunks))
			}
		}
		s.AddPiece(col.ChunkSize*float64(1+next()%4)/2, chunks...)
	}
	transfers := next() % 16
	for i := 0; i < transfers; i++ {
		t := Transfer{Src: next() % n, Dst: next() % n, Piece: next() % pieces, Order: next() % 8}
		deps := next()
		for d := 0; d < transfers && d < 8; d++ {
			if d != i && deps&(1<<d) != 0 {
				t.Deps = append(t.Deps, d)
			}
		}
		s.AddTransfer(t)
	}
	return s, col
}

// FuzzValidateEquivalence holds Validate to the reference on arbitrary
// schedules: cycles, phantom sources, missing dependencies, short and
// double coverage all reach both.
func FuzzValidateEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 1, 1, 1, 3, 0, 1, 0, 0, 0, 1, 2, 0, 0, 1, 2, 3, 0, 0, 4})
	f.Add([]byte{1, 1, 0, 3, 1, 255, 1, 2, 1, 0, 0, 0, 0, 2, 0, 0, 0, 1})
	f.Add([]byte{3, 0, 1, 6, 2, 3, 1, 12, 1, 4, 0, 1, 0, 0, 0, 2, 1, 1, 0, 1, 3, 2, 0, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, col := fuzzSchedule(data)
		sameVerdict(t, "fuzz", s, col)
	})
}
