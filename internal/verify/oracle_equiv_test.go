package verify

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/schedule"
)

// checkScheduleReference is CheckSchedule as it was before its
// postcondition summed each chunk over the pieces that list it, kept
// verbatim: every (chunk, destination) pair scans all pieces. AllReduce
// needs no reference of its own: CheckAllReduce splits the schedule and
// hands a ReduceScatter and an AllGather to CheckSchedule.
func checkScheduleReference(col *collective.Collective, s *schedule.Schedule) error {
	if col.Kind == collective.KindAllReduce {
		return CheckAllReduce(col, s)
	}
	if s.NumGPUs != col.NumGPUs {
		return fmt.Errorf("verify: schedule spans %d GPUs, collective %d", s.NumGPUs, col.NumGPUs)
	}
	spec, err := expectedSpec(col)
	if err != nil {
		return err
	}
	// Structural screening, independent of Validate's.
	for i, t := range s.Transfers {
		if t.Src < 0 || t.Src >= s.NumGPUs || t.Dst < 0 || t.Dst >= s.NumGPUs {
			return fmt.Errorf("verify: transfer %d endpoints %d→%d out of range", i, t.Src, t.Dst)
		}
		if t.Src == t.Dst {
			return fmt.Errorf("verify: transfer %d is a self-loop at GPU %d", i, t.Src)
		}
		if t.Piece < 0 || t.Piece >= len(s.Pieces) {
			return fmt.Errorf("verify: transfer %d references piece %d of %d", i, t.Piece, len(s.Pieces))
		}
		for _, d := range t.Deps {
			if d < 0 || d >= len(s.Transfers) {
				return fmt.Errorf("verify: transfer %d depends on missing transfer %d", i, d)
			}
		}
	}
	for p, piece := range s.Pieces {
		if piece.Bytes < 0 {
			return fmt.Errorf("verify: piece %d has negative size %g", p, piece.Bytes)
		}
		for _, c := range piece.Chunks {
			if c < 0 || c >= len(spec) {
				return fmt.Errorf("verify: piece %d references chunk %d of %d", p, c, len(spec))
			}
		}
	}

	r := &replay{
		col: col, s: s, spec: spec,
		payload: make([]map[int]bool, len(s.Transfers)),
		color:   make([]int8, len(s.Transfers)),
	}
	for i := range s.Transfers {
		if _, err := r.resolve(i); err != nil {
			return err
		}
	}

	// delivered[g][p] accumulates the contributions of piece p that reach
	// rank g: its own origin contributions plus every inbound transfer's
	// payload. For reduction pieces the accumulation must be disjoint —
	// "reductions combine exactly once".
	delivered := make([]map[int]map[int]bool, s.NumGPUs)
	for g := range delivered {
		delivered[g] = make(map[int]map[int]bool)
	}
	at := func(g, p int) map[int]bool {
		m, ok := delivered[g][p]
		if !ok {
			m = r.ownContrib(g, p)
			delivered[g][p] = m
		}
		return m
	}
	for i, t := range s.Transfers {
		acc := at(t.Dst, t.Piece)
		for c := range r.payload[i] {
			if acc[c] && r.isReduce(t.Piece) {
				return fmt.Errorf("verify: chunk %d's contribution reaches GPU %d twice via piece %d (transfer %d)",
					c, t.Dst, t.Piece, i)
			}
			acc[c] = true
		}
	}

	// Postcondition: each demanded (chunk, destination) pair must receive
	// the chunk's full payload, summed over the (fractional) pieces that
	// carry it. Reductions must additionally not over-deliver.
	for c, sp := range spec {
		for _, d := range sp.dsts {
			var got float64
			for p := range s.Pieces {
				if at(d, p)[c] {
					got += s.Pieces[p].Bytes
				}
			}
			if got < col.ChunkSize*(1-tol) {
				return fmt.Errorf("verify: %v: chunk %d delivers %g of %g bytes to GPU %d",
					col.Kind, c, got, col.ChunkSize, d)
			}
			if col.Reduce && got > col.ChunkSize*(1+tol) {
				return fmt.Errorf("verify: %v: chunk %d over-reduced at GPU %d (%g of %g bytes)",
					col.Kind, c, d, got, col.ChunkSize)
			}
		}
	}
	return nil
}

// sameOracleVerdict holds CheckSchedule to the reference on one schedule:
// same verdict, same error text. It reports whether both accepted.
func sameOracleVerdict(t *testing.T, what string, col *collective.Collective, s *schedule.Schedule) bool {
	t.Helper()
	want, got := checkScheduleReference(col, s), CheckSchedule(col, s)
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: oracle says %v, reference %v", what, got, want)
	}
	if want == nil {
		return true
	}
	// The double-delivery check walks a payload map, so which chunk it
	// names is up to the iteration order in both versions alike.
	const twice = "'s contribution reaches GPU"
	if strings.Contains(want.Error(), twice) && strings.Contains(got.Error(), twice) {
		return false
	}
	if got.Error() != want.Error() {
		t.Fatalf("%s: oracle says %q, reference %q", what, got, want)
	}
	return false
}

// mutateForOracle changes one field of a copy of the schedule: an
// endpoint, a piece reference, a dependency edge, a piece's size or
// chunk list (a chunk listed twice included), or the transfer count.
func mutateForOracle(rng *rand.Rand, in *schedule.Schedule, chunks int) (*schedule.Schedule, string) {
	s := in.Clone()
	nt, np := len(s.Transfers), len(s.Pieces)
	if nt == 0 || np == 0 {
		return s, "none"
	}
	t, p := &s.Transfers[rng.Intn(nt)], &s.Pieces[rng.Intn(np)]
	switch rng.Intn(10) {
	case 0:
		t.Src = rng.Intn(s.NumGPUs+2) - 1
		return s, "src"
	case 1:
		t.Dst = rng.Intn(s.NumGPUs+2) - 1
		return s, "dst"
	case 2:
		t.Piece = rng.Intn(np+2) - 1
		return s, "piece"
	case 3:
		if len(t.Deps) > 0 {
			k := rng.Intn(len(t.Deps))
			t.Deps = append(t.Deps[:k:k], t.Deps[k+1:]...)
		}
		return s, "drop-dep"
	case 4:
		t.Deps = append(t.Deps[:len(t.Deps):len(t.Deps)], rng.Intn(nt))
		return s, "add-dep"
	case 5:
		p.Bytes *= []float64{0, 0.5, 1 + 1e-9, 1 + 1e-5, 2}[rng.Intn(5)]
		return s, "bytes"
	case 6:
		p.Chunks = append(p.Chunks[:len(p.Chunks):len(p.Chunks)], rng.Intn(chunks+2)-1)
		return s, "add-chunk"
	case 7:
		p.Chunks = append(p.Chunks[:len(p.Chunks):len(p.Chunks)], p.Chunks[0], p.Chunks[len(p.Chunks)-1])
		return s, "repeat-chunk"
	case 8:
		if len(p.Chunks) > 1 {
			p.Chunks = p.Chunks[:len(p.Chunks)-1]
		}
		return s, "drop-chunk"
	default:
		s.Transfers = s.Transfers[:nt-1]
		return s, "drop-transfer"
	}
}

// TestOracleEquivalence: on synthesized schedules of every collective,
// on single-field mutations of them and on unconstrained decoded
// schedules (several chunks per piece, fractional sizes, cycles),
// CheckSchedule returns what the all-pieces reference returns.
func TestOracleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	accepted, rejected := 0, 0
	count := func(ok bool) {
		if ok {
			accepted++
		} else {
			rejected++
		}
	}
	for _, top := range fuzzTopologies() {
		for _, kind := range AllKinds {
			col := RandomCollective(rng, kind, top.NumGPUs())
			res, err := core.Synthesize(top, col, core.Options{})
			if err != nil {
				t.Fatalf("synthesize %v on %s: %v", kind, top.Name, err)
			}
			name := fmt.Sprintf("%s/%v", top.Name, kind)
			if !sameOracleVerdict(t, name, col, res.Schedule) {
				t.Fatalf("%s: synthesized schedule rejected: %v", name, CheckSchedule(col, res.Schedule))
			}
			for m := 0; m < 40; m++ {
				mut, what := mutateForOracle(rng, res.Schedule, len(col.Chunks))
				count(sameOracleVerdict(t, name+"/"+what, col, mut))
			}
		}
	}
	for i := 0; i < 3000; i++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		_, col, s := fuzzCase(&byteScript{data: data})
		count(sameOracleVerdict(t, fmt.Sprintf("script %d", i), col, s))
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("cases are one-sided: %d accepted, %d rejected", accepted, rejected)
	}
}
