// Package verify is the differential verification harness: an independent
// second opinion on everything schedule.Validate and the α-β simulator
// (internal/sim) claim.
//
// It provides three tools, each deliberately sharing no implementation code
// with the subsystem it cross-checks:
//
//   - a chunk-replay oracle (CheckSchedule) that replays a schedule
//     transfer-by-transfer over per-rank contribution sets and checks the
//     postcondition of each of the nine collectives from first principles
//     (Table 1 semantics re-derived from the Kind, not read back from the
//     collective's chunk list);
//   - a reference simulator (ReferenceSimulate) — a naive O(E²) discrete
//     replay of the per-link FIFO + source-readiness semantics whose
//     completion times must match internal/sim to 1e-9;
//   - randomized topology/collective generators and permutation machinery
//     (random.go) feeding metamorphic invariants checked end-to-end
//     through core.Synthesize.
//
// The oracle is intentionally *not* equivalent to schedule.Validate. The
// two differ in documented, direction-specific ways:
//
//   - For non-reduce collectives, Validate-accepted schedules are always
//     oracle-accepted (fuzzed as FuzzValidate), but the oracle accepts some
//     schedules Validate rejects (e.g. over-provisioned piece coverage,
//     which is wasteful but correct).
//   - For reduce collectives the oracle is strictly stronger on semantics:
//     it tracks contribution multiplicity and rejects schedules where a
//     contribution is folded into a destination twice, which Validate's
//     dependency-structure checks cannot see.
package verify

import (
	"fmt"

	"syccl/internal/collective"
	"syccl/internal/schedule"
)

// tol is the relative byte tolerance for coverage checks, matching the
// solver's fractional-split rounding slack.
const tol = 1e-6

// chunkSpec is the oracle's own statement of one chunk's demand: where the
// data starts and which ranks must end up holding it.
type chunkSpec struct {
	src  int
	dsts []int
}

// expectedSpec re-derives the collective's demand map from its Kind — an
// independent implementation of the Table 1 semantics. It returns an error
// if the collective's declared chunk list disagrees with the derivation,
// which cross-checks the constructors in internal/collective as a side
// effect. AllReduce is handled by CheckAllReduce and rejected here.
func expectedSpec(col *collective.Collective) ([]chunkSpec, error) {
	n := col.NumGPUs
	others := func(skip int) []int {
		out := make([]int, 0, n-1)
		for g := 0; g < n; g++ {
			if g != skip {
				out = append(out, g)
			}
		}
		return out
	}
	var spec []chunkSpec
	switch col.Kind {
	case collective.KindSendRecv:
		// The destination is free-form; read it from the declaration but
		// insist on the one-to-one shape.
		if len(col.Chunks) != 1 || len(col.Chunks[0].Dsts) != 1 {
			return nil, fmt.Errorf("verify: SendRecv must have one chunk with one destination")
		}
		spec = []chunkSpec{{src: col.Root, dsts: []int{col.Chunks[0].Dsts[0]}}}
	case collective.KindBroadcast:
		spec = []chunkSpec{{src: col.Root, dsts: others(col.Root)}}
	case collective.KindScatter:
		for _, d := range others(col.Root) {
			spec = append(spec, chunkSpec{src: col.Root, dsts: []int{d}})
		}
	case collective.KindGather, collective.KindReduce:
		for _, s := range others(col.Root) {
			spec = append(spec, chunkSpec{src: s, dsts: []int{col.Root}})
		}
	case collective.KindAllGather:
		for g := 0; g < n; g++ {
			spec = append(spec, chunkSpec{src: g, dsts: others(g)})
		}
	case collective.KindAlltoAll:
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					spec = append(spec, chunkSpec{src: s, dsts: []int{d}})
				}
			}
		}
	case collective.KindReduceScatter:
		for d := 0; d < n; d++ {
			for s := 0; s < n; s++ {
				if s != d {
					spec = append(spec, chunkSpec{src: s, dsts: []int{d}})
				}
			}
		}
	default:
		return nil, fmt.Errorf("verify: no oracle spec for %v", col.Kind)
	}
	if len(spec) != len(col.Chunks) {
		return nil, fmt.Errorf("verify: %v declares %d chunks, Table 1 semantics give %d",
			col.Kind, len(col.Chunks), len(spec))
	}
	for i, sp := range spec {
		ch := col.Chunks[i]
		if ch.Src != sp.src {
			return nil, fmt.Errorf("verify: %v chunk %d sourced at %d, expected %d", col.Kind, i, ch.Src, sp.src)
		}
		if len(ch.Dsts) != len(sp.dsts) {
			return nil, fmt.Errorf("verify: %v chunk %d has %d destinations, expected %d",
				col.Kind, i, len(ch.Dsts), len(sp.dsts))
		}
		for j, d := range sp.dsts {
			if ch.Dsts[j] != d {
				return nil, fmt.Errorf("verify: %v chunk %d destination %d is %d, expected %d",
					col.Kind, i, j, ch.Dsts[j], d)
			}
		}
	}
	return spec, nil
}

// replay is the oracle's state machine over one schedule.
type replay struct {
	col  *collective.Collective
	s    *schedule.Schedule
	spec []chunkSpec

	// payload[i] is the set of chunk contributions transfer i is
	// *guaranteed* to carry: the sender's own origin contributions plus
	// everything delivered by the inbound transfers of the same piece that
	// the transfer explicitly depends on. nil means not yet resolved.
	payload []map[int]bool
	// color is the DFS state for cycle detection: 0 white, 1 grey, 2 black.
	color []int8
}

// isReduce reports whether piece p behaves as a combining reduction slice
// (multiple contributions travelling as one payload).
func (r *replay) isReduce(p int) bool {
	return r.col.Reduce && len(r.s.Pieces[p].Chunks) > 1
}

// ownContrib returns the contributions rank g holds of piece p before any
// transfer runs: the chunks of p that g itself sources.
func (r *replay) ownContrib(g, p int) map[int]bool {
	out := make(map[int]bool)
	for _, c := range r.s.Pieces[p].Chunks {
		if r.spec[c].src == g {
			out[c] = true
		}
	}
	return out
}

// resolve computes payload(i) by memoized depth-first recursion over the
// dependency edges — a deliberately different traversal from the Kahn
// queue in schedule.Validate and the priority heap in internal/sim.
func (r *replay) resolve(i int) (map[int]bool, error) {
	switch r.color[i] {
	case 2:
		return r.payload[i], nil
	case 1:
		return nil, fmt.Errorf("verify: dependency cycle through transfer %d", i)
	}
	r.color[i] = 1
	t := r.s.Transfers[i]
	got := r.ownContrib(t.Src, t.Piece)
	for _, d := range t.Deps {
		dp, err := r.resolve(d)
		if err != nil {
			return nil, err
		}
		dt := r.s.Transfers[d]
		if dt.Piece != t.Piece || dt.Dst != t.Src {
			continue // a timing-only dependency carries no payload
		}
		twice := -1 // the smallest chunk folded twice: map order must not pick the report
		for c := range dp {
			if got[c] && r.isReduce(t.Piece) && (twice < 0 || c < twice) {
				twice = c
			}
			got[c] = true
		}
		if twice >= 0 {
			return nil, fmt.Errorf("verify: transfer %d folds chunk %d's contribution into GPU %d twice",
				i, twice, t.Src)
		}
	}
	if len(got) == 0 {
		return nil, fmt.Errorf("verify: transfer %d sends piece %d from GPU %d, which is guaranteed nothing of it",
			i, t.Piece, t.Src)
	}
	if !r.isReduce(t.Piece) {
		// A forward piece is indivisible: holding any of it means holding
		// all of it.
		for _, c := range r.s.Pieces[t.Piece].Chunks {
			got[c] = true
		}
	}
	r.color[i] = 2
	r.payload[i] = got
	return got, nil
}

// CheckSchedule is the chunk-replay oracle: it replays the schedule
// transfer-by-transfer over per-rank contribution sets and checks that the
// collective's postcondition holds — every demanded (chunk, destination)
// pair is delivered in full, and for reduction collectives every
// contribution is folded into its destination exactly once. It shares no
// implementation code with schedule.Validate.
func CheckSchedule(col *collective.Collective, s *schedule.Schedule) error {
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
	// Only a piece that lists chunk c can hold any of it, so each chunk is
	// summed over its own pieces (ascending, as a scan of all pieces would).
	carriers := make([][]int, len(spec))
	for p, piece := range s.Pieces {
		for _, c := range piece.Chunks {
			if n := len(carriers[c]); n == 0 || carriers[c][n-1] != p {
				carriers[c] = append(carriers[c], p)
			}
		}
	}
	for c, sp := range spec {
		for _, d := range sp.dsts {
			var got float64
			for _, p := range carriers[c] {
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

// CheckAllReduce checks a two-phase AllReduce schedule as produced by the
// §4.3 assembly: a ReduceScatter prefix concatenated (schedule.Concat)
// with an AllGather suffix over n-th sized slices. It splits the schedule
// at the PhaseOrderBase watermark, re-checks both phases with the oracle,
// and independently verifies the cross-phase barrier: a GPU may only start
// gathering its slice once every reduction delivery into it has completed.
func CheckAllReduce(col *collective.Collective, s *schedule.Schedule) error {
	if col.Kind != collective.KindAllReduce {
		return fmt.Errorf("verify: CheckAllReduce called on %v", col.Kind)
	}
	n := col.NumGPUs
	if s.NumGPUs != n {
		return fmt.Errorf("verify: schedule spans %d GPUs, collective %d", s.NumGPUs, n)
	}
	// Locate the phase boundary: Concat offsets every phase-b Order by
	// PhaseOrderBase and appends phase-b transfers and pieces after
	// phase-a's.
	transOff := len(s.Transfers)
	for i, t := range s.Transfers {
		if t.Order >= schedule.PhaseOrderBase/2 {
			transOff = i
			break
		}
	}
	if transOff == 0 || transOff == len(s.Transfers) {
		return fmt.Errorf("verify: AllReduce schedule is not in two-phase form (phase split at %d of %d transfers)",
			transOff, len(s.Transfers))
	}
	pieceOff := len(s.Pieces)
	for _, t := range s.Transfers[transOff:] {
		if t.Order < schedule.PhaseOrderBase/2 {
			return fmt.Errorf("verify: phase-b transfers are not a contiguous suffix")
		}
		if t.Piece < pieceOff {
			pieceOff = t.Piece
		}
	}
	for i, t := range s.Transfers[:transOff] {
		if t.Piece >= pieceOff {
			return fmt.Errorf("verify: phase-a transfer %d references phase-b piece %d", i, t.Piece)
		}
		for _, d := range t.Deps {
			if d >= transOff {
				return fmt.Errorf("verify: phase-a transfer %d depends on phase-b transfer %d", i, d)
			}
		}
	}

	rs := &schedule.Schedule{NumGPUs: n}
	for _, p := range s.Pieces[:pieceOff] {
		rs.AddPiece(p.Bytes, p.Chunks...)
	}
	rs.Transfers = append(rs.Transfers, s.Transfers[:transOff]...)

	// Rebase the AllGather phase and collect its cross-phase dependencies.
	ag := &schedule.Schedule{NumGPUs: n}
	for _, p := range s.Pieces[pieceOff:] {
		ag.AddPiece(p.Bytes, p.Chunks...)
	}
	crossDeps := make([]map[int]bool, len(s.Transfers)-transOff)
	for i, t := range s.Transfers[transOff:] {
		nt := schedule.Transfer{
			Src: t.Src, Dst: t.Dst, Piece: t.Piece - pieceOff, Dim: t.Dim,
			Order: t.Order - schedule.PhaseOrderBase,
		}
		crossDeps[i] = make(map[int]bool)
		for _, d := range t.Deps {
			if d < transOff {
				crossDeps[i][d] = true
			} else {
				nt.Deps = append(nt.Deps, d-transOff)
			}
		}
		ag.AddTransfer(nt)
	}

	// Cross-phase barrier: an AllGather chain root at GPU g (no deps of
	// its own phase) must wait for every ReduceScatter delivery into g —
	// otherwise it could forward a partially reduced slice.
	for i, t := range ag.Transfers {
		if len(t.Deps) > 0 {
			continue
		}
		for j, rt := range rs.Transfers {
			if rt.Dst == t.Src && !crossDeps[i][j] {
				return fmt.Errorf("verify: AllGather transfer %d from GPU %d does not wait for reduction delivery %d into it",
					i, t.Src, j)
			}
		}
	}

	per := col.ChunkSize
	if err := CheckSchedule(collective.ReduceScatter(n, per), rs); err != nil {
		return fmt.Errorf("verify: AllReduce ReduceScatter phase: %w", err)
	}
	if err := CheckSchedule(collective.AllGather(n, per), ag); err != nil {
		return fmt.Errorf("verify: AllReduce AllGather phase: %w", err)
	}
	return nil
}
