// Package schedule represents collective-communication schedules: the
// concrete sequence of inter-GPU transfers that satisfies a collective
// demand on a topology.
//
// A schedule moves *pieces*. A piece is a fraction of one collective chunk
// (sketch combinations split chunks across sketches, §4.2), or — for
// reduction collectives — a slice that aggregates several chunks: when
// contributions toward the same destination meet at a relay they travel on
// as a single combined piece, which is why a Reduce costs the same as the
// mirrored Broadcast (§4.1).
//
// Each Transfer carries one piece across one topology dimension and lists
// the transfers that must complete before it may start. The simulator
// (package sim) serializes transfers that share a GPU port and respects
// dependencies; the Order field breaks ties on shared ports.
package schedule

import (
	"fmt"
	"sort"

	"syccl/internal/collective"
)

// Piece is a unit of payload moved by transfers.
type Piece struct {
	// Chunks lists the collective chunk IDs this piece carries data of.
	// Forward (non-reduce) pieces cover exactly one chunk; reduction
	// pieces may cover many (the contributions being combined).
	Chunks []int
	// Bytes is the wire size of the piece. For a forward piece covering a
	// fraction t of a chunk of size s, Bytes = t·s; a reduction piece has
	// the same size no matter how many chunks it combines.
	Bytes float64
}

// Transfer is a single communication event.
type Transfer struct {
	Src, Dst int   // GPU IDs
	Piece    int   // index into Schedule.Pieces
	Dim      int   // topology dimension whose ports the transfer uses
	Deps     []int // indices of transfers that must complete first
	Order    int   // tie-break priority on shared ports (lower first)
}

// Schedule is a complete set of transfers satisfying a collective.
type Schedule struct {
	NumGPUs   int
	Pieces    []Piece
	Transfers []Transfer
}

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{NumGPUs: s.NumGPUs}
	c.Pieces = make([]Piece, len(s.Pieces))
	for i, p := range s.Pieces {
		c.Pieces[i] = Piece{Chunks: append([]int(nil), p.Chunks...), Bytes: p.Bytes}
	}
	c.Transfers = make([]Transfer, len(s.Transfers))
	for i, t := range s.Transfers {
		t.Deps = append([]int(nil), t.Deps...)
		c.Transfers[i] = t
	}
	return c
}

// AddPiece appends a piece and returns its index.
func (s *Schedule) AddPiece(bytes float64, chunks ...int) int {
	s.Pieces = append(s.Pieces, Piece{Chunks: append([]int(nil), chunks...), Bytes: bytes})
	return len(s.Pieces) - 1
}

// AddTransfer appends a transfer and returns its index.
func (s *Schedule) AddTransfer(t Transfer) int {
	s.Transfers = append(s.Transfers, t)
	return len(s.Transfers) - 1
}

// dependents lists, per transfer, the transfers that depend on it, in
// ascending index order (once per dependency naming it): the list of d is
// succ[start[d]:start[d+1]]. It reports the first out-of-range dependency,
// scanning transfers and their deps in order.
func (s *Schedule) dependents() (start, succ []int, err error) {
	n := len(s.Transfers)
	start = make([]int, n+1)
	for i, t := range s.Transfers {
		for _, d := range t.Deps {
			if d < 0 || d >= n {
				return nil, nil, fmt.Errorf("schedule: transfer %d has out-of-range dep %d", i, d)
			}
			start[d]++
		}
	}
	for d := 1; d <= n; d++ {
		start[d] += start[d-1] // now the end of d's list
	}
	// Filled back to front, so each list ascends and start[d] ends up at
	// its beginning.
	succ = make([]int, start[n])
	for i := n - 1; i >= 0; i-- {
		deps := s.Transfers[i].Deps
		for k := len(deps) - 1; k >= 0; k-- {
			start[deps[k]]--
			succ[start[deps[k]]] = i
		}
	}
	return start, succ, nil
}

// topoOrder returns a topological order of transfer indices, or an error
// if the dependency graph has a cycle: Kahn's algorithm with a FIFO queue,
// which is the order slice itself.
func (s *Schedule) topoOrder() ([]int, error) {
	n := len(s.Transfers)
	start, succ, err := s.dependents()
	if err != nil {
		return nil, err
	}
	indeg := make([]int32, n)
	for i := range s.Transfers {
		indeg[i] = int32(len(s.Transfers[i].Deps))
	}
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		i := order[head]
		for _, j := range succ[start[i]:start[i+1]] {
			if indeg[j]--; indeg[j] == 0 {
				order = append(order, j)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("schedule: dependency cycle among transfers")
	}
	return order, nil
}

// Validate checks that the schedule is structurally sound and satisfies
// the collective demand col:
//
//   - dependency graph is acyclic and references are in range;
//   - every chunk is fully covered: the piece fractions covering each
//     chunk sum to the chunk size;
//   - forward pieces propagate correctly: a GPU only sends a piece it
//     originated or previously received (enforced through dependencies);
//   - every demanded (chunk, destination) pair is delivered;
//   - reduction pieces form flows in which every contributing source
//     reaches the destination, and a sender has received all inbound
//     contributions before sending (enforced through dependencies).
func (s *Schedule) Validate(col *collective.Collective) error {
	if s.NumGPUs != col.NumGPUs {
		return fmt.Errorf("schedule: NumGPUs %d != collective %d", s.NumGPUs, col.NumGPUs)
	}
	order, err := s.topoOrder()
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
	if col.Reduce {
		// A reduction piece folds one contribution per source: covering
		// two chunks of one source would count one payload as two.
		// chunkOf[g] is 1 + the chunk of source g the piece covers.
		chunkOf := make([]int, s.NumGPUs)
		for pi, p := range s.Pieces {
			if len(p.Chunks) < 2 {
				continue
			}
			clear(chunkOf)
			for _, c := range p.Chunks {
				src := col.Chunks[c].Src
				if src < 0 || src >= len(chunkOf) {
					continue
				}
				if chunkOf[src] != 0 && chunkOf[src] != c+1 {
					return fmt.Errorf("schedule: reduction piece %d covers chunks %d and %d of source %d", pi, chunkOf[src]-1, c, src)
				}
				chunkOf[src] = c + 1
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

	// Walk transfers in dependency order tracking piece possession, one
	// bitset row of GPUs per piece: has marks the holders so far (for
	// reduction pieces: of the partial aggregate rooted at their
	// subtree), origin the holders before any transfer runs.
	words := (s.NumGPUs + 63) / 64
	has := make([]uint64, len(s.Pieces)*words)
	for p := range s.Pieces {
		s.markOrigins(col, p, has[p*words:(p+1)*words])
	}
	origin := append([]uint64(nil), has...)
	// Only a reduction needs every transfer into a GPU; the forward check
	// finds its inbound delivery among the sender's own dependencies.
	var inbound inboundIndex
	if col.Reduce {
		for _, p := range s.Pieces {
			if len(p.Chunks) > 1 {
				inbound = s.inboundIndex()
				break
			}
		}
	}
	for _, i := range order {
		t := &s.Transfers[i]
		p := t.Piece
		reduce := len(s.Pieces[p].Chunks) > 1 && col.Reduce
		if !holds(has, words, p, t.Src) {
			return fmt.Errorf("schedule: transfer %d sends piece %d from GPU %d which never obtains it", i, p, t.Src)
		}
		if reduce {
			// Sender must have waited for every inbound contribution.
			for _, in := range inbound.into(p, t.Src) {
				if !dependsOn(t, in) {
					return fmt.Errorf("schedule: reduction transfer %d from GPU %d missing dep on inbound transfer %d", i, t.Src, in)
				}
			}
		} else if !holds(origin, words, p, t.Src) && !s.dependsOnArrival(t) {
			// Sender must depend on at least one inbound delivery.
			return fmt.Errorf("schedule: transfer %d relays piece %d from GPU %d without a dependency on its arrival", i, p, t.Src)
		}
		setGPU(has[p*words:(p+1)*words], t.Dst)
	}

	// Demand satisfaction, through a chunk -> pieces index built once:
	// piecesOf[chunkEnd[c]:chunkEnd[c+1]] lists, in ascending piece
	// order, every piece carrying chunk c (once, however often the piece
	// names it), so each sum below adds the same terms in the same order
	// as a scan over all pieces would.
	chunkEnd := make([]int, len(col.Chunks)+1)
	lastPiece := make([]int, len(col.Chunks)) // piece+1 that last named the chunk
	for p, piece := range s.Pieces {
		for _, c := range piece.Chunks {
			if lastPiece[c] != p+1 {
				lastPiece[c] = p + 1
				chunkEnd[c+1]++
			}
		}
	}
	for c := range col.Chunks {
		chunkEnd[c+1] += chunkEnd[c]
		lastPiece[c] = 0
	}
	piecesOf := make([]int, chunkEnd[len(col.Chunks)])
	fill := append([]int(nil), chunkEnd[:len(col.Chunks)]...)
	for p, piece := range s.Pieces {
		for _, c := range piece.Chunks {
			if lastPiece[c] != p+1 {
				lastPiece[c] = p + 1
				piecesOf[fill[c]] = p
				fill[c]++
			}
		}
	}
	for c, ch := range col.Chunks {
		for _, d := range ch.Dsts {
			satisfied := 0.0
			for _, p := range piecesOf[chunkEnd[c]:chunkEnd[c+1]] {
				if holds(has, words, p, d) {
					satisfied += s.Pieces[p].Bytes
				}
			}
			if satisfied < col.ChunkSize*(1-tol) {
				return fmt.Errorf("schedule: chunk %d not delivered to GPU %d (%g of %g bytes)", c, d, satisfied, col.ChunkSize)
			}
		}
	}
	return nil
}

// holds reports whether GPU g is in piece p's row of a possession
// bitset. A GPU id outside the rows (only a malformed collective names
// one) is in no set.
func holds(set []uint64, words, p, g int) bool {
	if g < 0 || g >= words*64 {
		return false
	}
	return set[p*words+g>>6]&(1<<(g&63)) != 0
}

// setGPU adds GPU g to a bitset row, ignoring ids outside it.
func setGPU(row []uint64, g int) {
	if g >= 0 && g < len(row)*64 {
		row[g>>6] |= 1 << (g & 63)
	}
}

// markOrigins sets, in row, the GPUs that hold piece p before any
// transfer runs.
func (s *Schedule) markOrigins(col *collective.Collective, p int, row []uint64) {
	chunks := s.Pieces[p].Chunks
	if len(chunks) == 0 {
		return
	}
	if col.Reduce && len(chunks) > 1 {
		// A reduction slice: every contributor starts with its own
		// partial aggregate.
		for _, c := range chunks {
			setGPU(row, col.Chunks[c].Src)
		}
		return
	}
	// A forward piece is the concatenation of its chunks: only a GPU
	// sourcing every one of them holds the piece before any transfer
	// runs. (Sourcing a single chunk of a multi-chunk piece is not
	// possession of the piece.)
	src := col.Chunks[chunks[0]].Src
	for _, c := range chunks[1:] {
		if col.Chunks[c].Src != src {
			return
		}
	}
	setGPU(row, src)
}

// dependsOn reports whether transfer t lists in among its dependencies.
func dependsOn(t *Transfer, in int) bool {
	for _, d := range t.Deps {
		if d == in {
			return true
		}
	}
	return false
}

// dependsOnArrival reports whether t depends on a transfer delivering its
// piece into its source — on some transfer inboundIndex.into(t.Piece,
// t.Src) would list. t's dependencies must be in range.
func (s *Schedule) dependsOnArrival(t *Transfer) bool {
	for _, d := range t.Deps {
		if in := &s.Transfers[d]; in.Piece == t.Piece && in.Dst == t.Src {
			return true
		}
	}
	return false
}

// inboundIndex answers "which transfers deliver piece p into GPU g":
// transfer indices sorted by (piece, destination, index) by two stable
// counting sorts, with the end of every piece's run.
type inboundIndex struct {
	transfers []Transfer
	sorted    []int
	pieceEnd  []int // sorted[pieceEnd[p]:pieceEnd[p+1]] is piece p's run
}

func (s *Schedule) inboundIndex() inboundIndex {
	_, byDst := s.inboundByGPU()
	ix := inboundIndex{transfers: s.Transfers, sorted: make([]int, len(s.Transfers)), pieceEnd: make([]int, len(s.Pieces)+1)}
	for _, t := range s.Transfers {
		ix.pieceEnd[t.Piece+1]++
	}
	for p := range s.Pieces {
		ix.pieceEnd[p+1] += ix.pieceEnd[p]
	}
	next := append([]int(nil), ix.pieceEnd[:len(s.Pieces)]...)
	for _, i := range byDst {
		p := s.Transfers[i].Piece
		ix.sorted[next[p]] = i
		next[p]++
	}
	return ix
}

// into returns the transfers delivering piece p into GPU g, in
// ascending index order.
func (ix inboundIndex) into(p, g int) []int {
	run := ix.sorted[ix.pieceEnd[p]:ix.pieceEnd[p+1]]
	lo, hi := 0, len(run)
	for lo < hi {
		mid := (lo + hi) / 2
		if ix.transfers[run[mid]].Dst < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	hi = lo
	for hi < len(run) && ix.transfers[run[hi]].Dst == g {
		hi++
	}
	return run[lo:hi]
}

// Mirror returns the time-reversed schedule: every transfer's endpoints are
// swapped, dependency edges are reversed, and Order is negated so relative
// port ordering reverses too. Mirroring a Broadcast schedule yields a
// Reduce schedule of identical cost (§4.1: all-to-one collectives are the
// inverses of one-to-all ones). remap rewrites each piece for the mirrored
// collective (e.g. a broadcast piece of chunk 0 becomes a reduction piece
// covering all contributions); passing nil keeps pieces unchanged.
func (s *Schedule) Mirror(remap func(Piece) Piece) *Schedule {
	m := &Schedule{NumGPUs: s.NumGPUs}
	m.Pieces = make([]Piece, len(s.Pieces))
	for i, p := range s.Pieces {
		q := Piece{Chunks: append([]int(nil), p.Chunks...), Bytes: p.Bytes}
		if remap != nil {
			q = remap(q)
		}
		m.Pieces[i] = q
	}
	// Reversed dependency edges: if t2 depended on t1, mirrored t1'
	// depends on t2'. Each mirrored transfer's deps are its dependents,
	// cut without spare capacity from the one array that lists them.
	start, succ, err := s.dependents()
	if err != nil {
		panic(err) // an out-of-range dependency has no mirror image
	}
	m.Transfers = make([]Transfer, len(s.Transfers))
	for i, t := range s.Transfers {
		m.Transfers[i] = Transfer{
			Src:   t.Dst,
			Dst:   t.Src,
			Piece: t.Piece,
			Dim:   t.Dim,
			Order: -t.Order,
		}
		if lo, hi := start[i], start[i+1]; hi > lo {
			m.Transfers[i].Deps = succ[lo:hi:hi]
		}
	}
	return m
}

// MirrorInto time-reverses fwd, a schedule of fwdCol = col.Forward(), into
// a schedule of the all-to-one collective col, remapping each piece onto
// col's chunks:
//
//   - Reduce: the broadcast piece of the root's chunk becomes the
//     reduction slice covering every contribution;
//   - Gather: the scatter piece destined to GPU v becomes the gather
//     chunk sourced at v;
//   - ReduceScatter: the AllGather piece of chunk r becomes the reduction
//     slice covering all contributions destined to GPU r.
func MirrorInto(fwd *Schedule, fwdCol, col *collective.Collective) *Schedule {
	switch col.Kind {
	case collective.KindReduce:
		all := make([]int, len(col.Chunks))
		for i := range all {
			all[i] = i
		}
		return fwd.Mirror(func(p Piece) Piece {
			return Piece{Chunks: all, Bytes: p.Bytes}
		})
	case collective.KindGather:
		bySrc := make([]int, col.NumGPUs)
		for _, ch := range col.Chunks {
			bySrc[ch.Src] = ch.ID
		}
		return fwd.Mirror(func(p Piece) Piece {
			out := Piece{Bytes: p.Bytes}
			for _, c := range p.Chunks {
				// Forward scatter chunk c is destined to one GPU; that
				// GPU sources the mirrored gather chunk.
				out.Chunks = append(out.Chunks, bySrc[fwdCol.Chunks[c].Dsts[0]])
			}
			return out
		})
	case collective.KindReduceScatter:
		byDst := make([][]int, col.NumGPUs)
		for _, ch := range col.Chunks {
			byDst[ch.Dsts[0]] = append(byDst[ch.Dsts[0]], ch.ID)
		}
		return fwd.Mirror(func(p Piece) Piece {
			out := Piece{Bytes: p.Bytes}
			for _, c := range p.Chunks {
				// Forward AllGather chunk c is sourced at GPU c; the
				// mirrored slice aggregates contributions destined
				// there.
				out.Chunks = append(out.Chunks, byDst[fwdCol.Chunks[c].Src]...)
			}
			return out
		})
	default:
		panic(fmt.Sprintf("schedule: cannot mirror into %v", col.Kind))
	}
}

// PhaseOrderBase is the Order offset Concat adds to phase-b transfers so
// they sort after every phase-a transfer on shared ports. Consumers (e.g.
// the verify oracle) use it to split a concatenated schedule back into its
// phases.
const PhaseOrderBase = 1 << 20

// Concat appends b after a with cross-phase dependencies: each transfer of
// b whose source GPU g received data in a (or that has no deps of its own)
// additionally depends on all of a's transfers delivering into g. This
// models AllReduce = ReduceScatter ; AllGather, where GPU g may start
// gathering its reduced slice only once the slice is fully reduced at g.
func Concat(a, b *Schedule) *Schedule {
	if a.NumGPUs != b.NumGPUs {
		panic("schedule.Concat: GPU count mismatch")
	}
	pieceOff := len(a.Pieces)
	transOff := len(a.Transfers)
	out := &Schedule{
		NumGPUs:   a.NumGPUs,
		Pieces:    make([]Piece, 0, len(a.Pieces)+len(b.Pieces)),
		Transfers: make([]Transfer, 0, len(a.Transfers)+len(b.Transfers)),
	}
	// a's inbound transfers per GPU, in ascending index order.
	inStart, inboundA := a.inboundByGPU()
	inboundOf := func(g int) []int {
		if g < 0 || g >= a.NumGPUs {
			return nil
		}
		return inboundA[inStart[g]:inStart[g+1]]
	}

	// Every chunk list and dependency list is cut, without spare capacity,
	// from one array each; an empty one stays nil.
	chunks, deps := 0, 0
	for _, s := range []*Schedule{a, b} {
		for _, p := range s.Pieces {
			chunks += len(p.Chunks)
		}
	}
	for _, t := range a.Transfers {
		deps += len(t.Deps)
	}
	for _, t := range b.Transfers {
		if len(t.Deps) > 0 {
			deps += len(t.Deps)
		} else {
			deps += len(inboundOf(t.Src))
		}
	}
	chunkArr, depArr := make([]int, 0, chunks), make([]int, 0, deps)
	cut := func(arr []int, from int) []int {
		if len(arr) == from {
			return nil
		}
		return arr[from:len(arr):len(arr)]
	}
	for _, s := range []*Schedule{a, b} {
		for _, p := range s.Pieces {
			from := len(chunkArr)
			chunkArr = append(chunkArr, p.Chunks...)
			out.Pieces = append(out.Pieces, Piece{Chunks: cut(chunkArr, from), Bytes: p.Bytes})
		}
	}
	for _, t := range a.Transfers {
		from := len(depArr)
		depArr = append(depArr, t.Deps...)
		t.Deps = cut(depArr, from)
		out.Transfers = append(out.Transfers, t)
	}
	for _, t := range b.Transfers {
		nt := Transfer{
			Src:   t.Src,
			Dst:   t.Dst,
			Piece: t.Piece + pieceOff,
			Dim:   t.Dim,
			Order: t.Order + PhaseOrderBase, // phase-b transfers order after phase a
		}
		from := len(depArr)
		for _, d := range t.Deps {
			depArr = append(depArr, d+transOff)
		}
		if len(t.Deps) == 0 {
			// b-phase origin transfer: wait for phase a to finish at src.
			depArr = append(depArr, inboundOf(t.Src)...)
		}
		nt.Deps = cut(depArr, from)
		out.Transfers = append(out.Transfers, nt)
	}
	return out
}

// inboundByGPU lists the transfers into each GPU in ascending index order:
// those into g are byDst[start[g]:start[g+1]]. Transfers into a GPU out of
// range are in no list.
func (s *Schedule) inboundByGPU() (start, byDst []int) {
	start = make([]int, s.NumGPUs+1)
	for _, t := range s.Transfers {
		if t.Dst >= 0 && t.Dst < s.NumGPUs {
			start[t.Dst]++
		}
	}
	for g := 1; g <= s.NumGPUs; g++ {
		start[g] += start[g-1] // now the end of g's list
	}
	byDst = make([]int, start[s.NumGPUs])
	for i := len(s.Transfers) - 1; i >= 0; i-- {
		if g := s.Transfers[i].Dst; g >= 0 && g < s.NumGPUs {
			start[g]--
			byDst[start[g]] = i
		}
	}
	return start, byDst
}

// Stats summarizes a schedule for reporting and lint checks.
type Stats struct {
	Transfers        int
	Pieces           int
	WireBytes        float64
	MaxHops          int // longest dependency chain
	DuplicateArrival int // deliveries of a piece to a GPU that already holds it
	PerDimBytes      []float64
}

// ComputeStats derives Stats. dims is the number of topology dimensions.
func (s *Schedule) ComputeStats(dims int) Stats {
	st := Stats{Transfers: len(s.Transfers), Pieces: len(s.Pieces), PerDimBytes: make([]float64, dims)}
	depth := make([]int, len(s.Transfers))
	order, err := s.topoOrder()
	if err != nil {
		order = nil
	}
	seen := make(map[[2]int]bool) // (piece, dst)
	for _, i := range order {
		t := s.Transfers[i]
		b := s.Pieces[t.Piece].Bytes
		st.WireBytes += b
		if t.Dim >= 0 && t.Dim < dims {
			st.PerDimBytes[t.Dim] += b
		}
		d := 1
		for _, dep := range t.Deps {
			if depth[dep]+1 > d {
				d = depth[dep] + 1
			}
		}
		depth[i] = d
		if d > st.MaxHops {
			st.MaxHops = d
		}
		key := [2]int{t.Piece, t.Dst}
		if seen[key] {
			st.DuplicateArrival++
		}
		seen[key] = true
	}
	return st
}

// SortTransfersByOrder stably sorts transfers by Order, rewriting Deps and
// keeping semantics. Useful to normalize schedules for comparison and
// serialization.
func (s *Schedule) SortTransfersByOrder() {
	idx := make([]int, len(s.Transfers))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.Transfers[idx[a]].Order < s.Transfers[idx[b]].Order })
	pos := make([]int, len(idx))
	for newPos, old := range idx {
		pos[old] = newPos
	}
	nt := make([]Transfer, len(s.Transfers))
	for newPos, old := range idx {
		t := s.Transfers[old]
		deps := make([]int, len(t.Deps))
		for j, d := range t.Deps {
			deps[j] = pos[d]
		}
		sort.Ints(deps)
		t.Deps = deps
		nt[newPos] = t
	}
	s.Transfers = nt
}
