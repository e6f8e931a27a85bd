// Package sim is an analytical α-β simulator for collective schedules,
// modeled after the fine-grained simulator SyCCL builds on ASTRA-sim
// (§5.2).
//
// Each transfer occupies its sender's egress port and its receiver's
// ingress port in the transfer's topology dimension. Transmitting b bytes
// takes α + β·b to arrive and keeps the ports busy for β·b (the Hockney
// model the solver also uses), so back-to-back transfers on a port overlap
// their α with the predecessor's tail — exactly the semantics of
// Appendix A's epoch constraints, in continuous time.
//
// To capture CCL transports that cut chunks into blocks and pipeline them
// across hops, the simulator expands each transfer into block events; the
// paper notes the event count equals transfers × blocks and processing is
// linear in events.
//
// Transfers sharing a port are served FIFO in schedule order (Order field,
// then index), matching the paper's "previous events on the link have been
// completed" rule; dependency readiness gates each event. The serving
// order is one radix sort of (Order, index) keys for schedules whose
// dependencies all rank earlier, as the pipeline's do — one counting pass
// per byte in which the Orders differ, so evaluation is linear in
// transfers and events; other schedules take Kahn's algorithm.
//
// Simulate returns per-transfer and per-port detail; Time runs the same
// simulation for the completion time alone, which is all candidate
// ranking reads. Both draw their working memory from one pool.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"syccl/internal/obs"
	"syccl/internal/schedule"
	"syccl/internal/topology"
)

// Options controls simulation fidelity.
type Options struct {
	// BlockBytes is the pipelining block size. Transfers larger than this
	// are cut into ceil(bytes/BlockBytes) blocks, capped at MaxBlocks.
	// Zero disables pipelining (one block per transfer).
	BlockBytes float64
	// MaxBlocks caps the per-transfer block count (default 8 when
	// BlockBytes is set).
	MaxBlocks int
	// Rec optionally records a span and event counters per simulation
	// (nil: no instrumentation, zero overhead).
	Rec *obs.Recorder
}

// DefaultOptions mirrors a typical CCL transport: 512 KiB pipeline blocks,
// at most 8 in flight per transfer.
func DefaultOptions() Options {
	return Options{BlockBytes: 512 * 1024, MaxBlocks: 8}
}

// IsZero reports whether the options are entirely unset. Callers that
// substitute defaults for unset options (core.Options.withDefaults) use
// this instead of struct equality, which silently breaks the moment a
// non-comparable field is added.
func (o Options) IsZero() bool {
	return o.BlockBytes == 0 && o.MaxBlocks == 0 && o.Rec == nil
}

// Result reports the outcome of a simulation.
type Result struct {
	// Time is the completion time of the last event, in seconds.
	Time float64
	// Events is the number of block events processed.
	Events int
	// PortBusy[d] is the aggregate busy time of all ports of dimension d
	// (egress side), used for utilization reporting.
	PortBusy []float64
	// LinkBusy[g][c] is the busy time of GPU g's class-c egress port —
	// the per-link view behind Utilization's per-dimension aggregate.
	LinkBusy [][]float64
	// FinishAt[i] is the arrival time of transfer i's last block.
	FinishAt []float64
	// StartAt[i] is the start time of transfer i's first block (when its
	// egress port begins serving it).
	StartAt []float64
}

// Utilization returns the mean egress utilization of dimension d: busy
// time divided by (port count × makespan).
func (r *Result) Utilization(top *topology.Topology, d int) float64 {
	if r.Time <= 0 || d < 0 || d >= len(r.PortBusy) || d >= top.NumDims() {
		return 0
	}
	ports := 0
	for _, g := range top.Dim(d).Groups {
		ports += len(g)
	}
	if ports == 0 {
		return 0
	}
	return r.PortBusy[d] / (float64(ports) * r.Time)
}

// LinkUtilization returns the busy fraction of GPU g's class-c egress
// port over the makespan.
func (r *Result) LinkUtilization(g, c int) float64 {
	if r.Time <= 0 || g < 0 || g >= len(r.LinkBusy) {
		return 0
	}
	busy := r.LinkBusy[g]
	if c < 0 || c >= len(busy) {
		return 0
	}
	return busy[c] / r.Time
}

// Simulate executes the schedule on the topology and returns the result.
// It returns an error if a transfer uses a dimension whose group does not
// contain both endpoints, names a missing piece or dependency, or if
// dependencies are cyclic.
func Simulate(top *topology.Topology, s *schedule.Schedule, opts Options) (*Result, error) {
	return SimulateCtx(context.Background(), top, s, opts)
}

// SimulateCtx is Simulate under a context. Cancellation is polled every
// 256 transfers; a cancelled simulation returns ctx.Err() — there is no
// partial result to salvage from a half-simulated schedule.
func SimulateCtx(ctx context.Context, top *topology.Topology, s *schedule.Schedule, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := run(ctx, top, s, opts, true)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// Time is Simulate for callers that read only the completion time: the
// same simulation, bit for bit the same Result.Time, without any of
// Result's per-port and per-transfer arrays. Its working memory comes
// from a pool shared by every simulation, so timing candidate after
// candidate allocates nothing per schedule in the steady state.
func Time(top *topology.Topology, s *schedule.Schedule, opts Options) (float64, error) {
	res, err := run(context.Background(), top, s, opts, false)
	return res.Time, err
}

// run is the one simulation behind Simulate and Time, under one
// "sim.simulate" span; full asks for Result's arrays.
func run(ctx context.Context, top *topology.Topology, s *schedule.Schedule, opts Options, full bool) (Result, error) {
	sp := opts.Rec.StartSpan("sim.simulate")
	sp.SetInt("transfers", int64(len(s.Transfers)))
	sc := scratchPool.Get().(*scratch)
	res, err := simulate(ctx, top, s, opts, full, sc)
	scratchPool.Put(sc)
	if err == nil {
		sp.SetInt("events", int64(res.Events))
		sp.SetFloat("makespan", res.Time)
		sp.Count("sim.events", float64(res.Events))
	}
	sp.End()
	return res, err
}

// scratch is a simulation's working memory: transfer i's block slots
// first[i]:first[i+1], the block finish times, the serving-order sort
// keys and order, and the port clocks (egress, then ingress, one per GPU
// and port class). first is filled only once the serving order is known;
// until then it is the sort's second buffer. Simulations take one from
// scratchPool and put it back, so its arrays only ever grow.
type scratch struct {
	first       []uint64
	blockFinish []float64
	keys        []uint64
	seq         []int32
	ports       []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// sized returns buf resliced to n elements, reallocated when too short.
// The contents are whatever the last simulation left: every user writes
// a slot before it reads it, or clears the slice.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// simulate runs the schedule in sc, which it leaves grown to fit.
func simulate(ctx context.Context, top *topology.Topology, s *schedule.Schedule, opts Options, full bool, sc *scratch) (Result, error) {
	n := top.NumGPUs()
	if s.NumGPUs != n {
		return Result{}, fmt.Errorf("sim: schedule has %d GPUs, topology %d", s.NumGPUs, n)
	}
	for i := range s.Transfers {
		t := &s.Transfers[i]
		if t.Dim < 0 || t.Dim >= top.NumDims() {
			return Result{}, fmt.Errorf("sim: transfer %d uses missing dimension %d", i, t.Dim)
		}
		if !top.SameGroup(t.Dim, t.Src, t.Dst) {
			return Result{}, fmt.Errorf("sim: transfer %d: GPUs %d and %d not connected in dimension %d (%s)",
				i, t.Src, t.Dst, t.Dim, top.Dim(t.Dim).Name)
		}
		if t.Piece < 0 || t.Piece >= len(s.Pieces) {
			return Result{}, fmt.Errorf("sim: transfer %d references missing piece %d", i, t.Piece)
		}
	}

	// Expand transfers into block events: transfer i owns the slots
	// first[i]:first[i+1] of one flat array of block finish times. Every
	// slot is written before it is read, since a transfer is served after
	// its dependencies.
	blocksOf := func(bytes float64) int {
		if opts.BlockBytes <= 0 || bytes <= opts.BlockBytes {
			return 1
		}
		nb := int(math.Ceil(bytes / opts.BlockBytes))
		maxB := opts.MaxBlocks
		if maxB <= 0 {
			maxB = 8
		}
		if nb > maxB {
			nb = maxB
		}
		return nb
	}
	// Process transfers in priority order: a topological order refined by
	// Order. Ties on shared ports resolve FIFO in this sequence.
	seq, err := servingOrder(s.Transfers, sc)
	if err != nil {
		return Result{}, err
	}
	first := sized(sc.first, len(s.Transfers)+1)
	first[0] = 0
	for i := range s.Transfers {
		first[i+1] = first[i] + uint64(blocksOf(s.Pieces[s.Transfers[i].Piece].Bytes))
	}
	blockFinish := sized(sc.blockFinish, int(first[len(s.Transfers)]))
	sc.first, sc.blockFinish = first, blockFinish

	// Ports are per physical class, not per dimension: all network tiers
	// share each GPU's NIC, so leaf- and spine-dimension transfers from
	// one GPU serialize. Port state is flat, indexed gpu*classes+class;
	// LinkBusy's rows are views of one array.
	classes := top.NumPortClasses()
	sc.ports = sized(sc.ports, 2*n*classes)
	clear(sc.ports)
	egress, ingress := sc.ports[:n*classes], sc.ports[n*classes:] // port free times
	res := Result{Events: len(blockFinish)}
	var linkBusy []float64
	if full {
		linkBusy = make([]float64, n*classes)
		res.PortBusy = make([]float64, top.NumDims())
		res.LinkBusy = make([][]float64, n)
		res.FinishAt = make([]float64, len(s.Transfers))
		res.StartAt = make([]float64, len(s.Transfers))
		for g := range res.LinkBusy {
			res.LinkBusy[g] = linkBusy[g*classes : (g+1)*classes : (g+1)*classes]
		}
	}

	for k, i := range seq {
		if k&255 == 0 && ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		t := &s.Transfers[i]
		dim := top.Dim(t.Dim)
		out := t.Src*classes + dim.PortClass
		in := t.Dst*classes + dim.PortClass
		// Per-group α/β: degraded topologies carry per-group overrides, so
		// a transfer is costed by the group it actually crosses.
		alpha := dim.AlphaOf(dim.GroupOf(t.Src))
		beta := dim.BetaOf(dim.GroupOf(t.Src))
		blocks := blockFinish[first[i]:first[i+1]]
		nb := len(blocks)
		per := s.Pieces[t.Piece].Bytes / float64(nb)
		for b := range blocks {
			// Dependency readiness: block b may go once the matching
			// fraction of every dependency has arrived.
			ready := 0.0
			for _, d := range t.Deps {
				dep := blockFinish[first[d]:first[d+1]]
				// The dep block covering the same payload fraction.
				db := ((b+1)*len(dep)+nb-1)/nb - 1
				if db < 0 {
					db = 0
				}
				if db >= len(dep) {
					db = len(dep) - 1
				}
				if f := dep[db]; f > ready {
					ready = f
				}
			}
			start := ready
			if f := egress[out]; f > start {
				start = f
			}
			if f := ingress[in]; f > start {
				start = f
			}
			busy := beta * per
			finish := start + alpha + busy
			egress[out] = start + busy
			ingress[in] = start + busy
			if full {
				res.PortBusy[t.Dim] += busy
				linkBusy[out] += busy
				if b == 0 {
					res.StartAt[i] = start
				}
			}
			blocks[b] = finish
			if finish > res.Time {
				res.Time = finish
			}
		}
		if full {
			res.FinishAt[i] = blocks[nb-1]
		}
	}
	return res, nil
}

// servingOrder returns the transfer indices in the order the simulator
// serves them: the dependency-respecting order that, whenever several
// transfers are ready, takes the smallest (Order, index) first — Kahn's
// algorithm over a min-heap on that key.
//
// The pipeline's assembled schedules list every dependency ahead of its
// dependent in (Order, index), and for those the sorted order is the
// answer: the smallest remaining key always has all its dependencies
// served, so it is what the heap would pop next. One sort and an O(E)
// check establish that. Only a schedule with a dependency ranked later
// (hand-written, XML-imported, baselines) runs Kahn's algorithm.
func servingOrder(ts []schedule.Transfer, sc *scratch) ([]int32, error) {
	byKey := sortByOrder(ts, sc)
	sorted := true
	for i := range ts {
		t := &ts[i]
		for _, d := range t.Deps {
			if d < 0 || d >= len(ts) {
				return nil, fmt.Errorf("sim: transfer %d has out-of-range dep %d", i, d)
			}
			if o := ts[d].Order; o > t.Order || o == t.Order && d >= i {
				sorted = false
			}
		}
	}
	if sorted {
		return byKey, nil
	}
	return kahn(ts, byKey)
}

// sortByOrder returns the transfer indices sorted by (Order, index), in
// sc.seq. SortByOrder borrows sc.first, not yet filled, as its second
// buffer.
func sortByOrder(ts []schedule.Transfer, sc *scratch) []int32 {
	sc.seq = sized(sc.seq, len(ts))
	sc.keys = sized(sc.keys, len(ts))
	sc.first = sized(sc.first, len(ts)+1)
	SortByOrder(ts, sc.seq, sc.keys, sc.first)
	return sc.seq
}

// SortByOrder writes into out the indices of ts sorted by (Order, index);
// keys and tmp are its working memory, and all three must be at least as
// long as ts. Keys pack Order (relative to the smallest) above the index,
// which already ascends, so SortPacked sorts them by Order alone. Orders
// spanning 2³² or more fall back to comparing the fields.
func SortByOrder(ts []schedule.Transfer, out []int32, keys, tmp []uint64) {
	if len(ts) == 0 {
		return
	}
	out = out[:len(ts)]
	lo, hi := ts[0].Order, ts[0].Order
	for i := range ts {
		lo, hi = min(lo, ts[i].Order), max(hi, ts[i].Order)
	}
	if uint64(hi)-uint64(lo) < 1<<32 {
		keys = keys[:len(ts)]
		for i := range ts {
			keys[i] = (uint64(ts[i].Order)-uint64(lo))<<32 | uint64(i)
		}
		for r, k := range SortPacked(keys, tmp) {
			out[r] = int32(uint32(k))
		}
		return
	}
	for i := range out {
		out[i] = int32(i)
	}
	slices.SortFunc(out, func(a, b int32) int {
		if c := cmp.Compare(ts[a].Order, ts[b].Order); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// SortPacked sorts keys stably by their high 32 bits and returns them
// sorted, in keys or in tmp, whichever the last pass wrote; tmp must be
// at least as long as keys, and both are overwritten. A key packs a sort
// key above a 32-bit payload: when the payloads ascend in input order, as
// an index does, the result is sorted by the whole key. It is an LSD
// radix sort with one counting pass per byte of the high half in which
// the keys differ, so high halves all below 2⁸ take one pass, and equal
// ones none.
func SortPacked(keys, tmp []uint64) []uint64 {
	if len(keys) < 2 {
		return keys
	}
	tmp = tmp[:len(keys)]
	var differ uint64
	for _, k := range keys {
		differ |= k ^ keys[0]
	}
	var at [256]int
	for shift := 32; shift < 64; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		clear(at[:])
		for _, k := range keys {
			at[byte(k>>shift)]++
		}
		sum := 0
		for b, c := range at {
			at[b] = sum
			sum += c
		}
		for _, k := range keys {
			b := byte(k >> shift)
			tmp[at[b]] = k
			at[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// kahn is servingOrder for schedules whose dependencies do not all rank
// earlier: Kahn's algorithm, serving the smallest ready rank in byKey.
func kahn(ts []schedule.Transfer, byKey []int32) ([]int32, error) {
	n := len(ts)
	rank := make([]int32, n)
	for r, i := range byKey {
		rank[i] = int32(r)
	}
	// Successor lists, flat: succ[start[d]:start[d+1]] depend on d.
	indeg := make([]int32, n)
	start := make([]int32, n+1)
	for i := range ts {
		for _, d := range ts[i].Deps {
			start[d+1]++
			indeg[i]++
		}
	}
	for d := 0; d < n; d++ {
		start[d+1] += start[d]
	}
	succ := make([]int32, start[n])
	fill := append([]int32(nil), start[:n]...)
	for i := range ts {
		for _, d := range ts[i].Deps {
			succ[fill[d]] = int32(i)
			fill[d]++
		}
	}
	h := make(rankHeap, 0, n)
	for i := range ts {
		if indeg[i] == 0 {
			h.push(rank[i])
		}
	}
	order := make([]int32, 0, n)
	for len(h) > 0 {
		i := byKey[h.pop()]
		order = append(order, i)
		for _, j := range succ[start[i]:start[i+1]] {
			if indeg[j]--; indeg[j] == 0 {
				h.push(rank[j])
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("sim: dependency cycle among transfers")
	}
	return order, nil
}

// rankHeap is a binary min-heap of transfer ranks.
type rankHeap []int32

func (h *rankHeap) push(r int32) {
	*h = append(*h, r)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *rankHeap) pop() int32 {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < len(q) && q[l] < q[m] {
			m = l
		}
		if r := 2*i + 2; r < len(q) && q[r] < q[m] {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}
