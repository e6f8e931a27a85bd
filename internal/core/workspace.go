package core

import (
	"sync"

	"syccl/internal/nccl"
	"syccl/internal/schedule"
	"syccl/internal/sketch"
	"syccl/internal/solve"
)

// workspace is one synthesis's working memory: everything the pipeline
// builds, times and throws away, kept from one synthesis to the next. A
// synthesis takes one from workspaces as it starts and gives it back at
// every exit (release), after the ring and every parallelFor are done
// with it. The ownership rule: what leaves the pipeline — the winner's
// schedule, the recipe, published incumbents — is new memory, and
// nothing of a workspace is reachable from it; everything else a
// synthesis allocates for itself comes from here.
//
// Per worker (indexed by parallelFor's w):
//   - bufs: the buffer each candidate of a pass is built into, with its
//     delivery table;
//   - finished: the schedule.Buffer pickWinner composes a finalist into;
//   - slabs: the arrays newAssembly cuts the candidates' assemblies from,
//     live until the synthesis ends and then rewound.
//
// Once per synthesis: incumbentBound's delivery tables and arrays,
// readyOrder's arrays and the injected ring.
type workspace struct {
	workers  int // of the synthesis: the per-worker arrays may be longer
	bufs     []buildBuffer
	finished []schedule.Buffer
	slabs    []assemblySlab

	bound boundScratch
	rekey rekeyScratch

	// ring is what the injected ring is built into; nil after a ring
	// that won was handed out with it. ringDone is the ring building
	// beside the search, nil when none is.
	ring     *nccl.Buffer
	ringDone chan ringResult
}

// workspaces holds the workspaces of finished syntheses.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// getWorkspace takes a workspace for a synthesis on workers workers.
func getWorkspace(workers int) *workspace {
	return workspaces.Get().(*workspace).fit(workers)
}

// fit grows the per-worker memory to workers workers (at least one).
func (ws *workspace) fit(workers int) *workspace {
	ws.workers = max(1, workers)
	if w := ws.workers; len(ws.bufs) < w {
		ws.bufs = append(ws.bufs, make([]buildBuffer, w-len(ws.bufs))...)
		ws.finished = append(ws.finished, make([]schedule.Buffer, w-len(ws.finished))...)
		ws.slabs = append(ws.slabs, make([]assemblySlab, w-len(ws.slabs))...)
	}
	return ws
}

// release waits for the ring, rewinds the slabs and gives the workspace
// back. Nothing the synthesis made may be used after it, except what
// left the pipeline.
func (ws *workspace) release() {
	joinRing(&ws.ringDone)
	for i := range ws.slabs {
		ws.slabs[i].rewind()
	}
	workspaces.Put(ws)
}

// ringBuffer is the buffer the ring is built into.
func (ws *workspace) ringBuffer() *nccl.Buffer {
	if ws.ring == nil {
		ws.ring = new(nccl.Buffer)
	}
	return ws.ring
}

// detachRing hands the ring's buffer out with the ring, which is about
// to leave the pipeline as it is: the caller gets it without a copy, and
// the next synthesis builds its ring into a new buffer.
func (ws *workspace) detachRing() { ws.ring = nil }

// buildNew builds a's schedule from subs into new memory, for a schedule
// that leaves the pipeline: only the delivery table, which it does not
// keep, is worker 0's.
func (ws *workspace) buildNew(a *assembly, subs []*solve.SubSchedule) (*schedule.Schedule, error) {
	b := &buildBuffer{table: ws.bufs[0].table}
	s, err := a.build(b, subs)
	ws.bufs[0].table, b.table = b.table, nil
	return s, err
}

// slab cuts slices of T from one array it reuses. A slice comes without
// spare capacity, and an empty one is nil. The array grows by starting a
// bigger one, so slices cut before stay valid; rewind zeroes and frees
// the current array for the next synthesis, whose cuts then allocate
// nothing while they fit. The free part of the array is all zeros.
type slab[T any] struct{ arr []T }

func (s *slab[T]) cut(n int) []T {
	if n == 0 {
		return nil
	}
	if len(s.arr)+n > cap(s.arr) {
		s.arr = make([]T, 0, max(2*cap(s.arr), n))
	}
	from := len(s.arr)
	s.arr = s.arr[:from+n]
	return s.arr[from : from+n : from+n]
}

func (s *slab[T]) rewind() {
	clear(s.arr)
	s.arr = s.arr[:0]
}

// assemblySlab is one worker's memory for newAssembly: the slabs the
// assemblies' pieces, origins, cells, demands, demand pieces and GPU
// lists are cut from, live until the synthesis ends, and the scratch of
// one call.
type assemblySlab struct {
	pieces       slab[schedule.Piece]
	ints         slab[int]
	cells        slab[cellDemand]
	cellRefs     slab[*cellDemand]
	demands      slab[solve.Demand]
	demandPieces slab[solve.Piece]

	scratch, chunkPairs []int32
	tree                sketch.ScatterTree
}

func (s *assemblySlab) rewind() {
	s.pieces.rewind()
	s.ints.rewind()
	s.cells.rewind()
	s.cellRefs.rewind()
	s.demands.rewind()
	s.demandPieces.rewind()
}

// zeroed returns *buf resliced to n elements, all zeros, reallocated when
// too short.
func zeroed[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
		return *buf
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}
