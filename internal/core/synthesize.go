package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"syccl/internal/collective"
	"syccl/internal/isomorph"
	"syccl/internal/nccl"
	"syccl/internal/obs"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// Synthesize produces a schedule for the collective on the topology.
//
// All-to-one collectives (Reduce, Gather) and ReduceScatter are
// synthesized as the mirror of their one-to-all inverses (§4.1, §4.3);
// AllReduce is synthesized as ReduceScatter followed by AllGather (§4.3).
// A collective that is not what its kind's constructor builds is refused
// with an error wrapping collective.ErrUnsupported (see
// Collective.Validate).
func Synthesize(top *topology.Topology, col *collective.Collective, opts Options) (*Result, error) {
	return SynthesizeContext(context.Background(), top, col, opts)
}

// SynthesizeContext is Synthesize under a context, with anytime
// semantics. The expensive phases — sketch search and sub-demand solving —
// poll the context cooperatively, while the cheap finishing work (schedule
// mapping, assembly, simulation, mirroring) always runs to completion, so
// a run cancelled mid-pipeline still returns its best fully-validated
// candidate with Result.Partial set. Only a context cancelled before any
// candidate completed the coarse pass yields ctx.Err().
func SynthesizeContext(ctx context.Context, top *topology.Topology, col *collective.Collective, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if at, ok := ctx.Deadline(); ok {
		ctx = clockDeadline{ctx, at}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The door: only what a constructor builds goes further, so nothing
	// below — recipe replay included — sees a chunk layout the oracle
	// cannot check.
	if err := col.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if col.NumGPUs != top.NumGPUs() {
		return nil, fmt.Errorf("core: collective spans %d GPUs, topology has %d", col.NumGPUs, top.NumGPUs())
	}
	if err := opts.Search.Hint.Validate(top.NumDims()); err != nil {
		return nil, err
	}

	root := opts.Obs.StartSpan("synthesize")
	root.SetStr("topology", top.Name)
	root.SetStr("collective", col.Kind.String())
	root.SetInt("gpus", int64(top.NumGPUs()))
	if id := obs.RequestIDFrom(ctx); id != "" {
		root.SetStr("request", id)
	}
	defer root.End()
	seedCounters(opts.Obs)

	fwdCol, fin := finisherFor(top, col, opts.Sim)
	pub := newPublisher(opts.OnIncumbent, fin)
	return synthesizeForward(ctx, top, fwdCol, opts, root, pub, fin)
}

// clockDeadline is a context whose Err also reads the clock: past its
// deadline it reports context.DeadlineExceeded even if the deadline's
// timer has not fired yet. While every P runs pipeline work the timer can
// fire milliseconds late — late enough for the coarse pass to start its
// solves after the deadline and finish a candidate well past it.
// Everything in the pipeline polls Err, so with this it stops at the
// next poll after the deadline instead.
type clockDeadline struct {
	context.Context
	at time.Time
}

func (c clockDeadline) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if !time.Now().Before(c.at) {
		return context.DeadlineExceeded
	}
	return nil
}

// seedCounters registers the pipeline's counter series with an initial
// zero sample, so exported traces carry every series even when a fast
// path (rotation solves, cached demands) leaves one untouched.
func seedCounters(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	for _, name := range []string{
		"cache.hits", "cache.misses", "lp.pivots", "milp.nodes",
		"sketch.nodes", "sketch.emitted", "candidates", "candidates.pruned",
		"sim.events",
	} {
		rec.Count(name, 0)
	}
}

// synthesizeForward runs the two-phase pipeline for forward (non-reduce)
// collectives. The parent span (nil-safe) roots the per-phase spans. pub
// (nil-safe) receives every improving candidate as it completes
// simulation; publication is observation only and never influences which
// candidate wins. fin finishes forward schedules into the caller-visible
// collective (identity for forward kinds) — the winner at every return
// site is the candidate whose finished time is minimal among those whose
// finished schedule passes fin.check, which is the same criterion the
// publisher's improvement gate uses, and the Result carries that finished
// schedule and time. Finishing is cheap and ignores cancellation, so a
// Partial forward result still becomes a complete, timed schedule; a run
// none of whose finalists finishes is an error, never a schedule.
func synthesizeForward(ctx context.Context, top *topology.Topology, col *collective.Collective, opts Options, parent *obs.Span, pub *publisher, fin finisher) (*Result, error) {
	// Everything below works in one workspace, given back at every
	// return, after the ring is joined.
	ws := getWorkspace(opts.Workers)
	defer ws.release()
	if opts.Recipe != nil {
		if res := replay(top, col, opts, ws, parent, pub, fin); res != nil {
			return res, nil
		}
		// Stale recipe: the full pass below returns the same bytes and
		// records a fresh one.
	}
	// With workers to spare, the injected ring is built and timed beside
	// the search; every return below waits for it (ws.release), so none
	// leaves it running.
	if col.Kind == collective.KindAllGather && opts.Workers > 1 {
		ws.ringDone = startRing(ws.ringBuffer(), top, col, opts.Sim)
	}
	res := &Result{}
	// finish closes the pipeline at every exit below: the winner of the
	// pool by finished time, its recipe when the run was not cut short.
	finish := func(pool []*candidate, partial bool) (*Result, error) {
		best, fwd, out, t, err := pickWinner(pool, fin, ws)
		if err != nil {
			return nil, err
		}
		// A ring that won as it was built leaves with its buffer.
		if out == best.fixed {
			ws.detachRing()
		}
		// pickWinner checked out; a reduction's forward schedule is
		// validated too.
		if out != fwd {
			if err := validateForward(fwd, col); err != nil {
				return nil, err
			}
		}
		// A complete run serves the winner's ports in arrival order when
		// that is strictly faster (readyOrder); an anytime result is
		// returned as ranked, without the extra simulations. The injected
		// ring is left as built: each of its steps forwards what arrived
		// in the step before, so it already sends in arrival order, and
		// at 512 GPUs its two million transfers would make the re-keying
		// cost most of the run.
		var ranks []int32
		if !partial && best.source != "ring" {
			out, t, ranks = readyOrder(top, fwd, out, t, fin, opts.Sim, &ws.rekey)
		}
		// The winner is force-offered to the publisher (no-op when it was
		// already the best published), which is what keeps the stream's
		// last event equal to the returned result.
		pub.publishFinal(out, t, best.source, best.engine, best.combo)
		res.Schedule, res.Time, res.Combination = out, t, best.combo
		res.Partial = partial
		if !partial {
			res.Recipe = &Recipe{
				Combination: best.combo,
				Subs:        best.subs,
				Source:      best.source,
				Engine:      best.engine,
				Ranks:       ranks,
				TimeBits:    math.Float64bits(t),
				Transfers:   len(fwd.Transfers),
			}
		}
		return res, nil
	}

	// Phase 1a: sketch search (§4.1).
	searchSpan := parent.Child("search")
	t0 := time.Now()
	var sketches []*sketch.Sketch
	allToAll := false
	scatter := false
	switch col.Kind {
	case collective.KindSendRecv:
		// One-to-one needs no sketch machinery: the shortest route —
		// direct if a dimension connects the pair, otherwise a PXN-style
		// relay — is optimal under the port model.
		searchSpan.End()
		sched, err := sendRecvSchedule(top, col)
		if err != nil {
			return nil, err
		}
		r, err := sim.SimulateCtx(ctx, top, sched, opts.Sim)
		if err != nil {
			return nil, err
		}
		pub.offer(sched, r.Time, "direct", "", nil)
		res.Schedule, res.Time = sched, r.Time
		return res, validateForward(sched, col)
	case collective.KindBroadcast:
		sketches = searchCached(ctx, top, col.Root, false, opts)
	case collective.KindScatter:
		sketches = searchCached(ctx, top, col.Root, true, opts)
		scatter = true
	case collective.KindAllGather:
		sketches = searchCached(ctx, top, 0, false, opts)
		allToAll = true
	case collective.KindAlltoAll:
		sketches = searchCached(ctx, top, 0, true, opts)
		allToAll = true
		scatter = true
	default:
		return nil, fmt.Errorf("core: unsupported forward collective %v", col.Kind)
	}
	searchSpan.SetInt("sketches", int64(len(sketches)))
	searchSpan.End()
	if len(sketches) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: no sketches found for %v on %s", col.Kind, top.Name)
	}
	res.Phases.Search = time.Since(t0)
	res.Stats.Sketches = len(sketches)

	// Phase 1b: combinations (§4.2, §4.3).
	combineSpan := parent.Child("combine")
	t0 = time.Now()
	combos := buildCombinations(ctx, top, col, sketches, allToAll, scatter, opts)
	res.Phases.Combine = time.Since(t0)
	res.Stats.Candidates = len(combos)
	combineSpan.SetInt("candidates", int64(len(combos)))
	combineSpan.End()
	opts.Obs.Count("candidates", float64(len(combos)))
	if len(combos) == 0 {
		return nil, fmt.Errorf("core: no sketch combinations for %v", col.Kind)
	}

	// Phase 2a: coarse synthesis of every candidate. The coarse pass
	// trades accuracy for speed twice over: large epochs (E1) and the
	// greedy engine; the fine pass then runs the configured engine
	// (exact MILP where tractable) on the surviving candidates (§5.3).
	coarseSpan := parent.Child("solve.coarse")
	t0 = time.Now()
	coarseSolve := opts.passSolver(false)
	tab := isomorph.NewTable()
	pool := assembleAll(top, col, combos, tab, opts, ws, coarseSpan)
	coarse := realizeAll(ctx, top, tab, pool, coarseSolve, opts, ws, &res.Stats, coarseSpan, pub, "coarse")
	cands := make([]*candidate, 0, len(combos))
	for ci, c := range pool {
		if coarse[ci].ok {
			c.time, c.subs = coarse[ci].time, coarse[ci].subs
			c.source, c.engine = "coarse", coarseSolve.Engine.String()
			cands = append(cands, c)
		}
	}
	// The ring family lives in the untruncated sketch space (K up to
	// |V|−1 stages) that the stage-bounded search cannot reach; include
	// it as an explicit candidate so deep-pipeline schedules stay in
	// contention where they win (large sizes on ring-friendly fabrics).
	// It joins the candidates here, after the coarse pass's, however
	// early it was ready.
	if col.Kind == collective.KindAllGather {
		var r ringResult
		if ws.ringDone != nil {
			r = joinRing(&ws.ringDone)
		} else {
			r = buildRing(ws.ringBuffer(), top, col, opts.Sim)
		}
		if r.sched != nil {
			pub.offer(r.sched, r.time, "ring", "", nil)
			cands = append(cands, &candidate{fixed: r.sched, time: r.time, source: "ring"})
		}
	}
	res.Phases.Solve1 = time.Since(t0)
	coarseSpan.SetInt("realized", int64(len(cands)))
	coarseSpan.End()
	if len(cands) == 0 {
		// Nothing completed the coarse pass: a cancelled run has no
		// anytime result to offer, so report the cancellation itself.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: all %d candidates failed to realize", len(combos))
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].time < cands[b].time })

	// Anytime exit: the deadline passed during (or right after) the coarse
	// pass. The surviving candidates are complete, simulated schedules —
	// return the best of them instead of starting the fine pass.
	if ctx.Err() != nil {
		return finish(cands, true)
	}

	// Filter: keep candidates within r1 of the best, at most r2 (§5.3).
	keep := cands[:0:0]
	limit := cands[0].time * (1 + r1)
	for _, c := range cands {
		if c.time <= limit && len(keep) < r2 {
			keep = append(keep, c)
		}
	}
	opts.Obs.Count("candidates.pruned", float64(len(cands)-len(keep)))

	// The coarse incumbent's flow lower bound, for the result, the
	// incumbent stream and the StopWithin gate (bound.go).
	incLB := incumbentBound(ctx, top, tab, keep[0], opts, ws, parent)
	if incLB > 0 {
		res.Stats.BoundsComputed = 1
	}
	pub.setBound(incLB)
	res.Bound = incLB
	res.Stats.Refined = len(keep)

	// Phase 2b: fine synthesis of the survivors, from the assemblies and
	// demand ids the coarse pass made. Injected fixed schedules (no
	// assembly, e.g. the ring) pass through realizeAll untouched and keep
	// their coarse-pass result.
	fineSpan := parent.Child("solve.fine")
	fineSpan.SetInt("survivors", int64(len(keep)))
	// Early termination (the StopWithin knob): the incumbent is already
	// within the requested gap of its flow lower bound, so skip the fine
	// pass. The check sits at this deterministic boundary — never inside
	// a pass — so results stay byte-identical across Workers settings.
	// Not Partial: the caller asked for exactly this trade.
	if opts.StopWithin > 0 && incLB > 0 && keep[0].time <= incLB*(1+opts.StopWithin) {
		fineSpan.SetStr("outcome", "stopped-early")
		fineSpan.End()
		res.Stats.StoppedEarly = true
		return finish(cands, ctx.Err() != nil)
	}
	t0 = time.Now()
	fineSolve := opts.passSolver(true)
	fine := realizeAll(ctx, top, tab, keep, fineSolve, opts, ws, &res.Stats, fineSpan, pub, "fine")
	finalists := make([]*candidate, 0, len(cands)+len(keep))
	finalists = append(finalists, cands...)
	fineName := fineSolve.Engine.String()
	for ci, c := range keep {
		if fine[ci].ok {
			finalists = append(finalists, &candidate{
				combo: c.combo, asm: c.asm, cells: c.cells, subs: fine[ci].subs,
				time: fine[ci].time, source: "fine", engine: fineName,
			})
		}
	}
	// A cancellation mid-fine-pass degrades gracefully: candidates whose
	// fine solves did not finish keep their coarse-pass schedules, and the
	// result is flagged Partial.
	out, err := finish(finalists, ctx.Err() != nil)
	res.Phases.Solve2 = time.Since(t0)
	fineSpan.End()
	return out, err
}

// ringResult is the injected NCCL ring and its simulated time; sched is
// nil when the ring cannot be built or simulated on the fabric.
type ringResult struct {
	sched *schedule.Schedule
	time  float64
}

// buildRing builds the NCCL ring AllGather into buf and times it.
func buildRing(buf *nccl.Buffer, top *topology.Topology, col *collective.Collective, so sim.Options) ringResult {
	ring, err := nccl.AllGatherInto(buf, top, col)
	if err != nil {
		return ringResult{}
	}
	t, err := sim.Time(top, ring, so)
	if err != nil {
		return ringResult{}
	}
	return ringResult{ring, t}
}

// startRing runs buildRing on its own goroutine and returns the channel
// its result arrives on. Its arguments are values of its own, so nothing
// of the caller's frame moves to the heap for it.
func startRing(buf *nccl.Buffer, top *topology.Topology, col *collective.Collective, so sim.Options) chan ringResult {
	ch := make(chan ringResult, 1)
	go func() { ch <- buildRing(buf, top, col, so) }()
	return ch
}

// joinRing waits for a started ring and returns it, once: it clears
// *ring, so a second call (release's) returns at once.
func joinRing(ring *chan ringResult) ringResult {
	if *ring == nil {
		return ringResult{}
	}
	r := <-*ring
	*ring = nil
	return r
}

// pickWinner selects the pipeline's result by caller-visible time: the
// finalists are ranked by finished time (stably, so the first in order
// wins a tie), and the first in the ranking whose finished schedule
// passes the check wins — the minimal finished time among the finalists
// that finish and pass, for one check in the common case instead of one
// per finalist. A forward collective's finished time is the time its pass
// recorded. Any other finalist is finished first, in parallel, on the
// workspace's workers: each builds a finalist's forward schedule into its
// own buffer, finishes it into a schedule.Buffer of its own,
// simulates it, and writes the time into the finalist's slot, so the
// ranking does not depend on how many workers there are. Ranking by
// forward time instead would be wrong for AllReduce — the concatenated
// ReduceScatter+AllGather time is not monotone in the AllGather-phase
// time, so the forward-best candidate can finish into a schedule worse
// than one already published on the incumbent stream.
//
// Only the finalists checked are materialized — their finished schedule
// made into new memory — the first-ranked one and the next ones only
// while the check fails: a forward collective's schedule is built into
// new memory (ws.buildNew), any other's is built into worker 0's buffer
// and finished into new memory. If no finalist finishes and passes, the
// error is the first finalist's (in finalist order). The winner comes
// back with its forward schedule and its finished schedule and time, so
// nobody builds or finishes it again; the caller publishes it.
// Deterministic: a pure function of a deterministic finalist list.
func pickWinner(finalists []*candidate, fin finisher, ws *workspace) (best *candidate, fwd, out *schedule.Schedule, t float64, err error) {
	times := make([]float64, len(finalists))
	errs := make([]error, len(finalists))
	if fin.shape == nil {
		for i, f := range finalists {
			times[i] = f.time
		}
	} else {
		parallelFor(len(finalists), ws.workers, func(w, i int) {
			f := finalists[i]
			s, err := f.forward(ws, &ws.bufs[w])
			if err == nil {
				_, times[i], err = fin.finish(&ws.finished[w], s, f.time)
			}
			errs[i] = err
		})
	}
	ranked := make([]int, 0, len(finalists))
	for i := range finalists {
		if errs[i] == nil {
			ranked = append(ranked, i)
		}
	}
	sort.SliceStable(ranked, func(a, b int) bool { return times[ranked[a]] < times[ranked[b]] })
	var into *buildBuffer // nil: new memory
	if fin.shape != nil {
		into = &ws.bufs[0]
	}
	for _, i := range ranked {
		if fwd, errs[i] = finalists[i].forward(ws, into); errs[i] != nil {
			continue
		}
		out = fwd
		if fin.shape != nil {
			out = fin.shape(nil, fwd)
		}
		if errs[i] = fin.check(fwd, out); errs[i] == nil {
			return finalists[i], fwd, out, times[i], nil
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, 0, err
		}
	}
	return nil, nil, nil, 0, errors.New("core: no finalists")
}

// searchCached serves the sketch search from opts.SketchCache when one is
// wired. Only complete (non-cancelled) searches are stored: a search
// truncated by cancellation would poison later requests with a partial
// sketch set.
func searchCached(ctx context.Context, top *topology.Topology, root int, scatter bool, opts Options) []*sketch.Sketch {
	var key string
	if opts.SketchCache != nil {
		key = sketchCacheKey(top, root, scatter, opts.Search)
		if cached, ok := opts.SketchCache.Lookup(key); ok {
			return cached
		}
	}
	var out []*sketch.Sketch
	if scatter {
		out = sketch.SearchScatter(ctx, top, root, opts.Search)
	} else {
		out = sketch.SearchBroadcast(ctx, top, root, opts.Search)
	}
	if opts.SketchCache != nil && ctx.Err() == nil {
		opts.SketchCache.Store(key, out)
	}
	return out
}

// sketchCacheKey identifies a search by topology fingerprint, shape, root,
// and the search options' fingerprint.
func sketchCacheKey(top *topology.Topology, root int, scatter bool, so sketch.SearchOptions) string {
	shape := "b"
	if scatter {
		shape = "s"
	}
	return fmt.Sprintf("%s|%s%d|%s", top.Fingerprint(), shape, root, so.Fingerprint())
}

// sendRecvSchedule routes a one-to-one transfer: direct where a shared
// dimension exists, else through the sender's server-mate on the
// receiver's rail.
func sendRecvSchedule(top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	src := col.Chunks[0].Src
	dst := col.Chunks[0].Dsts[0]
	s := &schedule.Schedule{NumGPUs: top.NumGPUs()}
	p := s.AddPiece(col.ChunkSize, 0)
	relay, d1, d2 := top.PXNRoute(src, dst)
	if relay < 0 {
		s.AddTransfer(schedule.Transfer{Src: src, Dst: dst, Piece: p, Dim: d1})
		return s, nil
	}
	if d1 < 0 || d2 < 0 {
		return nil, fmt.Errorf("core: no route %d→%d", src, dst)
	}
	first := s.AddTransfer(schedule.Transfer{Src: src, Dst: relay, Piece: p, Dim: d1})
	s.AddTransfer(schedule.Transfer{Src: relay, Dst: dst, Piece: p, Dim: d2, Deps: []int{first}, Order: 1})
	return s, nil
}

func validateForward(s *schedule.Schedule, col *collective.Collective) error {
	if err := s.Validate(col); err != nil {
		return fmt.Errorf("core: synthesized schedule invalid: %w", err)
	}
	return nil
}

// realized is the outcome of one candidate slot in a realization pass:
// the simulated time of its schedule and the per-cell sub-schedules that
// schedule was built from (shared read-only across cells with one
// demand). The schedule itself is not kept.
type realized struct {
	time float64
	subs []*solve.SubSchedule
	ok   bool
}

// realizeAll realizes every candidate of one pass under the pass's solve
// options (passSolver), out of the call's demand table: cands carry their
// assembly and the table ids of their cells, so the pass works per
// distinct demand and fans the result out to the cells that share it.
//
//  1. list the pass's distinct demands in first-occurrence order
//     (candidate, then cell) and partition them into isomorphism classes
//     (Table.Classes; the representative is the first member in this
//     pass's order);
//  2. offer each representative to opts.SolveCache once and solve, in
//     parallel, the ones it did not serve (stored back in one batch at
//     the end of the pass, see BatchSolveCache);
//  3. map every other demand from its representative's sub-schedule —
//     one mapped sub-schedule per distinct demand, shared read-only — then
//     assemble and simulate each candidate in parallel, each worker into
//     its own buffer of ws, keeping only the time.
//
// Every result is written into a slot indexed by candidate or demand id
// and the shared counters are reduced in deterministic order, so times,
// sub-schedules and Stats are byte-identical for any Workers setting;
// Stats keep counting cells, not distinct demands. Nil entries (candidates
// whose assembly failed), injected fixed schedules (no assembly) and
// failed candidates yield ok=false for their slot only; a failed
// representative solve marks exactly the candidates that depend on it.
//
// The cache only ever sees representatives, and is told only what the
// solver returned in this pass (never after a cancellation, since a
// truncated exact solve may have returned its greedy incumbent): every
// entry is the solver's output for exactly the demand it is keyed by, so
// a hit is what solving would give, and a warm pass maps the same
// representatives' solutions a cold one does.
func realizeAll(ctx context.Context, top *topology.Topology, tab *isomorph.Table, cands []*candidate,
	solveOpts solve.Options, opts Options, ws *workspace, stats *Stats, span *obs.Span, pub *publisher, source string) []realized {

	engineName := solveOpts.Engine.String()
	out := make([]realized, len(cands))
	ids, uses, cells := distinctCells(tab, cands)
	rep, fromRep := tab.Classes(ids)
	var reps []int
	for _, id := range ids {
		if rep[id] == id {
			reps = append(reps, id)
		}
	}

	solveSig := solveOpts.Fingerprint()
	subs := make([]*solve.SubSchedule, tab.Len()) // the sub-schedule of each demand's cells
	if opts.SolveCache != nil {
		parallelFor(len(reps), opts.Workers, func(_, k int) {
			subs[reps[k]] = opts.SolveCache.Lookup(tab.Demand(reps[k]), solveSig)
		})
	}
	var toSolve []int
	for _, id := range reps {
		if subs[id] != nil {
			stats.CrossCacheHits += uses[id]
		} else {
			toSolve = append(toSolve, id)
		}
	}
	span.SetInt("demands", int64(cells))
	span.SetInt("distinct", int64(len(ids)))
	span.SetInt("classes", int64(len(reps)))
	opts.Obs.Count("core.demands.distinct", float64(len(ids)))

	// Solve each representative once, in parallel. Durations are collected
	// per slot and reduced serially below so MaxSolve does not depend on
	// goroutine interleaving.
	durs := make([]time.Duration, len(toSolve))
	errs := make([]error, len(toSolve))
	parallelFor(len(toSolve), opts.Workers, func(_, k int) {
		id := toSolve[k]
		ws := span.ChildLane("solve.subdemand")
		ws.SetInt("demand", int64(id))
		so := solveOpts
		so.Span = ws
		start := time.Now()
		sub, err := solve.SolveCtx(ctx, tab.Demand(id), so)
		durs[k] = time.Since(start)
		ws.End()
		if err != nil {
			errs[k] = err // the class stays unsolved; its candidates drop out
			return
		}
		subs[id] = sub
	})
	solvedNow, hits := 0, 0
	for k, id := range toSolve {
		if subs[id] == nil {
			// Surface why the class failed, in deterministic demand
			// order, instead of silently dropping its candidates.
			// Cancellation is not an error condition (anytime path).
			if err := errs[k]; err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				if msg := err.Error(); len(stats.SolveErrors) < maxSolveErrors && !containsString(stats.SolveErrors, msg) {
					stats.SolveErrors = append(stats.SolveErrors, msg)
				}
			}
			continue
		}
		solvedNow++
		hits += uses[id] - 1
		if durs[k] > stats.MaxSolve {
			stats.MaxSolve = durs[k]
		}
	}
	stats.SolverCalls += solvedNow
	stats.CacheMisses += solvedNow
	opts.Obs.Count("cache.misses", float64(solvedNow))

	// Every other member is served by mapping (the in-run isomorphism
	// cache): each further cell of a solved representative's demand
	// verbatim, each cell of another member through its mapping, built
	// once per distinct demand.
	parallelFor(len(ids), opts.Workers, func(_, k int) {
		if id, r := ids[k], rep[ids[k]]; r != id && subs[r] != nil {
			subs[id] = isomorph.MapSchedule(subs[r], *fromRep[id])
		}
	})
	for _, id := range ids {
		if rep[id] != id && subs[id] != nil {
			hits += uses[id]
		}
	}
	stats.CacheHits += hits
	opts.Obs.Count("cache.hits", float64(hits))

	// Assemble and simulate each candidate in its worker's buffer. A
	// buffer never leaves its worker: the publisher copies what it emits.
	parallelFor(len(cands), opts.Workers, func(w, ci int) {
		c := cands[ci]
		if c == nil || c.asm == nil {
			return
		}
		cs := span.ChildLane("candidate")
		cs.SetInt("index", int64(ci))
		mine := make([]*solve.SubSchedule, len(c.cells))
		for i, id := range c.cells {
			if mine[i] = subs[id]; mine[i] == nil {
				cs.SetStr("outcome", "unrealizable")
				cs.End()
				return
			}
		}
		sched, err := c.asm.build(&ws.bufs[w], mine)
		if err != nil {
			cs.SetStr("outcome", "unrealizable")
			cs.End()
			return
		}
		// Simulation of an assembled candidate is cheap and bounded;
		// honoring the context here would discard completed solver work
		// and break the anytime guarantee, so it runs to completion.
		t, err := sim.Time(top, sched, opts.Sim)
		if err != nil {
			cs.SetStr("outcome", "sim-failed")
			cs.End()
			return
		}
		cs.SetFloat("time", t)
		cs.End()
		out[ci] = realized{time: t, subs: mine, ok: true}
		// Publish as soon as the candidate is simulated: the stream is
		// anytime, so waiting for the pass barrier would only delay it.
		pub.offer(sched, t, source, engineName, c.combo)
	})

	// Stores come after the candidates are out: they may write through to
	// disk and must not hold up the incumbent stream.
	if opts.SolveCache != nil && ctx.Err() == nil && solvedNow > 0 {
		ds := make([]*solve.Demand, 0, solvedNow)
		solved := make([]*solve.SubSchedule, 0, solvedNow)
		for _, id := range toSolve {
			if subs[id] != nil {
				ds = append(ds, tab.Demand(id))
				solved = append(solved, subs[id])
			}
		}
		storeAll(opts.SolveCache, ds, solveSig, solved)
	}
	return out
}

// storeAll hands one pass's solved representatives to the cache: in one
// StoreAll call when it takes batches, else one Store each.
func storeAll(c SolveCache, ds []*solve.Demand, sig string, subs []*solve.SubSchedule) {
	if b, ok := c.(BatchSolveCache); ok {
		b.StoreAll(ds, sig, subs)
		return
	}
	for i, d := range ds {
		c.Store(d, sig, subs[i])
	}
}

// maxSolveErrors caps the distinct solver errors surfaced per pass so a
// pathological run cannot grow Stats without bound.
const maxSolveErrors = 8

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// parallelFor runs fn(w, 0..n-1) on up to workers goroutines, pulling
// indices from a shared atomic counter; w names the goroutine, w <
// max(1, min(workers, n)), and calls with one w never overlap, so fn may
// use per-worker memory indexed by w. Callers write results into
// index-slotted arrays, so scheduling order never leaks into outputs.
func parallelFor(n, workers int, fn func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
