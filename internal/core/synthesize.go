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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Request-scoped fan-in: a caller that attached a recorder to the
	// context (the serving layer's per-flight recorder) gets the whole
	// pipeline's span tree on it without plumbing an explicit option. An
	// explicit opts.Obs always wins.
	if opts.Obs == nil {
		opts.Obs = obs.FromContext(ctx)
	}
	opts = opts.withDefaults()
	if err := col.Validate(); err != nil {
		return nil, err
	}
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

	switch col.Kind {
	case collective.KindAllReduce:
		return synthesizeAllReduce(ctx, top, col, opts, root)
	}

	forwardCol, mirrored := col.Forward()
	fin := forwardFinisher(col)
	if mirrored {
		// Every candidate of a mirrored collective — incumbents and the
		// final result alike — is finished the same way: mirror,
		// re-simulate; what is handed out is validated as a reduction.
		fin.finish = func(fwd *schedule.Schedule, _ float64) (*schedule.Schedule, float64, error) {
			m := schedule.MirrorInto(fwd, forwardCol, col)
			r, err := sim.Simulate(top, m, opts.Sim)
			if err != nil {
				return nil, 0, fmt.Errorf("core: mirrored schedule: %w", err)
			}
			return m, r.Time, nil
		}
		fin.check = func(_, m *schedule.Schedule) error {
			if err := m.Validate(col); err != nil {
				return fmt.Errorf("core: mirrored schedule invalid: %w", err)
			}
			return nil
		}
	}
	pub := newPublisher(opts.OnIncumbent, fin)
	return synthesizeForward(ctx, top, forwardCol, opts, root, pub, fin)
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
		"candidates.pruned_lb", "sim.events",
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
	if opts.Recipe != nil {
		if res := replay(top, col, opts, parent, pub, fin); res != nil {
			return res, nil
		}
		// Stale recipe: the full pass below returns the same bytes and
		// records a fresh one.
	}
	res := &Result{}
	// finish closes the pipeline at every exit below: the winner of the
	// pool by finished time, its recipe when the run was not cut short.
	finish := func(pool []*candidate, partial bool) (*Result, error) {
		best, out, t, err := pickWinner(pool, fin, pub)
		if err != nil {
			return nil, err
		}
		// pickWinner checked out; a reduction's forward schedule is
		// validated too.
		if out != best.sched {
			if err := validateForward(best.sched, col); err != nil {
				return nil, err
			}
		}
		res.Schedule, res.Time, res.Combination = out, t, best.combo
		res.Partial = partial
		if !partial {
			res.Recipe = &Recipe{
				Combination: best.combo,
				Subs:        best.subs,
				Source:      best.source,
				Engine:      best.engine,
				TimeBits:    math.Float64bits(best.time),
				Transfers:   len(best.sched.Transfers),
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
	pool := assembleAll(top, col, combos, tab, opts, coarseSpan)
	coarse := realizeAll(ctx, top, tab, pool, coarseSolve, opts, &res.Stats, coarseSpan, pub, "coarse")
	cands := make([]*candidate, 0, len(combos))
	for ci, c := range pool {
		if coarse[ci].ok {
			c.sched, c.time, c.subs = coarse[ci].sched, coarse[ci].time, coarse[ci].subs
			c.source, c.engine = "coarse", coarseSolve.Engine.String()
			cands = append(cands, c)
		}
	}
	// The ring family lives in the untruncated sketch space (K up to
	// |V|−1 stages) that the stage-bounded search cannot reach; include
	// it as an explicit candidate so deep-pipeline schedules stay in
	// contention where they win (large sizes on ring-friendly fabrics).
	if col.Kind == collective.KindAllGather {
		if ring, err := nccl.AllGather(top, col); err == nil {
			if r, err := sim.Simulate(top, ring, opts.Sim); err == nil {
				pub.offer(ring, r.Time, "ring", "", nil)
				cands = append(cands, &candidate{sched: ring, time: r.Time, source: "ring"})
			}
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

	// Flow-bound filter between the passes: drop survivors whose flow
	// lower bound proves they cannot beat the incumbent, and detect when
	// the incumbent's own bound proves the coarse schedule optimal. See
	// bound.go; pruning never changes the fine-pass winner.
	keep, proved, incLB := pruneByBound(ctx, top, tab, keep, opts, &res.Stats, parent)
	pub.setBound(incLB)
	res.Stats.Refined = len(keep)

	// Phase 2b: fine synthesis of the survivors, from the assemblies and
	// demand ids the coarse pass made. Injected fixed schedules (no
	// assembly, e.g. the ring) pass through realizeAll untouched and keep
	// their coarse-pass result.
	fineSpan := parent.Child("solve.fine")
	fineSpan.SetInt("survivors", int64(len(keep)))
	if proved {
		// The incumbent met its own lower bound and every rival is
		// pruned: no MILP can improve on the coarse schedule, so the
		// fine pass has nothing to do.
		fineSpan.SetStr("outcome", "proved-optimal")
		fineSpan.End()
		res.Stats.ProvedOptimal = true
		return finish(cands, ctx.Err() != nil)
	}
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
	fine := realizeAll(ctx, top, tab, keep, fineSolve, opts, &res.Stats, fineSpan, pub, "fine")
	finalists := make([]*candidate, 0, len(cands)+len(keep))
	finalists = append(finalists, cands...)
	fineName := fineSolve.Engine.String()
	for ci, c := range keep {
		if fine[ci].ok {
			finalists = append(finalists, &candidate{
				combo: c.combo, asm: c.asm, cells: c.cells, subs: fine[ci].subs,
				sched: fine[ci].sched, time: fine[ci].time,
				source: "fine", engine: fineName,
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

// pickWinner selects the pipeline's result by caller-visible time: every
// finalist's forward schedule is finished, the finalists are ranked by
// finished time (stably, so the first in order wins a tie), and the first
// in the ranking whose finished schedule passes the check wins — the
// minimal finished time among the finalists that finish and pass, for one
// check in the common case instead of one per finalist. Ranking by
// forward time instead would be wrong for AllReduce — the concatenated
// ReduceScatter+AllGather time is not monotone in the AllGather-phase
// time, so the forward-best candidate can finish into a schedule worse
// than one already published on the incumbent stream. The chosen winner
// is force-offered to the publisher (no-op when it was already the best
// published), which is what keeps the stream's last event equal to the
// returned result. If no finalist finishes and passes, the error is the
// first finalist's (in finalist order). The winner comes back with its
// finished schedule and time, so nobody finishes it again.
// Deterministic: a pure function of a deterministic finalist list.
func pickWinner(finalists []*candidate, fin finisher, pub *publisher) (*candidate, *schedule.Schedule, float64, error) {
	type finished struct {
		at  int // finalist index
		out *schedule.Schedule
		t   float64
	}
	ranked := make([]finished, 0, len(finalists))
	errs := make([]error, len(finalists))
	for i, f := range finalists {
		out, t, err := fin.finish(f.sched, f.time)
		if err != nil {
			errs[i] = err
			continue
		}
		ranked = append(ranked, finished{i, out, t})
	}
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].t < ranked[b].t })
	for _, r := range ranked {
		best := finalists[r.at]
		if errs[r.at] = fin.check(best.sched, r.out); errs[r.at] == nil {
			pub.publishFinal(r.out, r.t, best.source, best.engine, best.combo)
			return best, r.out, r.t, nil
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, 0, err
		}
	}
	return nil, nil, 0, errors.New("core: no finalists")
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
	dimFor := func(a, b int) int {
		for d := 0; d < top.NumDims(); d++ {
			if top.SameGroup(d, a, b) {
				return d
			}
		}
		return -1
	}
	if d := dimFor(src, dst); d >= 0 {
		s.AddTransfer(schedule.Transfer{Src: src, Dst: dst, Piece: p, Dim: d})
		return s, nil
	}
	g := top.Sym.Local.N
	relay := (src/g)*g + dst%g
	d1, d2 := dimFor(src, relay), dimFor(relay, dst)
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
// the schedule, its simulated time, and the per-cell sub-schedules it was
// built from (shared read-only across cells with one demand).
type realized struct {
	sched *schedule.Schedule
	time  float64
	subs  []*solve.SubSchedule
	ok    bool
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
//     parallel, the ones it did not serve;
//  3. map every other demand from its representative's sub-schedule —
//     one mapped sub-schedule per distinct demand, shared read-only — then
//     assemble and simulate each candidate in parallel.
//
// Every result is written into a slot indexed by candidate or demand id
// and the shared counters are reduced in deterministic order, so
// schedules, times, and Stats are byte-identical for any Workers setting;
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
	solveOpts solve.Options, opts Options, stats *Stats, span *obs.Span, pub *publisher, source string) []realized {

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
		parallelFor(len(reps), opts.Workers, func(k int) {
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
	parallelFor(len(toSolve), opts.Workers, func(k int) {
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
	parallelFor(len(ids), opts.Workers, func(k int) {
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

	// Assemble and simulate each candidate.
	parallelFor(len(cands), opts.Workers, func(ci int) {
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
		sched, err := c.asm.build(mine)
		if err != nil {
			cs.SetStr("outcome", "unrealizable")
			cs.End()
			return
		}
		// Simulation of an assembled candidate is cheap and bounded;
		// honoring the context here would discard completed solver work
		// and break the anytime guarantee, so it runs to completion.
		r, err := sim.Simulate(top, sched, opts.Sim)
		if err != nil {
			cs.SetStr("outcome", "sim-failed")
			cs.End()
			return
		}
		cs.SetFloat("time", r.Time)
		cs.End()
		out[ci] = realized{sched: sched, time: r.Time, subs: mine, ok: true}
		// Publish as soon as the candidate is simulated: the stream is
		// anytime, so waiting for the pass barrier would only delay it.
		pub.offer(sched, r.Time, source, engineName, c.combo)
	})

	// Stores come after the candidates are out: one may write through to
	// disk and must not hold up the incumbent stream.
	if opts.SolveCache != nil && ctx.Err() == nil {
		parallelFor(len(toSolve), opts.Workers, func(k int) {
			if id := toSolve[k]; subs[id] != nil {
				opts.SolveCache.Store(tab.Demand(id), solveSig, subs[id])
			}
		})
	}
	return out
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

// parallelFor runs fn(0..n-1) on up to workers goroutines, pulling
// indices from a shared atomic counter. Callers write results into
// index-slotted arrays, so scheduling order never leaks into outputs.
func parallelFor(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
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
				fn(i)
			}
		}()
	}
	wg.Wait()
}
