package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"syccl/internal/core"
	"syccl/internal/engine"
	"syccl/internal/obs"
	"syccl/internal/schedule"
)

// outcome is what answering one resolved request produced, whoever asked:
// a flight leader publishes it to its waiters, the prewarmer only looks
// at the status. Either apiErr is set, or status/resp/sched are.
type outcome struct {
	// status is 200, or 206 for an anytime Partial.
	status int
	// resp is the base response: no per-request flags, no schedule.
	resp   SynthesizeResponse
	sched  *schedule.Schedule
	apiErr *APIError
	// ent is the store entry a store hit was answered from, nil for
	// every other outcome; it carries the hit's encoded bodies.
	ent *storeEntry
	// Telemetry: the admission wait, the engine time, and which cache
	// tier answered ("store", "warm", "cold"; "none" for a replan).
	queueWait time.Duration
	solve     time.Duration
	cache     string
}

// storeHit answers a request from the schedule store — unless it is a
// replan: a fault is news, and serving yesterday's answer defeats the
// point.
func (s *Server) storeHit(res *resolved) (outcome, bool) {
	if res.replan {
		return outcome{}, false
	}
	ent, ok := s.store.get(res.id)
	if !ok {
		return outcome{}, false
	}
	s.storeHits.Add(1)
	return ent.hit(), true
}

// plan is the request pipeline past the store: admit → deadline → engine
// → build response → Partial-or-write-through. Every solve the server
// runs goes through it — flight leaders for synthesize and replan
// requests, and the prewarmer — so stored results are identical whichever
// path produced them. Spans land on rec; publish, when non-nil, receives
// a synthesis' incumbent stream.
func (s *Server) plan(ctx context.Context, res *resolved, rec *obs.Recorder, reqID string, publish func(StreamEvent)) (o outcome) {
	queued := time.Now()
	err := s.adm.acquire(ctx)
	o.queueWait = time.Since(queued)
	s.met.queueWait.Observe(o.queueWait.Seconds())
	if err != nil {
		if errors.Is(err, errQueueFull) {
			s.rejections.Add(1)
			s.rec.Count("serve.queue.rejections", 1)
			o.apiErr = apiErrorf(http.StatusTooManyRequests, CodeQueueFull,
				"admission queue full (%d solves running, %d queued); retry later",
				s.opts.Concurrency, s.opts.QueueDepth)
		} else {
			o.apiErr = apiErrorf(http.StatusServiceUnavailable, CodeDeadline, "request abandoned while queued")
		}
		return o
	}
	defer s.adm.release()

	ctx = obs.WithRequestID(ctx, reqID)
	if res.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, res.timeout)
		defer cancel()
	}
	sp := rec.StartSpan("serve.plan")
	sp.SetStr("key", res.id)
	if reqID != "" {
		sp.SetStr("request", reqID)
	}
	opts := res.opts
	opts.Obs = rec
	solveStart := time.Now()
	var onIncumbent func(core.Incumbent)
	if publish != nil {
		// Runs on synthesis worker goroutines; publish and the metric
		// adds are non-blocking.
		onIncumbent = func(inc core.Incumbent) {
			elapsed := time.Since(solveStart)
			if inc.Seq == 1 {
				s.met.ttfi.Observe(elapsed.Seconds())
			}
			s.met.incumbents.With(inc.Source).Inc()
			publish(StreamEvent{
				Event:     StreamEventIncumbent,
				Seq:       inc.Seq,
				TimeS:     inc.Time,
				BoundS:    inc.Bound,
				Source:    inc.Source,
				Engine:    inc.Engine,
				ElapsedMS: float64(elapsed) / float64(time.Millisecond),
			})
		}
	}
	// The engine call is the pipeline's only branch. Replan selectively
	// invalidates what the delta made unreachable, then plans on the
	// degraded topology; its bookkeeping rides along in the response. It
	// streams nothing: a replan's flight is private and answers in one
	// shot, so nobody could subscribe, and publishing costs the pipeline a
	// full schedule assembly per incumbent.
	var (
		result *core.Result
		replan *ReplanJSON
		what   = "synthesis"
	)
	if res.replan {
		what = "replan"
		var rres *engine.ReplanResult
		if rres, err = s.eng.Replan(ctx, res.base, res.top, res.col, opts); err == nil {
			result = rres.Result
			replan = &ReplanJSON{
				Delta:         res.delta.String(),
				TouchedGroups: rres.TouchedGroups,
				TotalGroups:   rres.TotalGroups,
				Invalidated:   rres.Invalidated,
				ReusedSubs:    rres.ReusedSubs,
				SolvedSubs:    rres.SolvedSubs,
				ReuseRatio:    rres.ReuseRatio(),
			}
		}
	} else {
		opts.OnIncumbent = onIncumbent
		result, err = s.eng.Plan(ctx, res.top, res.col, opts)
	}
	o.solve = time.Since(solveStart)
	sp.End()
	s.met.solveDur.With(strings.ToLower(res.col.Kind.String()), strings.ToLower(res.req.Topology)).Observe(o.solve.Seconds())
	if err != nil {
		// The pipeline reads its deadline off the clock, so it can give up
		// before the context's timer fires.
		if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
			o.apiErr = apiErrorf(http.StatusGatewayTimeout, CodeDeadline,
				"deadline expired before any candidate completed")
		} else {
			s.errs.Add(1)
			s.rec.Count("serve.errors", 1)
			o.apiErr = apiErrorf(http.StatusInternalServerError, CodeInternal, "%s failed: %v", what, err)
		}
		return o
	}

	o.resp = s.buildResponse(res, result)
	o.sched = result.Schedule
	o.status = http.StatusOK
	switch {
	case res.replan:
		// Replans skip the store-read and coalescing tiers by design and
		// keep reporting as such.
		o.cache = cacheTierNone
	case result.Stats.SolverCalls == 0:
		// Engine-warm: every sub-demand came from the engine's caches.
		o.cache = cacheTierWarm
	default:
		o.cache = cacheTierCold
	}
	if result.Partial {
		// Anytime result: valid and complete, but not the full pipeline's
		// answer — surfaced as 206 and kept out of the store.
		o.status = http.StatusPartialContent
		o.resp.ID = ""
		s.partials.Add(1)
		s.rec.Count("serve.partial", 1)
	} else {
		s.store.put(res.id, o.resp, result.Schedule)
	}
	// Attached after the write-through: the store serves plain synthesize
	// responses, so a follow-up /v1/synthesize with the same delta is an
	// ordinary store hit.
	o.resp.Replan = replan
	return o
}

// writeError writes a structured error and the one header an error can
// carry: a queue-full 429 tells the client when to come back.
func (s *Server) writeError(w http.ResponseWriter, aerr *APIError) {
	if aerr.Code == CodeQueueFull {
		_, queued := s.adm.load()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterHint(s.opts.RetryAfter, queued, s.opts.Concurrency)))
	}
	writeAPIError(w, aerr)
}

// retryAfterHint derives the 429 Retry-After from current load rather
// than a constant: the base hint scales with how many flights are
// already queued per solve slot — a rough estimate of how many base
// intervals must drain before a retry can even enter the queue. Floor
// 1s (the header is integer seconds, and 0 would invite a tight retry
// loop).
func retryAfterHint(base time.Duration, queued, concurrency int) int {
	if concurrency < 1 {
		concurrency = 1
	}
	scale := 1 + float64(queued)/float64(concurrency)
	secs := int(math.Ceil(base.Seconds() * scale))
	if secs < 1 {
		secs = 1
	}
	return secs
}
