package core

import (
	"math"
	"sync"

	"syccl/internal/collective"
	"syccl/internal/schedule"
	"syccl/internal/sketch"
)

// transformFunc finishes a raw forward-pipeline schedule into the
// caller-visible one — identity for forward collectives, mirror (+
// re-simulate) for reductions, mirror+concat (+ re-simulate) for
// AllReduce — returning the finished schedule and its simulated time, or
// why the finished schedule does not validate or simulate. A transform
// must be safe for concurrent use and must not mutate its input.
type transformFunc func(fwd *schedule.Schedule, fwdTime float64) (*schedule.Schedule, float64, error)

// identityTransform validates a forward schedule against the requested
// collective and passes it through unchanged.
func identityTransform(col *collective.Collective) transformFunc {
	return func(s *schedule.Schedule, t float64) (*schedule.Schedule, float64, error) {
		return s, t, validateForward(s, col)
	}
}

// publisher serializes the incumbent stream behind Options.OnIncumbent.
// Candidates are offered opportunistically from worker goroutines as they
// finish simulation; the publisher gates twice — on forward time before
// the (possibly expensive) transform, and on transformed time before
// emission — so the published stream is strictly improving regardless of
// completion order. A nil publisher is a no-op, which keeps every call
// site unconditional.
type publisher struct {
	cb        func(Incumbent)
	transform transformFunc

	mu sync.Mutex
	// bestFwd gates offers by raw forward time: an offer that does not
	// improve on the best forward time seen so far usually cannot improve
	// the stream and skips the transform entirely. That is a heuristic —
	// transforms are not monotone (the concatenated AllReduce time can
	// invert the forward order) — so the pipeline's winner selection
	// re-evaluates every finalist through the transform and publishFinal
	// backstops any improvement the gate skipped. bestTime gates emission
	// by transformed time, which is what the strict-improvement contract
	// is stated over.
	bestFwd  float64
	bestTime float64
	bound    float64
	seq      int
}

func newPublisher(cb func(Incumbent), transform transformFunc) *publisher {
	if cb == nil {
		return nil
	}
	return &publisher{cb: cb, transform: transform, bestFwd: math.Inf(1), bestTime: math.Inf(1)}
}

// setBound records the best known flow lower bound; later incumbents
// carry it. Monotone: a smaller (weaker) bound never replaces a larger.
func (p *publisher) setBound(b float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if b > p.bound {
		p.bound = b
	}
	p.mu.Unlock()
}

// offer publishes the schedule if it strictly improves on the best
// published incumbent. fwdTime is the simulated time of the raw forward
// schedule; source/engineName/combo are provenance carried on the event.
// Safe to call from worker goroutines; the callback runs under the
// publisher lock, so calls never overlap.
func (p *publisher) offer(sched *schedule.Schedule, fwdTime float64, source, engineName string, combo *sketch.Combination) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if fwdTime >= p.bestFwd {
		p.mu.Unlock()
		return
	}
	p.bestFwd = fwdTime
	p.mu.Unlock()

	out, t, err := p.transform(sched, fwdTime)
	if err != nil {
		return
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if t >= p.bestTime {
		// A concurrent offer with a worse forward time but better
		// transformed time won the race; strict improvement holds.
		return
	}
	p.bestTime = t
	p.seq++
	p.cb(Incumbent{
		Schedule:    out,
		Time:        t,
		Bound:       p.bound,
		Source:      source,
		Engine:      engineName,
		Combination: combo,
		Seq:         p.seq,
	})
}

// publishFinal force-offers the pipeline's deterministic winner, already
// transformed, bypassing the forward-time gate: a winner whose forward
// time never led the race was never transformed during the passes, yet
// its finished time may beat every published incumbent. It emits only on
// strict improvement, so the stream stays strictly decreasing and a
// winner that was already published — the common case — adds no event.
func (p *publisher) publishFinal(out *schedule.Schedule, t float64, source, engineName string, combo *sketch.Combination) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if t >= p.bestTime {
		return
	}
	p.bestTime = t
	p.seq++
	p.cb(Incumbent{
		Schedule:    out,
		Time:        t,
		Bound:       p.bound,
		Source:      source,
		Engine:      engineName,
		Combination: combo,
		Seq:         p.seq,
	})
}
