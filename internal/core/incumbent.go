package core

import (
	"fmt"
	"math"
	"sync"

	"syccl/internal/collective"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/sketch"
	"syccl/internal/topology"
)

// finisher turns the forward pipeline's schedules into the caller-visible
// collective's. finish mirrors (reductions) or mirrors and concatenates
// (AllReduce) a forward schedule into dst (nil: new memory) and
// re-simulates the result, returning the finished schedule and its time;
// a forward collective's schedule comes back as is. check validates a
// finished schedule against the requested collective (fwd is the
// schedule it was finished from). Ranking needs only finish, so the
// pipeline checks just the schedules it hands out. Both must be safe for
// concurrent use (on distinct dsts) and must not mutate their inputs.
//
// shape is finish without the simulation, for a replay that times the
// finished schedule once, in its recipe's serving order. It is nil
// exactly for a forward collective, whose finish is the identity: the
// pipeline then ranks on the times its passes recorded and finishes
// nothing. twoPhase marks a finished schedule that is
// Concat(mirror, fwd): its first len(fwd.Transfers) transfers are one
// phase and the rest another, and a re-keying must keep them apart.
type finisher struct {
	finish   func(dst *schedule.Buffer, fwd *schedule.Schedule, fwdTime float64) (*schedule.Schedule, float64, error)
	check    func(fwd, out *schedule.Schedule) error
	shape    func(dst *schedule.Buffer, fwd *schedule.Schedule) *schedule.Schedule
	twoPhase bool
}

// forwardFinisher finishes a forward collective: nothing to do but
// validate.
func forwardFinisher(col *collective.Collective) finisher {
	return finisher{
		finish: func(_ *schedule.Buffer, s *schedule.Schedule, t float64) (*schedule.Schedule, float64, error) {
			return s, t, nil
		},
		check: func(_, out *schedule.Schedule) error { return validateForward(out, col) },
	}
}

// shapedFinisher finishes by shape and times the finished schedule with
// the time-only simulator.
func shapedFinisher(top *topology.Topology, so sim.Options, shape func(*schedule.Buffer, *schedule.Schedule) *schedule.Schedule,
	check func(fwd, out *schedule.Schedule) error, twoPhase bool) finisher {
	return finisher{
		finish: func(dst *schedule.Buffer, fwd *schedule.Schedule, _ float64) (*schedule.Schedule, float64, error) {
			out := shape(dst, fwd)
			t, err := sim.Time(top, out, so)
			if err != nil {
				return nil, 0, fmt.Errorf("core: finished schedule: %w", err)
			}
			return out, t, nil
		},
		check:    check,
		shape:    shape,
		twoPhase: twoPhase,
	}
}

// publisher serializes the incumbent stream behind Options.OnIncumbent.
// Candidates are offered opportunistically from worker goroutines as they
// finish simulation; the publisher gates twice — on forward time before
// the (possibly expensive) finish and check, and on finished time before
// emission — so the published stream is strictly improving regardless of
// completion order. A nil publisher is a no-op, which keeps every call
// site unconditional.
type publisher struct {
	cb  func(Incumbent)
	fin finisher

	mu sync.Mutex
	// bestFwd gates offers by raw forward time: an offer that does not
	// improve on the best forward time seen so far usually cannot improve
	// the stream and skips finishing entirely. That is a heuristic —
	// finishing is not monotone (the concatenated AllReduce time can
	// invert the forward order) — so the pipeline's winner selection
	// finishes every finalist and publishFinal backstops any improvement
	// the gate skipped. bestTime gates emission by finished time, which is
	// what the strict-improvement contract is stated over.
	bestFwd  float64
	bestTime float64
	bound    float64
	seq      int
}

func newPublisher(cb func(Incumbent), fin finisher) *publisher {
	if cb == nil {
		return nil
	}
	return &publisher{cb: cb, fin: fin, bestFwd: math.Inf(1), bestTime: math.Inf(1)}
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

	out, t, err := p.fin.finish(nil, sched, fwdTime)
	if err != nil || p.fin.check(sched, out) != nil {
		return
	}
	if out == sched {
		// A forward schedule is emitted as offered, and an offered
		// schedule may be a worker's build buffer, which its next build
		// overwrites: the stream gets a copy.
		out = sched.Clone()
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if t >= p.bestTime {
		// A concurrent offer with a worse forward time but better
		// finished time won the race; strict improvement holds.
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
// finished and checked, bypassing the forward-time gate: a winner whose
// forward time never led the race was never finished during the passes,
// yet its finished time may beat every published incumbent. It emits
// only on strict improvement, so the stream stays strictly decreasing
// and a winner that was already published — the common case — adds no
// event.
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
