package serve

import (
	"context"
	"sync"

	"syccl/internal/obs"
)

// flight is one in-flight synthesis shared by every concurrent duplicate
// request (single-flight). The leader's goroutine runs the solve under
// f.ctx — a context owned by the flight, not by any one client — and
// publishes the outcome before closing done. f.ctx is cancelled only
// when every waiter has gone, so one client disconnecting never kills a
// solve that others still want, while a solve nobody is waiting on stops
// promptly and (by the engine's contract) never populates the caches.
type flight struct {
	key    string
	done   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc

	// Guarded by the owning group's mutex.
	waiters int

	// Telemetry identity, set by the leader's handler before the solve
	// goroutine starts: the flight-private recorder that captures this
	// solve's span tree, and the leader's request id.
	rec   *obs.Recorder
	reqID string

	// Written by the leader goroutine before close(done): the outcome,
	// and the span tree (f.rec's history).
	outcome
	spans []obs.SpanRecord

	// Incumbent broker: the leader's solve publishes one event per
	// improving incumbent; streaming followers subscribe and receive the
	// history plus everything live. Guarded by bmu — never the group's
	// mutex, so publication cannot contend with join/leave.
	bmu  sync.Mutex
	hist []StreamEvent
	subs []chan StreamEvent
}

// publish fans one incumbent event out to every subscriber and appends
// it to the history for late subscribers. Sends never block: a
// subscriber that has fallen subBuffer events behind misses the oldest —
// harmless, since the stream is monotone and the final event always
// arrives via f.done.
func (f *flight) publish(ev StreamEvent) {
	f.bmu.Lock()
	f.hist = append(f.hist, ev)
	for _, ch := range f.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	f.bmu.Unlock()
}

// subBuffer is each subscriber's live-event headroom beyond the replayed
// history. Incumbent streams are short (strictly improving), so this is
// generous.
const subBuffer = 64

// subscribe registers a new event channel, pre-loaded with the history
// so a follower that joined mid-solve sees the whole stream. Channels
// are never closed; readers multiplex on the flight's done channel.
func (f *flight) subscribe() <-chan StreamEvent {
	f.bmu.Lock()
	defer f.bmu.Unlock()
	ch := make(chan StreamEvent, len(f.hist)+subBuffer)
	for _, ev := range f.hist {
		ch <- ev
	}
	f.subs = append(f.subs, ch)
	return ch
}

type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[string]*flight)}
}

// join returns the live flight for key, creating one if none exists (or
// if the existing one has been abandoned by all of its waiters and is
// only draining its cancellation). The second return is true for the
// caller that must run the solve.
func (g *flightGroup) join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok && f.waiters > 0 {
		f.waiters++
		return f, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &flight{key: key, done: make(chan struct{}), ctx: ctx, cancel: cancel, waiters: 1}
	g.flights[key] = f
	return f, true
}

// leave drops one waiter; the last one out cancels the flight's context.
func (g *flightGroup) leave(f *flight) {
	g.mu.Lock()
	f.waiters--
	abandoned := f.waiters <= 0
	g.mu.Unlock()
	if abandoned {
		f.cancel()
	}
}

// remove unregisters a finished flight so later requests start fresh
// (they will normally be served by the schedule store instead).
func (g *flightGroup) remove(f *flight) {
	g.mu.Lock()
	if g.flights[f.key] == f {
		delete(g.flights, f.key)
	}
	g.mu.Unlock()
}

// cancelAll cancels every in-flight solve; the engine's anytime semantics
// turn each into a prompt Partial (or error) response. Used by Drain when
// its context expires before the flights finish on their own.
func (g *flightGroup) cancelAll() {
	g.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(g.flights))
	for _, f := range g.flights {
		cancels = append(cancels, f.cancel)
	}
	g.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

func (g *flightGroup) len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}
