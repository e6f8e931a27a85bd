package serve

import (
	"context"
	"sort"
	"sync"
	"time"

	"syccl/internal/obs"
)

// The flight recorder's two windows: the most recent requests and the
// slowest ones.
const (
	DefaultRecentRequests = 256
	DefaultSlowRequests   = 32
)

// RequestRecord is one request's flight record: identity, workload,
// outcome, the latency breakdown, and (for requests that ran the
// engine) the span tree of the synthesis pipeline. It is what
// GET /debug/requests/{id} returns.
type RequestRecord struct {
	ID     string    `json:"id"`
	Method string    `json:"method"`
	Path   string    `json:"path"`
	Start  time.Time `json:"start"`

	Status  int    `json:"status"`
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`

	Collective string `json:"collective,omitempty"`
	Topology   string `json:"topology,omitempty"`
	PlanKey    string `json:"plan_key,omitempty"`
	Cache      string `json:"cache,omitempty"`
	Coalesced  bool   `json:"coalesced,omitempty"`
	Leader     bool   `json:"leader,omitempty"`
	Partial    bool   `json:"partial,omitempty"`

	DurationUS  float64 `json:"duration_us"`
	QueueWaitUS float64 `json:"queue_wait_us,omitempty"`
	SolveUS     float64 `json:"solve_us,omitempty"`

	// Spans is the request's own span tree (the per-flight recorder's
	// history). Coalesced followers share the leader's tree.
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// summary is the span-free form used in /debug/requests listings; the
// full record (with spans) stays one click away at /{id}.
func (rr *RequestRecord) summary() RequestRecord {
	c := *rr
	c.Spans = nil
	return c
}

// flightRecorder retains two windows over finished requests: a ring of
// the most recent N, and the K slowest seen so far. A request present in
// both is stored once; byID serves /debug/requests/{id} for anything
// still referenced by either window.
type flightRecorder struct {
	mu   sync.Mutex
	ring []*RequestRecord // circular, cap recentN
	next int
	slow []*RequestRecord // sorted fastest-first, cap slowK
	byID map[string]*RequestRecord

	recentN int
	slowK   int
}

func newFlightRecorder(recentN, slowK int) *flightRecorder {
	return &flightRecorder{
		ring:    make([]*RequestRecord, 0, recentN),
		byID:    make(map[string]*RequestRecord),
		recentN: recentN,
		slowK:   slowK,
	}
}

// add files a finished request into both windows. Records are owned by
// the recorder after add — callers must not mutate them.
func (fr *flightRecorder) add(rr *RequestRecord) {
	if fr == nil || rr == nil || rr.ID == "" {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()

	fr.byID[rr.ID] = rr

	// Recent window: overwrite the oldest slot once full.
	var evicted *RequestRecord
	if len(fr.ring) < fr.recentN {
		fr.ring = append(fr.ring, rr)
	} else {
		evicted = fr.ring[fr.next]
		fr.ring[fr.next] = rr
		fr.next = (fr.next + 1) % fr.recentN
	}

	// Slow window: insert in order, drop the fastest once over K.
	i := sort.Search(len(fr.slow), func(i int) bool {
		return fr.slow[i].DurationUS >= rr.DurationUS
	})
	fr.slow = append(fr.slow, nil)
	copy(fr.slow[i+1:], fr.slow[i:])
	fr.slow[i] = rr
	var dropped *RequestRecord
	if len(fr.slow) > fr.slowK {
		dropped = fr.slow[0]
		fr.slow = fr.slow[1:]
	}

	// A record leaves byID only when neither window references it.
	for _, gone := range []*RequestRecord{evicted, dropped} {
		if gone == nil || gone == rr {
			continue
		}
		if fr.byID[gone.ID] == gone && !fr.referencedLocked(gone) {
			delete(fr.byID, gone.ID)
		}
	}
}

// referencedLocked reports whether rec is still held by either window.
func (fr *flightRecorder) referencedLocked(rec *RequestRecord) bool {
	for _, r := range fr.ring {
		if r == rec {
			return true
		}
	}
	for _, r := range fr.slow {
		if r == rec {
			return true
		}
	}
	return false
}

// get returns the full record (spans included) for an id.
func (fr *flightRecorder) get(id string) (*RequestRecord, bool) {
	if fr == nil {
		return nil, false
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	rr, ok := fr.byID[id]
	return rr, ok
}

// DebugRequests is the body of GET /debug/requests: recent requests
// newest-first and the slowest seen, both as span-free summaries.
type DebugRequests struct {
	Recent  []RequestRecord `json:"recent"`
	Slowest []RequestRecord `json:"slowest"`
}

// snapshot lists both windows; recent is newest-first, slowest is
// slowest-first.
func (fr *flightRecorder) snapshot() DebugRequests {
	out := DebugRequests{Recent: []RequestRecord{}, Slowest: []RequestRecord{}}
	if fr == nil {
		return out
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for i := 0; i < len(fr.ring); i++ {
		// Walk backwards from the most recently written slot.
		idx := (fr.next - 1 - i + 2*len(fr.ring)) % len(fr.ring)
		if len(fr.ring) < fr.recentN {
			// Ring not yet full: slots are in insertion order, next unused.
			idx = len(fr.ring) - 1 - i
		}
		out.Recent = append(out.Recent, fr.ring[idx].summary())
	}
	for i := len(fr.slow) - 1; i >= 0; i-- {
		out.Slowest = append(out.Slowest, fr.slow[i].summary())
	}
	return out
}

// requestRecordKey carries the in-progress RequestRecord through the
// request context so handlers can annotate it as facts become known.
type requestRecordKey struct{}

func withRequestRecord(ctx context.Context, rr *RequestRecord) context.Context {
	return context.WithValue(ctx, requestRecordKey{}, rr)
}

func requestRecordFrom(ctx context.Context) *RequestRecord {
	rr, _ := ctx.Value(requestRecordKey{}).(*RequestRecord)
	return rr
}
