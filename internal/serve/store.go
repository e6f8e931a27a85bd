package serve

import (
	"net/http"
	"sync"

	"syccl/internal/lru"
	"syccl/internal/obs"
	"syccl/internal/schedule"
)

// storeEntry is one served result retained for GET /v1/schedule/{id}.
type storeEntry struct {
	id    string
	resp  SynthesizeResponse // base response (no per-request flags)
	sched *schedule.Schedule

	// bodies are the two encoded answers to a one-shot store hit, without
	// and with the schedule, each built by its first reader. They live and
	// die with the entry: eviction drops them, a re-insert or a restore
	// starts from a fresh entry and encodes again.
	bodies [2]hitBody
}

type hitBody struct {
	once sync.Once
	buf  []byte
}

// hit is the outcome of answering from the store: the stored base
// response, marked cached.
func (ent *storeEntry) hit() outcome {
	o := outcome{status: http.StatusOK, resp: ent.resp, sched: ent.sched, cache: cacheTierStore, ent: ent}
	o.resp.Cached = true
	return o
}

// body is the encoded hit: exactly what the generic encoder writes for
// hit() with no per-request flag set. Callers only read it. nil means
// the encoding failed, and the caller falls back to the generic encoder
// to report that.
func (ent *storeEntry) body(includeSchedule bool) []byte {
	b := &ent.bodies[0]
	if includeSchedule {
		b = &ent.bodies[1]
	}
	b.once.Do(func() {
		resp := ent.hit().resp
		if includeSchedule {
			resp.Schedule = ToScheduleJSON(ent.sched)
		}
		b.buf, _ = encodeBody(&resp)
	})
	return b.buf
}

// scheduleStore is the LRU of completed results, keyed by schedule id.
// Partial results are never stored: a warm hit must always be the full
// pipeline's answer, not whatever a tight deadline happened to salvage.
type scheduleStore struct{ c *lru.Cache[*storeEntry] }

func newScheduleStore(cap int, rec *obs.Recorder) scheduleStore {
	return scheduleStore{lru.New[*storeEntry](cap, 1, lru.Meters{
		Evict: lru.NewMeter(rec, "serve.store.evictions", nil),
	})}
}

func (st scheduleStore) get(id string) (*storeEntry, bool) { return st.c.Get(id) }

// put inserts a result under its own clone of the schedule; the first
// write for an id wins so stored results stay stable under concurrent
// duplicate solves.
func (st scheduleStore) put(id string, resp SynthesizeResponse, sched *schedule.Schedule) {
	st.c.Add(id, func() *storeEntry { return &storeEntry{id: id, resp: resp, sched: sched.Clone()} })
}

func (st scheduleStore) len() int { return st.c.Len() }

// evictions counts entries dropped to make room, whoever put the entry
// that displaced them.
func (st scheduleStore) evictions() int64 { return st.c.Stats().Evictions }

// export snapshots the entries oldest-first, so a restore that put()s
// them in order reproduces the LRU recency order. The returned entries
// alias the live schedules; callers only read them.
func (st scheduleStore) export() []*storeEntry {
	out := make([]*storeEntry, 0, st.c.Len())
	st.c.Each(func(_ string, ent *storeEntry) { out = append(out, ent) })
	return out
}
