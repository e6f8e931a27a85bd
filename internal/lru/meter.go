package lru

import (
	"sync/atomic"

	"syccl/internal/obs"
)

// Meter counts one kind of cache event everywhere it is reported: a
// lifetime total for stats snapshots, the recorder counter `name` for
// traces, and a labeled registry child for Prometheus exposition. A nil
// Meter, a nil recorder and a nil child are each a no-op, so telemetry
// can be off at any level without a branch at the call site.
type Meter struct {
	n     atomic.Int64
	rec   *obs.Recorder
	name  string
	child *obs.Counter
}

// NewMeter builds a meter reporting to rec under name and to child.
func NewMeter(rec *obs.Recorder, name string, child *obs.Counter) *Meter {
	return &Meter{rec: rec, name: name, child: child}
}

// Add records delta events.
func (m *Meter) Add(delta int64) {
	if m == nil {
		return
	}
	m.n.Add(delta)
	m.rec.Count(m.name, float64(delta))
	m.child.Add(float64(delta))
}

// Load returns the lifetime total.
func (m *Meter) Load() int64 {
	if m == nil {
		return 0
	}
	return m.n.Load()
}
