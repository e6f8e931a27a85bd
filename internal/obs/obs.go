// Package obs is the synthesizer's observability layer: hierarchical
// spans, monotonically accumulating counters, and gauges, recorded
// concurrently and exported as Chrome trace-event JSON (chrome.go) or a
// plain-text summary. The paper debugs SyCCL by where synthesis time
// goes (Fig 16b) and how schedules use links (§5.2); this package makes
// both first-class instead of ad-hoc wall-clock sums.
//
// A nil *Recorder is the off switch: every method on *Recorder and *Span
// is nil-safe and the nil paths allocate nothing, so instrumented hot
// paths cost nothing when observability is disabled. All state lives in
// the Recorder behind one mutex; spans may be started, annotated, and
// ended from any goroutine (annotate each span from the goroutine that
// owns it).
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// attrKind discriminates Attr payloads; typed constructors avoid
// interface boxing on instrumented paths.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrFloat
	attrStr
)

// Attr is one typed key/value annotation on a span or emitted event.
type Attr struct {
	Key  string
	kind attrKind
	i    int64
	f    float64
	s    string
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, i: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: attrFloat, f: v} }

// Str builds a string attribute.
func Str(key string, v string) Attr { return Attr{Key: key, kind: attrStr, s: v} }

// Value returns the attribute's payload as an interface value (used by
// the exporters, off the hot path).
func (a Attr) Value() interface{} {
	switch a.kind {
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	default:
		return a.s
	}
}

// SpanRecord is one finished span as stored by the recorder.
type SpanRecord struct {
	Name   string
	Parent string // name of the parent span ("" for roots)
	Lane   int32  // rendering lane; concurrent spans live on distinct lanes
	Start  time.Duration
	End    time.Duration
	Attrs  []Attr
}

// Sample is one counter/gauge observation: the cumulative (counters) or
// instantaneous (gauges) value at a point in time.
type Sample struct {
	Name  string
	At    time.Duration
	Value float64
}

// Complete is an externally timed event injected into the Chrome trace —
// used to render the simulated schedule as per-link timelines alongside
// the synthesis spans. Times are in seconds on the emitter's own clock.
type Complete struct {
	Process string // trace process grouping, e.g. "schedule:a100x16"
	Thread  string // trace thread within the process, e.g. "gpu003 nic"
	Name    string // event label
	Start   float64
	Dur     float64
	Attrs   []Attr
}

// Recorder accumulates spans, counter samples, and injected events.
// The zero value is not usable; call NewRecorder. A nil *Recorder is a
// valid no-op sink.
type Recorder struct {
	epoch    time.Time
	nextLane int32 // atomic; lane 0 is the main pipeline

	mu         sync.Mutex
	spans      []SpanRecord
	counters   map[string]float64
	samples    []Sample
	extras     []Complete
	maxSpans   int // 0 = unbounded
	maxSamples int // 0 = unbounded
	// open refcounts the names of in-flight (started, not yet ended)
	// spans. Retention trimming consults it so a kept child whose parent
	// has merely not finished yet keeps its parent reference, while a
	// reference to a genuinely dropped parent is cleared instead of
	// dangling in exported traces.
	open map[string]int
}

// NewRecorder returns an active recorder whose clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{
		epoch:    time.Now(),
		counters: make(map[string]float64),
		open:     make(map[string]int),
	}
}

// SetRetention bounds the recorder's retained history for long-lived
// processes (the syccl-serve daemon records spans and counter samples for
// every request; without a cap the backing slices grow without bound).
// When a cap is exceeded the oldest half of that series is dropped, so
// exported traces keep a recent window. Counter and gauge *values* are
// exact forever — only the historical samples behind the counter
// timelines are trimmed. Zero (the default) means unbounded; negative
// values are treated as zero.
func (r *Recorder) SetRetention(maxSpans, maxSamples int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if maxSpans < 0 {
		maxSpans = 0
	}
	if maxSamples < 0 {
		maxSamples = 0
	}
	r.maxSpans, r.maxSamples = maxSpans, maxSamples
	r.trimSpansLocked()
	r.samples = trimSamples(r.samples, r.maxSamples)
}

// trimSpansLocked drops the oldest half once the cap is exceeded, copying
// the tail down so the backing array does not pin dropped records. A kept
// span whose parent was dropped (and is not still in flight) has its
// Parent reference cleared — it is promoted to a root — so trimming never
// leaves dangling parent references in retained history or exported
// traces. Callers hold r.mu.
func (r *Recorder) trimSpansLocked() {
	if r.maxSpans <= 0 || len(r.spans) <= r.maxSpans {
		return
	}
	keep := r.maxSpans / 2
	if keep < 1 {
		keep = 1
	}
	n := copy(r.spans, r.spans[len(r.spans)-keep:])
	for i := n; i < len(r.spans); i++ {
		r.spans[i] = SpanRecord{}
	}
	r.spans = r.spans[:n]
	kept := make(map[string]bool, n)
	for i := range r.spans {
		kept[r.spans[i].Name] = true
	}
	for i := range r.spans {
		if p := r.spans[i].Parent; p != "" && !kept[p] && r.open[p] == 0 {
			r.spans[i].Parent = ""
		}
	}
}

func trimSamples(s []Sample, max int) []Sample {
	if max <= 0 || len(s) <= max {
		return s
	}
	keep := max / 2
	if keep < 1 {
		keep = 1
	}
	n := copy(s, s[len(s)-keep:])
	return s[:n]
}

func (r *Recorder) now() time.Duration { return time.Since(r.epoch) }

// Count adds delta to the named counter and records a cumulative sample.
func (r *Recorder) Count(name string, delta float64) {
	if r == nil {
		return
	}
	at := r.now()
	r.mu.Lock()
	r.counters[name] += delta
	r.samples = append(r.samples, Sample{Name: name, At: at, Value: r.counters[name]})
	r.samples = trimSamples(r.samples, r.maxSamples)
	r.mu.Unlock()
}

// Gauge records an instantaneous sample of the named series without
// accumulation.
func (r *Recorder) Gauge(name string, v float64) {
	if r == nil {
		return
	}
	at := r.now()
	r.mu.Lock()
	r.counters[name] = v
	r.samples = append(r.samples, Sample{Name: name, At: at, Value: v})
	r.samples = trimSamples(r.samples, r.maxSamples)
	r.mu.Unlock()
}

// CounterValue returns the current value of a counter or gauge.
func (r *Recorder) CounterValue(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Counters returns a copy of all counter/gauge final values.
func (r *Recorder) Counters() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Spans returns a copy of all finished spans in end order.
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanRecord(nil), r.spans...)
}

// Samples returns a copy of all counter/gauge samples in record order.
func (r *Recorder) Samples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Sample(nil), r.samples...)
}

// Emit injects an externally timed complete event (see Complete).
func (r *Recorder) Emit(ev Complete) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.extras = append(r.extras, ev)
	r.mu.Unlock()
}

// StartSpan opens a root span on the main lane.
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	r.openSpan(name)
	return &Span{rec: r, name: name, start: r.now()}
}

// openSpan registers an in-flight span name for the retention trimmer.
func (r *Recorder) openSpan(name string) {
	r.mu.Lock()
	if r.open == nil {
		r.open = make(map[string]int)
	}
	r.open[name]++
	r.mu.Unlock()
}

// Span is an in-flight interval. Obtain one from Recorder.StartSpan or
// Span.Child/ChildLane; finish it with End. A nil *Span is a valid
// no-op, so instrumented code never branches on whether recording is on.
type Span struct {
	rec    *Recorder
	name   string
	parent string
	lane   int32
	start  time.Duration
	attrs  []Attr
}

// Child opens a sub-span on the same lane (sequential nesting).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.rec.openSpan(name)
	return &Span{rec: s.rec, name: name, parent: s.name, lane: s.lane, start: s.rec.now()}
}

// ChildLane opens a sub-span on a fresh lane; use it for work running
// concurrently with the parent (e.g. parallel sub-demand solves), so the
// trace renders overlapping intervals on separate rows.
func (s *Span) ChildLane(name string) *Span {
	if s == nil {
		return nil
	}
	lane := atomic.AddInt32(&s.rec.nextLane, 1)
	s.rec.openSpan(name)
	return &Span{rec: s.rec, name: name, parent: s.name, lane: lane, start: s.rec.now()}
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Int(key, v))
}

// SetFloat annotates the span with a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Float(key, v))
}

// SetStr annotates the span with a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Str(key, v))
}

// Count forwards to the owning recorder's counter (nil-safe shorthand
// for instrumented code that only holds a span).
func (s *Span) Count(name string, delta float64) {
	if s == nil {
		return
	}
	s.rec.Count(name, delta)
}

// End closes the span and records it.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	rec := SpanRecord{Name: s.name, Parent: s.parent, Lane: s.lane, Start: s.start, End: r.now(), Attrs: s.attrs}
	if rec.End < rec.Start {
		rec.End = rec.Start
	}
	r.mu.Lock()
	if r.open[s.name] > 1 {
		r.open[s.name]--
	} else {
		delete(r.open, s.name)
	}
	r.spans = append(r.spans, rec)
	r.trimSpansLocked()
	r.mu.Unlock()
}

// Merge imports another recorder's finished history into r: spans and
// samples are re-based onto r's clock, counter totals are added, and
// injected events are appended. The serving layer records each request's
// synthesis on a short-lived per-flight recorder (so every request owns
// an isolated span tree) and merges it into the daemon-lifetime recorder
// afterwards, keeping GET /tracez a whole-process view.
//
// Merged spans are assigned fresh lanes so concurrent flights render on
// distinct rows instead of interleaving. Every merged series is treated
// as cumulative: sample values are offset by r's current total for that
// series, which keeps counter timelines monotone (per-flight recorders
// carry only pipeline counters, never gauges).
func (r *Recorder) Merge(from *Recorder) {
	if r == nil || from == nil || r == from {
		return
	}
	shift := from.epoch.Sub(r.epoch)
	from.mu.Lock()
	spans := append([]SpanRecord(nil), from.spans...)
	samples := append([]Sample(nil), from.samples...)
	counters := make(map[string]float64, len(from.counters))
	for k, v := range from.counters {
		counters[k] = v
	}
	extras := append([]Complete(nil), from.extras...)
	from.mu.Unlock()

	var maxLane int32 = -1
	for i := range spans {
		if spans[i].Lane > maxLane {
			maxLane = spans[i].Lane
		}
	}
	var laneBase int32
	if maxLane >= 0 {
		laneBase = atomic.AddInt32(&r.nextLane, maxLane+1) - maxLane
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	base := make(map[string]float64, len(counters))
	for k := range counters {
		base[k] = r.counters[k]
	}
	for _, s := range spans {
		s.Start += shift
		s.End += shift
		s.Lane += laneBase
		r.spans = append(r.spans, s)
	}
	r.trimSpansLocked()
	for _, sm := range samples {
		sm.At += shift
		sm.Value += base[sm.Name]
		r.samples = append(r.samples, sm)
	}
	r.samples = trimSamples(r.samples, r.maxSamples)
	for k, v := range counters {
		r.counters[k] += v
	}
	r.extras = append(r.extras, extras...)
}
