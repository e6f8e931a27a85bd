package main

import (
	"encoding/binary"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The yardstick is a fixed, allocation-free kernel owned by the
// benchmark. The box this ledger runs on is a slice of a shared host
// whose speed moves by tens of percent for minutes at a time (README,
// "Noise"): a neighbour on the memory system slows everything that
// misses cache, one on the core slows everything else. No statistic
// inside a run escapes a state that covers the whole run, so the gated
// timings are not wall time but wall time divided by the box's slowdown
// at that moment, and the yardstick is how the slowdown is read: three parts,
// one per resource a neighbour takes away —
//
//   - stream: one touch per cache line of a 32 MiB buffer (memory bandwidth);
//   - chase: dependent loads around a random cycle through a 32 MiB table
//     (memory latency);
//   - issue: eight independent xorshift chains (the core's issue width,
//     which a busy hyper-thread sibling halves).
//
// Both tables are mmap'd, not allocated: on the Go heap they would be
// 64 MiB of ballast and change how often the program's GC runs.
const (
	yardBufBytes   = 32 << 20
	yardChainLen   = 8 << 20 // uint32 entries: 32 MiB
	yardChaseSteps = 40_000
	yardIssueIters = 400_000
)

// yardNominal is the yardstick's time on the quiet reference box. The
// slowdown is yardstick time ÷ yardNominal, so normalized times read as
// milliseconds on that box; the constant only sets the scale and is the
// same for parent and change.
const yardNominal = 16 * time.Millisecond

type yard struct {
	buf   []byte // stream
	chain []byte // chase: little-endian uint32 successor of each entry
}

var (
	yardOnce sync.Once
	theYard  *yard
	yardSink uint64
)

// yardstick returns the one yardstick of the process, built on first use
// (before anything is timed: main and the tests call it up front).
func yardstick() *yard {
	yardOnce.Do(func() {
		y := &yard{buf: mapAnon(yardBufBytes), chain: mapAnon(yardChainLen * 4)}
		for i := range y.buf {
			y.buf[i] = byte(i)
		}
		// Sattolo's shuffle of the identity: one cycle through every
		// entry, so the walk never falls into a short, cacheable loop.
		for i := 0; i < yardChainLen; i++ {
			binary.LittleEndian.PutUint32(y.chain[4*i:], uint32(i))
		}
		x := uint64(0x9E3779B97F4A7C15)
		for i := yardChainLen - 1; i > 0; i-- {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := int(x % uint64(i))
			a, b := y.chain[4*i:4*i+4], y.chain[4*j:4*j+4]
			va, vb := binary.LittleEndian.Uint32(a), binary.LittleEndian.Uint32(b)
			binary.LittleEndian.PutUint32(a, vb)
			binary.LittleEndian.PutUint32(b, va)
		}
		theYard = y
	})
	return theYard
}

func mapAnon(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("bench: yardstick: " + err.Error())
	}
	return b
}

// run executes the yardstick once and returns its wall time.
func (y *yard) run() time.Duration {
	start := time.Now()
	var s uint64
	for i := 0; i < len(y.buf); i += 8 {
		s += uint64(y.buf[i])
	}
	p := uint32(0)
	for i := 0; i < yardChaseSteps; i++ {
		p = binary.LittleEndian.Uint32(y.chain[4*p:])
	}
	var x [8]uint64
	for j := range x {
		x[j] = 88172645463325252 + uint64(j)*977
	}
	for i := 0; i < yardIssueIters; i++ {
		for j := range x {
			v := x[j]
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			x[j] = v
		}
	}
	yardSink = s + uint64(p) + x[0] ^ x[3] ^ x[7]
	return time.Since(start)
}

// speedWindow is how far around an op the yardstick samples that set its
// slowdown reach. The box's states last a minute and more; single samples
// swing by 10 %, a median over ±4 s does not.
const speedWindow = 4 * time.Second

// speedLog is the yardstick's samples over one run.
type speedLog struct {
	at  []time.Duration // since the log's origin, ascending
	dur []time.Duration
	// smooth[i] is the median of the samples within speedWindow of at[i];
	// filled by seal.
	smooth []time.Duration
	origin time.Time
}

func newSpeedLog() *speedLog { return &speedLog{origin: time.Now()} }

// sample runs the yardstick n times and logs each.
func (l *speedLog) sample(n int) {
	y := yardstick()
	for k := 0; k < n; k++ {
		at := time.Since(l.origin)
		l.at, l.dur = append(l.at, at), append(l.dur, y.run())
	}
	l.smooth = nil
}

// seal computes the smoothed series; sample invalidates it.
func (l *speedLog) seal() {
	l.smooth = make([]time.Duration, len(l.at))
	lo, hi := 0, 0
	var win []time.Duration
	for i, t := range l.at {
		for l.at[lo] < t-speedWindow {
			lo++
		}
		for hi < len(l.at) && l.at[hi] <= t+speedWindow {
			hi++
		}
		win = append(win[:0], l.dur[lo:hi]...)
		sort.Slice(win, func(a, b int) bool { return win[a] < win[b] })
		l.smooth[i] = (win[(len(win)-1)/2] + win[len(win)/2]) / 2
	}
}

// slowdown is how much slower than the quiet reference box the box ran
// around time t (since the origin): the smoothed yardstick time of the
// nearest sample over its nominal time. 1.3 is a box 30 % slower.
// Without samples it is 1.
func (l *speedLog) slowdown(t time.Duration) float64 {
	if len(l.at) == 0 {
		return 1
	}
	if l.smooth == nil {
		l.seal()
	}
	i := sort.Search(len(l.at), func(k int) bool { return l.at[k] >= t })
	if i == len(l.at) || (i > 0 && t-l.at[i-1] < l.at[i]-t) {
		i--
	}
	return float64(l.smooth[i]) / float64(yardNominal)
}

// quietest is the least slowdown the run saw: the fastest sample over the
// nominal time. Without samples it is 1.
func (l *speedLog) quietest() float64 {
	if len(l.dur) == 0 {
		return 1
	}
	return float64(bestOf(l.dur)) / float64(yardNominal)
}

// last is when the newest sample was taken (the origin before any).
func (l *speedLog) last() time.Time {
	if len(l.at) == 0 {
		return l.origin
	}
	return l.origin.Add(l.at[len(l.at)-1])
}

// since converts a wall-clock instant to the log's time base.
func (l *speedLog) since(t time.Time) time.Duration { return t.Sub(l.origin) }
