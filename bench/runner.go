package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"syccl/internal/core"
	"syccl/internal/obs"
	"syccl/internal/schedule"
)

// env is what a workload's set-up receives.
type env struct {
	// seed drives everything generated: round shuffles and serve_churn's
	// script. The program only ever sees the generated inputs.
	seed int64
	// rec is the recorder of a traced run, handed to the program through
	// its public Options.Obs fields; nil on the untraced run.
	rec *obs.Recorder
	// tmp is the directory temp dirs are created under.
	tmp string
	// smoke shrinks each workload to its two smallest cases.
	smoke bool
}

// sample is what one execution of one case reports.
type sample struct {
	// wall is the case's time: the call for synth/plan ops, the HTTP round
	// trip for serve ops, the time to the first NDJSON line for streams.
	wall time.Duration
	// simTime is the simulated α-β time of the schedule the op returned.
	simTime float64
	// digest identifies the result; every later round must repeat it.
	digest uint64
	// sched is the returned schedule when the op carried one; the oracle
	// replays it on first sight.
	sched *schedule.Schedule
	// phases and stats are what core.Result already returns (zero for
	// serve ops).
	phases core.Phases
	stats  core.Stats
	// bytes is the response body size (serve ops).
	bytes int
	// class groups serve ops for the per-class bests ("" elsewhere).
	class string
}

// workload is one named set of cases. A round executes every case once.
type workload interface {
	name() string
	// caseNames lists the cases; valid after setup.
	caseNames() []string
	// ordered reports that a round must run the cases in list order
	// (serve_churn's script); otherwise the order is shuffled per round.
	ordered() bool
	// manySamples reports that a run gives every case thousands of samples
	// (serve_hit). Such a case's fastest sample comes from the run's
	// quietest moment wherever that was, so it is held against the
	// yardstick's fastest sample of the run, not against the slowdown
	// around the op (A/A spread 2-3 % against 4-10 %).
	manySamples() bool
	// setup builds everything that precedes the first op, from scratch.
	setup(e *env) error
	// beginRound / endRound bracket each round.
	beginRound() error
	endRound() error
	// run executes case i once. op is the benchmark's span around the
	// call on a traced run, nil otherwise.
	run(i int, op *obs.Span) (sample, error)
	// check validates the first result of case i with the oracle; it
	// runs in the warm-up round only, outside the timed region.
	check(i int, s sample) error
	// fixtureOf returns the case's fixture for the quality metrics, nil
	// when the case does not count towards them.
	fixtureOf(i int) *fixture
	// counters snapshots the cumulative counters the layers already
	// return (engine.Stats, serve /statsz, persist.Stats), by metric name.
	counters() map[string]float64
	// probes runs the direct single-layer probes that apply to the
	// workload, on the fixtures and schedules it holds after a segment.
	probes(p *prober, tmp string) error
	// extras returns per-layer metrics only this workload can measure.
	extras() map[string]float64
	// audit fails the run (rs.fail) when a layer did not do the work the
	// workload was chosen for, e.g. a warm plan that missed the cache.
	audit(rs *runStats)
	// close releases everything setup and the rounds created.
	close()
}

// caseAgg accumulates one case over the timed rounds.
type caseAgg struct {
	name  string
	fx    *fixture
	walls []time.Duration
	// at[k] is when walls[k] started, on the run's speedLog clock.
	at   []time.Duration
	best sample // the sample of the fastest round
	ref  uint64 // digest of the oracle-checked first result
	seen bool
}

// runStats is everything one measured segment produced.
type runStats struct {
	cases  []*caseAgg
	rounds int
	// ops counts timed ops (the divisor of the per-op figures), warmOps
	// the warm-up round's; both count as attempted.
	ops      int
	warmOps  int
	failed   int
	failures []string
	elapsed  time.Duration

	mallocs, allocBytes uint64
	cpu                 time.Duration
	// stealPct is the share of the box's CPU time the host gave to someone
	// else over the timed region.
	stealPct      float64
	gcCycles      uint32
	gcPause       time.Duration
	heapInusePeak uint64
	// speed is the yardstick's log over the timed region: what the gated
	// timing is normalized by.
	speed         *speedLog
	manySamples   bool
	before, after map[string]float64
	// obsBefore/obsAfter snapshot the recorder's counters around the
	// timed region of a traced segment (nil untraced).
	obsBefore, obsAfter map[string]float64
}

func (rs *runStats) fail(format string, args ...interface{}) {
	rs.failed++
	if len(rs.failures) < 8 {
		rs.failures = append(rs.failures, fmt.Sprintf(format, args...))
	}
}

// allWalls returns every op time of the segment in milliseconds.
func (rs *runStats) allWalls() []float64 {
	var out []float64
	for _, c := range rs.cases {
		for _, w := range c.walls {
			out = append(out, ms(w))
		}
	}
	return out
}

// normBest is the case's gated figure in milliseconds: the minimum over
// rounds of wall time ÷ the box's slowdown when the op ran; on a
// manySamples workload the minimum wall time ÷ the run's least slowdown.
func (rs *runStats) normBest(c *caseAgg) float64 {
	if rs.manySamples {
		return ms(bestOf(c.walls)) / rs.speed.quietest()
	}
	best := 0.0
	for k, w := range c.walls {
		if x := ms(w) / rs.speed.slowdown(c.at[k]); k == 0 || x < best {
			best = x
		}
	}
	return best
}

// opMS is the gated timing: the geometric mean over the cases of each
// case's minimum speed-normalized time across rounds (yardstick.go).
func (rs *runStats) opMS() float64 {
	var xs []float64
	for _, c := range rs.cases {
		xs = append(xs, rs.normBest(c))
	}
	return geomean(xs)
}

// rawOpMS is opMS on plain wall time: what the box did to the figure.
func (rs *runStats) rawOpMS() float64 {
	var xs []float64
	for _, c := range rs.cases {
		xs = append(xs, ms(bestOf(c.walls)))
	}
	return geomean(xs)
}

// quality returns the geomean bus bandwidth over the cases that have a
// fixture and the minimum nccl÷syccl time ratio over those that have an
// NCCL baseline. Both are functions of simulated times only.
func (rs *runStats) quality() (busbw, vsNCCL float64) {
	var bw []float64
	for _, c := range rs.cases {
		if c.fx == nil || c.best.simTime <= 0 {
			continue
		}
		bw = append(bw, c.fx.busbwGBps(c.best.simTime))
		if c.fx.ncclTime > 0 {
			if r := c.fx.ncclTime / c.best.simTime; vsNCCL == 0 || r < vsNCCL {
				vsNCCL = r
			}
		}
	}
	return geomean(bw), vsNCCL
}

// setupYardSamples is how many yardstick samples bracket a set-up on
// each side.
const setupYardSamples = 2

// timedSetup runs the workload's set-up from scratch `times` times and
// returns the fastest, each divided by the box's slowdown as the
// yardstick read it right before and after; the last instance is left standing. A
// single set-up on this box swings with the neighbour's bursts, and
// set-up is paid once per process, so its floor is the honest figure.
func timedSetup(w workload, e *env, times int) (time.Duration, error) {
	var best time.Duration
	for k := 0; k < times; k++ {
		if k > 0 {
			w.close()
		}
		runtime.GC()
		log := newSpeedLog()
		log.sample(setupYardSamples)
		sp := e.rec.StartSpan("bench.setup")
		start := time.Now()
		err := w.setup(e)
		d := time.Since(start)
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		log.sample(setupYardSamples)
		d = time.Duration(float64(d) / (float64(medianDur(log.dur)) / float64(yardNominal)))
		if k == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// opSeq numbers ops across the process so every benchmark span of one
// op shares an id.
var opSeq int64

// runRound executes every case once. On the warm-up round results are
// oracle-checked and become the reference; on timed rounds they are
// compared against it and their times recorded.
func runRound(w workload, e *env, rs *runStats, order []int, warm bool) {
	if err := w.beginRound(); err != nil {
		rs.fail("%s: begin round: %v", w.name(), err)
		return
	}
	for _, i := range order {
		c := rs.cases[i]
		opSeq++
		op := e.rec.StartSpan("bench.op")
		op.SetInt("op", opSeq)
		op.SetStr("case", c.name)
		began := time.Now()
		s, err := w.run(i, op)
		op.End()
		if !warm && time.Since(rs.speed.last()) >= probeEvery {
			rs.speed.sample(1)
		}
		if warm {
			rs.warmOps++
		} else {
			rs.ops++
		}
		if err != nil {
			rs.fail("%s: %v", c.name, err)
			continue
		}
		if !c.seen {
			sp := e.rec.StartSpan("bench.oracle")
			sp.SetInt("op", opSeq)
			err := w.check(i, s)
			sp.End()
			if err != nil {
				rs.fail("%s: %v", c.name, err)
				continue
			}
			c.ref, c.seen = s.digest, true
		} else if s.digest != c.ref {
			rs.fail("%s: result digest %016x differs from the checked one %016x", c.name, s.digest, c.ref)
			continue
		}
		if warm {
			continue
		}
		if len(c.walls) == 0 || s.wall < c.best.wall {
			c.best = s
			c.best.sched = nil // keep no schedule alive across rounds
		}
		c.walls, c.at = append(c.walls, s.wall), append(c.at, rs.speed.since(began))
	}
	if err := w.endRound(); err != nil {
		rs.fail("%s: end round: %v", w.name(), err)
	}
}

// timedSpan names the benchmark's span around the timed region.
const timedSpan = "bench.timed"

// probeEvery is the cadence of the yardstick samples (between ops) and
// of the heap samples (between rounds); serve_hit's rounds are far
// shorter than that.
const probeEvery = 500 * time.Millisecond

// measure runs the warm-up round and then timed rounds for at least
// `seconds` (whole rounds, at least two, at most maxRounds when > 0),
// one client goroutine, closed loop. The warm-up round — heap growth,
// page faults, first-result oracle checks — belongs to neither setup_s
// nor the timings.
func measure(w workload, e *env, seconds float64, maxRounds int) *runStats {
	names := w.caseNames()
	rs := &runStats{manySamples: w.manySamples()}
	order := make([]int, len(names))
	for i, n := range names {
		rs.cases = append(rs.cases, &caseAgg{name: n, fx: w.fixtureOf(i)})
		order[i] = i
	}
	runRound(w, e, rs, order, true)

	rng := rand.New(rand.NewSource(e.seed))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	steal0, jiffies0 := hostSteal()
	rs.before = w.counters()
	rs.obsBefore = e.rec.Counters()
	rs.heapInusePeak = m0.HeapInuse
	// The marker span delimits the timed region in the trace: spans of
	// set-up and warm-up fall outside it.
	region := e.rec.StartSpan(timedSpan)
	rs.speed = newSpeedLog()
	rs.speed.sample(1)
	start := time.Now()
	lastProbe := start
	for {
		if !w.ordered() {
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		runRound(w, e, rs, order, false)
		rs.rounds++
		now := time.Now()
		if now.Sub(lastProbe) >= probeEvery {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if m.HeapInuse > rs.heapInusePeak {
				rs.heapInusePeak = m.HeapInuse
			}
			lastProbe = time.Now()
		}
		if maxRounds > 0 && rs.rounds >= maxRounds {
			break
		}
		if rs.rounds >= 2 && now.Sub(start).Seconds() >= seconds {
			break
		}
	}
	rs.elapsed = time.Since(start)
	rs.speed.sample(1)
	region.End()
	rs.after = w.counters()
	rs.obsAfter = e.rec.Counters()
	rs.cpu = cpuTime() - cpu0
	if steal1, jiffies1 := hostSteal(); jiffies1 > jiffies0 {
		rs.stealPct = 100 * float64(steal1-steal0) / float64(jiffies1-jiffies0)
	}
	runtime.ReadMemStats(&m1)
	rs.mallocs = m1.Mallocs - m0.Mallocs
	rs.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	rs.gcCycles = m1.NumGC - m0.NumGC
	rs.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	if m1.HeapInuse > rs.heapInusePeak {
		rs.heapInusePeak = m1.HeapInuse
	}
	w.audit(rs)
	return rs
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the box's cumulative stolen and total CPU time, in
// jiffies, from the first line of /proc/stat (zeros where there is none).
// Stolen time is the hypervisor running someone else on our CPUs: the one
// kind of slow box the guest can see directly.
func hostSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, _ := strconv.ParseUint(x, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// delta is the growth of one cumulative counter over the segment.
func (rs *runStats) delta(name string) float64 { return rs.after[name] - rs.before[name] }
