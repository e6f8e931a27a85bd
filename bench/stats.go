package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// bestOf returns the minimum of the samples (0 for none). Gated timings
// are minima: on this box medians of identical code moved 7-15 % between
// runs while minima stayed within 2.5-6 % (see README, "Noise").
func bestOf(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	best := xs[0]
	for _, x := range xs[1:] {
		if x < best {
			best = x
		}
	}
	return best
}

// geomean returns the geometric mean of the positive values; values ≤ 0
// are skipped (a case without the quantity), and no values gives 0.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// median returns the middle of the samples (mean of the two middles for
// an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianMS is the median of durations, in milliseconds.
func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// medianDur is the median of durations.
func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(medianMS(ds) * float64(time.Millisecond))
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75}

// tail applies the reporting rule for a latency tail: the highest
// percentile that still has at least ten samples beyond it. With fewer
// than 40 samples no percentile qualifies and the maximum is reported as
// the 100th.
func tail(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		// Index of the percentile under the nearest-rank rule; the samples
		// strictly beyond it are n-1-idx.
		idx := int(math.Ceil(p/100*float64(n)-1e-9)) - 1 // 99.9 % of 10000 is 9990, not 9990.000000000002
		if idx < 0 {
			idx = 0
		}
		if n-1-idx >= 10 {
			return p, s[idx]
		}
	}
	return 100, s[n-1]
}

// quartileSpread is the driver's steadiness statistic: the distance
// between the first and third quartile (exclusive method, as Python's
// statistics.quantiles(values, n=4)) as a share of the median.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
