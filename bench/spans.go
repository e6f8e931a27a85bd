package main

import (
	"sort"
	"time"

	"syccl/internal/obs"
)

// spanStat aggregates the spans of one name.
type spanStat struct {
	name  string
	count int
	total time.Duration
	// self is the time no child covers: duration minus the union of the
	// children's intervals, clipped to the span.
	self time.Duration
}

// selfTimes computes, per span name, count, total and self time.
//
// obs records a span's parent by name, not by id, so the tree is rebuilt
// from names and intervals: a span's parent is the innermost span of the
// declared name that is open when it starts. A span declared as a root,
// or whose declared parent is nowhere open (an orphan — the parent was
// trimmed or never ended), adopts the innermost span that encloses it in
// time; this is how the program's root spans (synthesize, sim.simulate,
// http.synthesize) land under the benchmark's bench.op / bench.http.
// With parallel lanes the adoption can pick a sibling lane's span, so
// self times are exact on one lane and approximate across lanes; totals
// are always exact.
func selfTimes(spans []obs.SpanRecord) []spanStat {
	n := len(spans)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Parents before children: earlier start first, longer span first.
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := spans[idx[a]], spans[idx[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	children := make([][]int, n)
	var open []int // started, possibly unfinished, in start order
	for _, i := range idx {
		s := spans[i]
		live := open[:0]
		for _, j := range open {
			if spans[j].End > s.Start {
				live = append(live, j)
			}
		}
		open = live
		parent := -1
		if s.Parent != "" {
			for k := len(open) - 1; k >= 0; k-- {
				if spans[open[k]].Name == s.Parent {
					parent = open[k]
					break
				}
			}
		}
		if parent < 0 {
			for k := len(open) - 1; k >= 0; k-- {
				if spans[open[k]].End >= s.End {
					parent = open[k]
					break
				}
			}
		}
		if parent >= 0 {
			children[parent] = append(children[parent], i)
		}
		open = append(open, i)
	}

	byName := map[string]*spanStat{}
	for i, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			byName[s.Name] = st
		}
		dur := s.End - s.Start
		st.count++
		st.total += dur
		st.self += dur - covered(spans, s, children[i])
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].total > out[b].total })
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's. Children arrive in start order.
func covered(spans []obs.SpanRecord, parent obs.SpanRecord, kids []int) time.Duration {
	var sum time.Duration
	at := parent.Start // everything before `at` is already counted
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < at {
			lo = at
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

// window keeps the spans that lie inside [from, to].
func window(spans []obs.SpanRecord, from, to time.Duration) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, s := range spans {
		if s.Start >= from && s.End <= to {
			out = append(out, s)
		}
	}
	return out
}
