package solve

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// greedyGuidedReference is the list scheduler as it was before it became
// incremental, kept verbatim: every committed send re-derives the
// earliest start of every (piece, needy destination, holder) triple from
// scratch. greedySolve must reproduce its nil-rng, nil-weights arm
// transfer for transfer.
func greedyGuidedReference(d *Demand, tau float64, rng *rand.Rand, weights [][]int) *SubSchedule {
	n := d.NumGPUs
	// avail[p][g]: epoch at which g can forward piece p; -1 = never (yet).
	avail := make([][]int, len(d.Pieces))
	needed := make([][]bool, len(d.Pieces))
	remaining := 0
	for pi, p := range d.Pieces {
		avail[pi] = make([]int, n)
		for g := range avail[pi] {
			avail[pi][g] = -1
		}
		for _, s := range p.Srcs {
			avail[pi][s] = 0
		}
		needed[pi] = make([]bool, n)
		for _, t := range p.Dsts {
			if !needed[pi][t] {
				needed[pi][t] = true
				remaining++
			}
		}
	}

	// Port reservations: for each GPU and direction, busy [start, end)
	// intervals in epochs. Group sub-demands are small, so linear scans
	// are fine.
	type interval struct{ start, end int }
	egress := make([][]interval, n)
	ingress := make([][]interval, n)

	earliestFree := func(busy []interval, from, span int) int {
		t := from
		for {
			ok := true
			for _, iv := range busy {
				if t < iv.end && t+span > iv.start {
					t = iv.end
					ok = false
					break
				}
			}
			if ok {
				return t
			}
		}
	}
	reserve := func(busy *[]interval, start, span int) {
		*busy = append(*busy, interval{start, start + span})
		sort.Slice(*busy, func(a, b int) bool { return (*busy)[a].start < (*busy)[b].start })
	}

	out := &SubSchedule{Tau: tau, Engine: "greedy"}

	type cand struct {
		piece, src, dst int
		start, arrive   int
	}

	// less orders candidates by earliest arrival, then (when flow weights
	// are present) by descending fractional outflow at the source, then
	// by ring offset (dst−src mod n): the offset bias makes symmetric
	// demands such as AllGather fall into rotation patterns that keep
	// every port busy instead of piling deliveries onto few ingresses.
	less := func(a, b cand, n int) bool {
		if a.arrive != b.arrive {
			return a.arrive < b.arrive
		}
		if weights != nil {
			aw, bw := weights[a.piece][a.src], weights[b.piece][b.src]
			if aw != bw {
				return aw > bw
			}
		}
		ao := ((a.dst-a.src)%n + n) % n
		bo := ((b.dst-b.src)%n + n) % n
		if ao != bo {
			return ao < bo
		}
		if a.piece != b.piece {
			return a.piece < b.piece
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	}

	for remaining > 0 {
		found := false
		var best cand
		var nearBest []cand
		for pi, p := range d.Pieces {
			ep := paramsFor(d, tau, p.Bytes)
			for dst := 0; dst < n; dst++ {
				if !needed[pi][dst] {
					continue
				}
				for src := 0; src < n; src++ {
					if avail[pi][src] < 0 || src == dst {
						continue
					}
					// Earliest epoch where both ports are free for span.
					start := avail[pi][src]
					for {
						s1 := earliestFree(egress[src], start, ep.span)
						s2 := earliestFree(ingress[dst], s1, ep.span)
						if s1 == s2 {
							start = s1
							break
						}
						start = s2
					}
					c := cand{pi, src, dst, start, start + ep.lat}
					if !found || less(c, best, n) {
						found = true
						best = c
					}
					if rng != nil {
						nearBest = append(nearBest, c)
					}
				}
			}
		}
		choice := best
		if rng != nil {
			// Pick uniformly among candidates arriving within one epoch
			// of the best.
			k := 0
			for _, c := range nearBest {
				if c.arrive <= best.arrive+1 {
					nearBest[k] = c
					k++
				}
			}
			choice = nearBest[rng.Intn(k)]
		}
		p := d.Pieces[choice.piece]
		ep := paramsFor(d, tau, p.Bytes)
		reserve(&egress[choice.src], choice.start, ep.span)
		reserve(&ingress[choice.dst], choice.start, ep.span)
		avail[choice.piece][choice.dst] = choice.arrive
		needed[choice.piece][choice.dst] = false
		remaining--
		out.Transfers = append(out.Transfers, Transfer{
			Src: choice.src, Dst: choice.dst, Piece: choice.piece,
			Start: choice.start, Arrive: choice.arrive,
		})
		if choice.arrive > out.Epochs {
			out.Epochs = choice.arrive
		}
	}
	sort.SliceStable(out.Transfers, func(a, b int) bool { return out.Transfers[a].Start < out.Transfers[b].Start })
	return out
}

// schedulerDemand draws a demand for the equivalence suite: up to 8
// GPUs and 6 pieces, latency up to three spans, multi-source pieces,
// pieces nobody needs, unsorted source and destination lists.
func schedulerDemand(rng *rand.Rand) *Demand {
	n := 2 + rng.Intn(7)
	d := &Demand{NumGPUs: n, Alpha: float64(rng.Intn(4)) * 1024e-9, Beta: 1e-9}
	for pi, pieces := 0, 1+rng.Intn(6); pi < pieces; pi++ {
		p := Piece{ID: pi, Bytes: float64(1+rng.Intn(3)) * 1024}
		perm := rng.Perm(n)
		srcs := 1 + rng.Intn(n-1)
		p.Srcs = append(p.Srcs, perm[:srcs]...)
		for _, g := range perm[srcs:] {
			if rng.Intn(4) > 0 {
				p.Dsts = append(p.Dsts, g)
			}
		}
		d.Pieces = append(d.Pieces, p)
	}
	return d
}

// checkGreedyEquivalence holds greedySolve to the reference's
// deterministic arm (no rng, no weights) on one demand drawn from seed:
// same transfers in the same order, same makespan.
func checkGreedyEquivalence(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := schedulerDemand(rng)
	if err := d.Validate(); err != nil {
		t.Fatalf("generator produced an invalid demand: %v", err)
	}
	tau := d.Beta * 1024 / float64(1+rng.Intn(2))
	want := greedyGuidedReference(d, tau, nil, nil)
	if got := greedySolve(d, tau); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: schedules differ\n got %+v\nwant %+v\ndemand %+v", seed, got, want, d)
	}
}

func TestGreedyEquivalence(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		checkGreedyEquivalence(t, seed)
	}
	// The shapes the pipeline feeds it: full broadcasts and AllGathers.
	for n := 2; n <= 12; n++ {
		for _, d := range []*Demand{broadcastDemand(n), allGatherDemand(n)} {
			d.Alpha = 1.5
			for _, tau := range []float64{1, 0.5} {
				want := greedyGuidedReference(d, tau, nil, nil)
				if got := greedySolve(d, tau); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d tau=%g: schedules differ\n got %+v\nwant %+v", n, tau, got, want)
				}
			}
		}
	}
}

// FuzzGreedyEquivalence is checkGreedyEquivalence over fuzzer-chosen
// seeds.
func FuzzGreedyEquivalence(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 1234, 99999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkGreedyEquivalence(t, seed) })
}
