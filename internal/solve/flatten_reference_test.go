package solve

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// flattenSolveReference is flattenSolve as it was, with its two
// comparison sorts: jobs by (ring offset, source, piece), transfers by
// Start, both stable.
func flattenSolveReference(d *Demand, tau float64) *SubSchedule {
	n := d.NumGPUs
	var jobs []job
	for pi, p := range d.Pieces {
		for k, dst := range p.Dsts {
			jobs = append(jobs, job{pi, p.Srcs[k%len(p.Srcs)], dst})
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool {
		ja, jb := jobs[a], jobs[b]
		if oa, ob := ((ja.dst-ja.src)%n+n)%n, ((jb.dst-jb.src)%n+n)%n; oa != ob {
			return oa < ob
		}
		return ja.src < jb.src || ja.src == jb.src && ja.piece < jb.piece
	})
	egress, ingress := make([]int, n), make([]int, n)
	out := &SubSchedule{Tau: tau, Engine: "flatten", Transfers: make([]Transfer, 0, len(jobs))}
	for _, j := range jobs {
		ep := paramsFor(d, tau, d.Pieces[j.piece].Bytes)
		start := max(egress[j.src], ingress[j.dst])
		egress[j.src], ingress[j.dst] = start+ep.span, start+ep.span
		out.Transfers = append(out.Transfers, Transfer{Src: j.src, Dst: j.dst, Piece: j.piece, Start: start, Arrive: start + ep.lat})
		out.Epochs = max(out.Epochs, start+ep.lat)
	}
	sort.SliceStable(out.Transfers, func(a, b int) bool { return out.Transfers[a].Start < out.Transfers[b].Start })
	return out
}

// flattenDemand draws a demand full of ties: up to 24 GPUs, pieces of
// one to three sizes with one to three sources (so one source serves
// several of a piece's destinations, at equal ring offsets across
// pieces) and copies of one piece, listed sources and destinations
// unsorted.
func flattenDemand(rng *rand.Rand) *Demand {
	n := 2 + rng.Intn(23)
	d := &Demand{NumGPUs: n, Alpha: float64(rng.Intn(4)) * 1024e-9, Beta: 1e-9}
	for pieces := 1 + rng.Intn(40); len(d.Pieces) < pieces; {
		perm := rng.Perm(n)
		srcs := 1 + rng.Intn(min(3, n-1))
		p := Piece{Bytes: float64(1+rng.Intn(3)) * 1024, Srcs: perm[:srcs]}
		for _, g := range perm[srcs:] {
			if rng.Intn(3) > 0 {
				p.Dsts = append(p.Dsts, g)
			}
		}
		for copies := rng.Intn(3); copies >= 0 && len(d.Pieces) < pieces; copies-- {
			p.ID = len(d.Pieces)
			d.Pieces = append(d.Pieces, p)
		}
	}
	return d
}

// TestFlattenMatchesReference holds flattenSolve's counting sorts to the
// comparison sorts they replaced, transfer for transfer, through the
// pool and through one scratch reused by demands of every size in turn.
func TestFlattenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shared := new(scratch)
	for i := 0; i < 600; i++ {
		d := flattenDemand(rng)
		tau := d.Beta * 1024 / float64(1+rng.Intn(2))
		want := flattenSolveReference(d, tau)
		if got := flattenSolve(d, tau); !reflect.DeepEqual(got, want) {
			t.Fatalf("draw %d: schedules differ\n got %+v\nwant %+v\ndemand %+v", i, got, want, d)
		}
		if got := shared.flatten(d, tau); !reflect.DeepEqual(got, want) {
			t.Fatalf("draw %d, shared scratch: schedules differ\n got %+v\nwant %+v\ndemand %+v", i, got, want, d)
		}
	}
}
