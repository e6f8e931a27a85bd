package schedule_test

import (
	"fmt"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/schedule"
	"syccl/internal/verify"
)

// forwardSchedule builds a relaying schedule of a one-to-all or
// all-to-all collective: every chunk travels a ring from its source, one
// hop after another, dropping off at each GPU that demands it.
func forwardSchedule(col *collective.Collective) *schedule.Schedule {
	n := col.NumGPUs
	s := &schedule.Schedule{NumGPUs: n}
	for _, ch := range col.Chunks {
		p := s.AddPiece(col.ChunkSize, ch.ID)
		hops := 0 // to the demanding GPU farthest along the ring
		for _, d := range ch.Dsts {
			hops = max(hops, (d-ch.Src+n)%n)
		}
		dep := -1
		for hop, src := 0, ch.Src; hop < hops; hop++ {
			t := schedule.Transfer{Src: src, Dst: (src + 1) % n, Piece: p, Order: hop}
			if dep >= 0 {
				t.Deps = []int{dep}
			}
			dep = s.AddTransfer(t)
			src = t.Dst
		}
	}
	return s
}

// TestMirrorIntoReductions: the time reverse of a valid forward schedule
// is a valid schedule of the all-to-one collective it is the inverse of,
// at every size and root.
func TestMirrorIntoReductions(t *testing.T) {
	for n := 2; n <= 8; n++ {
		cols := []*collective.Collective{collective.ReduceScatter(n, 1<<16)}
		for _, root := range []int{0, n - 1} {
			cols = append(cols, collective.Reduce(n, root, 1<<20), collective.Gather(n, root, 1<<16))
		}
		for _, col := range cols {
			t.Run(fmt.Sprintf("%v/n=%d/root=%d", col.Kind, n, col.Root), func(t *testing.T) {
				fwdCol, ok := col.Forward()
				if !ok {
					t.Fatalf("%v has no forward collective", col.Kind)
				}
				fwd := forwardSchedule(fwdCol)
				if err := verify.CheckSchedule(fwdCol, fwd); err != nil {
					t.Fatalf("forward %v: %v", fwdCol.Kind, err)
				}
				m := schedule.MirrorInto(fwd, fwdCol, col)
				if err := verify.CheckSchedule(col, m); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
