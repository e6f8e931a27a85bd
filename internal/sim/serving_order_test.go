package sim

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"syccl/internal/schedule"
)

// FuzzServingOrder holds sortByOrder — the radix sort of packed (Order,
// index) keys, with its comparison fallback for Order spans of 2³² or
// more — to a comparison sort by (Order, index). The input is a list of
// Orders, one per transfer, each a signed byte times scale, so negative
// and duplicate Orders are the rule and a large scale spans 2³¹, 2³² or
// the whole int range. The scratch comes from the pool, dirtied first by
// a larger schedule and then filled with garbage, as a simulation that
// ran before would leave it.
func FuzzServingOrder(f *testing.F) {
	f.Add([]byte{}, int64(1), false)
	f.Add([]byte{7}, int64(1), true)
	f.Add([]byte{3, 3}, int64(1), false)
	f.Add([]byte{9, 0xfe}, int64(-1), true)
	f.Add([]byte{1, 0xff, 1, 0, 0x80, 0x7f, 1, 2, 2}, int64(3), true)
	f.Add([]byte{0, 1, 0, 1, 0xff}, int64(1)<<24, false)
	f.Add([]byte{0, 1, 0, 1, 0xff}, int64(1)<<31, true)
	f.Add([]byte{0, 2, 1, 0, 2}, int64(1)<<31, false)
	f.Add([]byte{0, 1, 0, 1, 0xff}, int64(1)<<32, true)
	f.Add([]byte{0x80, 0x7f, 0, 0x80}, int64(math.MaxInt64), false)
	big := make([]byte, 700)
	for i := range big {
		big[i] = byte(i * 37 >> 3)
	}
	f.Add(big, int64(5), true)
	f.Add(big, int64(1)<<29, false)
	f.Fuzz(func(t *testing.T, orders []byte, scale int64, dirty bool) {
		ts := make([]schedule.Transfer, len(orders))
		for i, b := range orders {
			ts[i].Order = int(int8(b)) * int(scale)
		}
		want := make([]int32, len(ts))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(ts[a].Order, ts[b].Order) })

		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		if dirty {
			larger := make([]schedule.Transfer, 2*len(ts)+33)
			for i := range larger {
				larger[i].Order = i * 7919 % 1000
			}
			sortByOrder(larger, sc)
			for _, buf := range [][]uint64{sc.keys[:cap(sc.keys)], sc.first[:cap(sc.first)]} {
				for i := range buf {
					buf[i] = math.MaxUint64 - uint64(i)
				}
			}
			seq := sc.seq[:cap(sc.seq)]
			for i := range seq {
				seq[i] = -1
			}
		}
		if got := sortByOrder(ts, sc); !slices.Equal(got, want) {
			t.Fatalf("orders %v: radix order %v, comparison order %v", orderList(ts), got, want)
		}
	})
}

func orderList(ts []schedule.Transfer) []int {
	out := make([]int, len(ts))
	for i := range ts {
		out[i] = ts[i].Order
	}
	return out
}
