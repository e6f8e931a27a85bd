package core

import (
	"testing"

	"syccl/internal/schedule"
)

// depsRankEarlier reports whether every dependency precedes its
// dependent in (Order, index): then the simulator's serving order is one
// sort, with no heap.
func depsRankEarlier(s *schedule.Schedule) (ok bool, transfer, dep int) {
	for i, t := range s.Transfers {
		for _, d := range t.Deps {
			if o := s.Transfers[d].Order; o > t.Order || o == t.Order && d >= i {
				return false, i, d
			}
		}
	}
	return true, 0, 0
}

// TestAssembledSchedulesFollowOrder: on every pinned cold case, the
// winning schedule — for reductions the mirror, for AllReduce the
// concatenation — and every incumbent published on the way list each
// dependency ahead of its dependent in (Order, index), so the simulator
// ranks them without falling back to Kahn's algorithm. An assembly that
// stops numbering Orders that way fails here, not as a silent slowdown.
func TestAssembledSchedulesFollowOrder(t *testing.T) {
	specs := coldDigestSpecs()
	if !testing.Short() {
		specs = append(specs, scale512Spec)
	}
	for _, spec := range specs {
		top, col := digestCase(t, spec)
		opts := Options{Workers: 2}
		if spec == scale512Spec {
			opts = scale512Options()
		}
		var published []*schedule.Schedule
		opts.OnIncumbent = func(inc Incumbent) { published = append(published, inc.Schedule) }
		res := synth(t, top, col, opts)
		for k, s := range append(published, res.Schedule) {
			if ok, i, d := depsRankEarlier(s); !ok {
				t.Errorf("%s (schedule %d of %d): transfer %d (order %d) depends on %d (order %d), which ranks later",
					spec, k+1, len(published)+1, i, s.Transfers[i].Order, d, s.Transfers[d].Order)
			}
		}
	}
}
