package core

import (
	"fmt"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/topology"
)

// scheduleFingerprint renders every transfer so two schedules can be
// compared byte-for-byte, not just by predicted time.
func scheduleFingerprint(res *Result) string {
	s := fmt.Sprintf("time=%.12g epochs? n=%d\n", res.Time, res.Schedule.NumGPUs)
	for i, tr := range res.Schedule.Transfers {
		s += fmt.Sprintf("%d: %+v\n", i, tr)
	}
	return s
}

// TestSynthesizeDeterministicAcrossWorkers: candidate realization fans
// out over Workers goroutines, but schedules, predicted times, and cache
// statistics must be identical for any worker count — the contract that
// makes parallel synthesis safe to enable by default. The reductions'
// finalists are also finished in parallel before they are ranked, each
// worker in its own buffers; AllReduce's finished times are not its
// forward times (nor one multiple of them: the ring's ratio differs), so
// the finished times decide its ranking.
func TestSynthesizeDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name string
		top  *topology.Topology
		mk   func(n int) *collective.Collective
	}{
		{"allgather", topology.H800Small(2), func(n int) *collective.Collective {
			return collective.AllGather(n, 1<<20)
		}},
		{"alltoall", topology.H800Small(2), func(n int) *collective.Collective {
			return collective.AlltoAll(n, 1<<18)
		}},
		{"broadcast", topology.A100Clos(2), func(n int) *collective.Collective {
			return collective.Broadcast(n, 0, 1<<20)
		}},
		{"reducescatter", topology.H800Small(2), func(n int) *collective.Collective {
			return collective.ReduceScatter(n, 1<<20)
		}},
		{"allreduce", topology.H800Small(2), func(n int) *collective.Collective {
			return collective.AllReduce(n, 1<<20)
		}},
		// Eight distinct flow-bound LPs fan out over the workers here
		// (TestBoundOncePerDistinctDemand counts them).
		{"allgather-24", topology.H800Small(6), func(n int) *collective.Collective {
			return collective.AllGather(n, float64(1<<20)/float64(n))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col := tc.mk(tc.top.NumGPUs())
			var refFP string
			var refStats Stats
			for _, workers := range []int{1, 2, 4, 8} {
				res := synth(t, tc.top, col, Options{Seed: 7, Workers: workers})
				fp := scheduleFingerprint(res)
				if refFP == "" {
					refFP, refStats = fp, res.Stats
					continue
				}
				if fp != refFP {
					t.Errorf("workers=%d: schedule differs from workers=1", workers)
				}
				if res.Stats.SolverCalls != refStats.SolverCalls ||
					res.Stats.CacheHits != refStats.CacheHits ||
					res.Stats.CacheMisses != refStats.CacheMisses ||
					res.Stats.BoundsComputed != refStats.BoundsComputed {
					t.Errorf("workers=%d: stats %+v, workers=1 gave %+v", workers, res.Stats, refStats)
				}
			}
		})
	}
}
