package verify

import (
	"math/rand"
	"testing"
	"time"

	"syccl/internal/collective"
	"syccl/internal/nccl"
	"syccl/internal/sim"
	"syccl/internal/teccl"
)

// checkBaselines draws a random fabric and a random collective of kind
// from seed and holds NCCL's schedule and TECCL's deterministic 1 ns round
// to the chunk oracle. NCCL builds where its fixed algorithms fit the
// fabric; TECCL runs every kind but the all-to-one ones it does not model.
// It reports which of the two it checked.
func checkBaselines(t *testing.T, seed int64, kind collective.Kind) (ncclChecked, tecclChecked bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	top := RandomTopology(rng)
	col := RandomCollective(rng, kind, top.NumGPUs())
	if s, _, err := nccl.Schedule(top, col, sim.DefaultOptions()); err == nil {
		if err := CheckSchedule(col, s); err != nil {
			t.Errorf("seed %d, %s on %s: NCCL schedule fails the oracle: %v", seed, col, top.Name, err)
		}
		ncclChecked = true
	}
	if kind == collective.KindReduce || kind == collective.KindGather {
		return ncclChecked, false
	}
	res, err := teccl.Synthesize(top, col, teccl.Options{TimeBudget: time.Nanosecond})
	if err != nil {
		t.Errorf("seed %d, %s on %s: TECCL: %v", seed, col, top.Name, err)
		return ncclChecked, false
	}
	if err := CheckSchedule(col, res.Schedule); err != nil {
		t.Errorf("seed %d, %s on %s: TECCL schedule fails the oracle: %v", seed, col, top.Name, err)
	}
	return ncclChecked, true
}

// TestBaselinesPassOracle holds both baselines to the oracle off the
// preset fabrics: random fabrics × the nine collectives.
func TestBaselinesPassOracle(t *testing.T) {
	var ncclN, tecclN int
	for seed := int64(0); seed < 100; seed++ {
		for _, kind := range AllKinds {
			n, tc := checkBaselines(t, seed, kind)
			if n {
				ncclN++
			}
			if tc {
				tecclN++
			}
		}
	}
	t.Logf("checked %d NCCL and %d TECCL schedules", ncclN, tecclN)
	if ncclN == 0 || tecclN == 0 {
		t.Errorf("checked %d NCCL and %d TECCL schedules, want both", ncclN, tecclN)
	}
}

// FuzzBaselineOracle is TestBaselinesPassOracle over fuzzed seeds.
func FuzzBaselineOracle(f *testing.F) {
	for _, kind := range AllKinds {
		f.Add(int64(kind), uint8(kind))
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8) {
		checkBaselines(t, seed, AllKinds[int(kind)%len(AllKinds)])
	})
}
