package core

import (
	"testing"

	"syccl/internal/verify"
)

// scale512Options keeps the 512-GPU AllGather to seconds: two sketches'
// worth of candidates, one survivor refined.
func scale512Options() Options { return Options{MaxCombos: 2, R2: 1} }

// TestScale512: the paper's largest cluster (Table 5) synthesizes through
// the same pipeline — a handful of solver calls fanned out to hundreds of
// isomorphic cells — into an oracle-clean schedule with the pinned bytes.
func TestScale512(t *testing.T) {
	if testing.Short() {
		t.Skip("512-GPU synthesis takes seconds")
	}
	top, col := digestCase(t, scale512Spec)
	res := synth(t, top, col, scale512Options())
	if err := verify.CheckSchedule(col, res.Schedule); err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits < 200 || res.Stats.SolverCalls > 8 {
		t.Errorf("symmetry not exploited: %d isomorphism hits, %d solver calls", res.Stats.CacheHits, res.Stats.SolverCalls)
	}
	want, ok := loadColdDigests(t)[scale512Spec]
	if got := digestOf(res); !ok || got != want {
		t.Errorf("got %+v, pinned %+v (in the table: %v)", got, want, ok)
	}
}

// BenchmarkScale512 is the profiling handle for the 512-GPU case:
//
//	go test ./internal/core -run '^$' -bench Scale512 -benchtime 1x -cpuprofile cpu.out
func BenchmarkScale512(b *testing.B) {
	top, col := digestCase(b, scale512Spec)
	for b.Loop() {
		if _, err := Synthesize(top, col, scale512Options()); err != nil {
			b.Fatal(err)
		}
	}
}
