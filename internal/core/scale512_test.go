package core

import (
	"testing"

	"syccl/internal/verify"
)

// TestScale512: the paper's largest cluster (Table 5) synthesizes through
// the same pipeline, at the default options — a few solver calls per
// candidate fanned out to hundreds of isomorphic cells — into an
// oracle-clean schedule with the pinned bytes.
func TestScale512(t *testing.T) {
	if testing.Short() {
		t.Skip("512-GPU synthesis takes seconds")
	}
	top, col := digestCase(t, scale512Spec)
	res := synth(t, top, col, Options{})
	if err := verify.CheckSchedule(col, res.Schedule); err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Candidates == 0 || st.SolverCalls > 3*st.Candidates || st.CacheHits < 100*st.Candidates {
		t.Errorf("symmetry not exploited: %d candidates, %d isomorphism hits, %d solver calls", st.Candidates, st.CacheHits, st.SolverCalls)
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
		if _, err := Synthesize(top, col, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
