package core

import (
	"encoding/json"
	"os"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/nccl"
	"syccl/internal/sim"
	"syccl/internal/topology"
)

const qualityFile = "testdata/quality.json"

// qualityEntry pins one cold Synthesize's quality: NCCL's simulated time
// over SyCCL's (nil when NCCL has no schedule for the collective) and the
// pipeline stage the winner came from.
type qualityEntry struct {
	NCCLRatio *float64 `json:"nccl_ratio"`
	Source    string   `json:"source"`
}

// ncclRatio is NCCL's time over the result's, both simulated under opts;
// ok is false when NCCL has no schedule for the collective.
func ncclRatio(t testing.TB, top *topology.Topology, col *collective.Collective, res *Result, opts sim.Options) (float64, bool) {
	t.Helper()
	_, base, err := nccl.Schedule(top, col, opts)
	if err != nil {
		return 0, false
	}
	r, err := sim.Simulate(top, res.Schedule, opts)
	if err != nil {
		t.Fatal(err)
	}
	return base / r.Time, true
}

func qualityOf(t testing.TB, spec string) qualityEntry {
	top, col := digestCase(t, spec)
	res, err := Synthesize(top, col, Options{Workers: 2})
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	e := qualityEntry{Source: "direct"}
	if res.Recipe != nil {
		e.Source = res.Recipe.Source
	}
	if r, ok := ncclRatio(t, top, col, res, sim.DefaultOptions()); ok {
		e.NCCLRatio = &r
	}
	return e
}

// TestQualityPinned holds every cold-digest spec's ratio against NCCL to
// testdata/quality.json: a change that lowers any ratio fails, and one
// that raises some regenerates the file
// (go test ./internal/core -run TestQualityPinned -update).
func TestQualityPinned(t *testing.T) {
	specs := coldDigestSpecs()
	if *updateDigests {
		table := map[string]qualityEntry{}
		for _, spec := range specs {
			table[spec] = qualityOf(t, spec)
		}
		raw, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(qualityFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(table), qualityFile)
	}
	raw, err := os.ReadFile(qualityFile)
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]qualityEntry{}
	if err := json.Unmarshal(raw, &table); err != nil {
		t.Fatalf("%s: %v", qualityFile, err)
	}
	if testing.Short() {
		specs = specs[:36] // dgx4 and server8
	}
	for _, spec := range specs {
		want, ok := table[spec]
		if !ok {
			t.Errorf("%s: not in %s", spec, qualityFile)
			continue
		}
		got := qualityOf(t, spec)
		switch {
		case (got.NCCLRatio == nil) != (want.NCCLRatio == nil):
			t.Errorf("%s: NCCL baseline presence changed: got %v, pinned %v", spec, got.NCCLRatio != nil, want.NCCLRatio != nil)
		case got.NCCLRatio != nil && *got.NCCLRatio < *want.NCCLRatio*(1-1e-12):
			t.Errorf("%s: ratio vs NCCL dropped: %.6f, pinned %.6f", spec, *got.NCCLRatio, *want.NCCLRatio)
		}
		if testing.Verbose() && got.NCCLRatio != nil {
			t.Logf("%-26s %.3f %s", spec, *got.NCCLRatio, got.Source)
		}
	}
}
