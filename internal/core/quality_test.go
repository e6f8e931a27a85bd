package core

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/nccl"
	"syccl/internal/sim"
	"syccl/internal/topology"
)

const qualityFile = "testdata/quality.json"

// qualityEntry pins one cold Synthesize's quality: NCCL's simulated time
// over SyCCL's (nil when NCCL has no schedule for the collective), the
// result's time over its flow lower bound Result.Bound (nil when no bound
// was computed), and the pipeline stage the winner came from. The bound
// is the forward schedule's, so an AllReduce's gap also counts its
// ReduceScatter phase.
type qualityEntry struct {
	NCCLRatio *float64 `json:"nccl_ratio"`
	Gap       *float64 `json:"gap"`
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
	if res.Bound > 0 {
		g := res.Time / res.Bound
		e.Gap = &g
	}
	return e
}

// TestQualityPinned holds every cold-digest spec's ratio against NCCL and
// gap to its bound to testdata/quality.json: a change that lowers any
// ratio or widens any gap fails, and one that improves some regenerates
// the file (go test ./internal/core -run TestQualityPinned -update).
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
		switch {
		case (got.Gap == nil) != (want.Gap == nil):
			t.Errorf("%s: bound presence changed: got %v, pinned %v", spec, got.Gap != nil, want.Gap != nil)
		case got.Gap != nil && *got.Gap > *want.Gap*(1+1e-12):
			t.Errorf("%s: gap to the bound grew: %.6f, pinned %.6f", spec, *got.Gap, *want.Gap)
		}
		if testing.Verbose() {
			t.Logf("%-26s ratio %s gap %s %s", spec, fmtRatio(got.NCCLRatio), fmtRatio(got.Gap), got.Source)
		}
	}
}

// fmtRatio prints a pinned ratio to three places, "-" for null.
func fmtRatio(r *float64) string {
	if r == nil {
		return "-"
	}
	return strconv.FormatFloat(*r, 'f', 3, 64)
}
