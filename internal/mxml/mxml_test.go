package mxml

import (
	"strings"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/nccl"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/topology"
)

func TestRoundTripRing(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.AllGather(16, 1<<20)
	s, err := nccl.AllGather(top, col)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(s, Params{Name: "ring-ag", NChannels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<algo") || !strings.Contains(string(data), "ring-ag") {
		t.Error("XML missing expected elements")
	}
	parsed, params, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if params.Name != "ring-ag" || params.NChannels != 2 || params.Proto != "Simple" {
		t.Errorf("params = %+v", params)
	}
	// Parsed schedule must still satisfy the collective.
	if err := parsed.Validate(col); err != nil {
		t.Fatalf("round-tripped schedule invalid: %v", err)
	}
	if len(parsed.Transfers) != len(s.Transfers) {
		t.Errorf("transfers %d → %d", len(s.Transfers), len(parsed.Transfers))
	}
	// Simulated performance of the round-tripped schedule matches the
	// original (same options).
	r1, err := sim.Simulate(top, s, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Simulate(top, parsed, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ratio := r2.Time / r1.Time
	if ratio < 0.99 || ratio > 1.01 {
		t.Errorf("round trip changed simulated time: %g vs %g", r2.Time, r1.Time)
	}
}

func TestRoundTripReduction(t *testing.T) {
	// Mirrored schedules carry multi-dependency reduction steps; the XML
	// must preserve them.
	top := topology.A100Clos(2)
	col := collective.ReduceScatter(16, 1<<20)
	s, _, err := nccl.Schedule(top, col, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(s, Params{Name: "ring-rs"})
	if err != nil {
		t.Fatal(err)
	}
	parsed, _, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := parsed.Validate(col); err != nil {
		t.Fatalf("round-tripped reduction invalid: %v", err)
	}
}

func TestExecute(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(8, 1<<20)
	s, err := nccl.AllGather(top, col)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(s, Params{Name: "exec", NChannels: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(data, func(sch *schedule.Schedule, o sim.Options) (*sim.Result, error) {
		return sim.Simulate(top, sch, o)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Errorf("executed time %g", res.Time)
	}
}

func TestSimOptionsFromParams(t *testing.T) {
	o := SimOptions(Params{NChannels: 4})
	if o.MaxBlocks != 32 {
		t.Errorf("MaxBlocks = %d", o.MaxBlocks)
	}
	ll := SimOptions(Params{Proto: "LL128", NChannels: 1})
	if ll.BlockBytes != 128*1024 {
		t.Errorf("LL128 BlockBytes = %g", ll.BlockBytes)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, _, err := Parse([]byte("<algo><gpu")); err == nil {
		t.Error("accepted malformed XML")
	}
	bad := `<algo ngpus="2"><gpu id="0"><tb id="0" peer="1" dim="0"><step s="0" piece="0" order="0" deps="9.9.9"/></tb></gpu></algo>`
	if _, _, err := Parse([]byte(bad)); err == nil {
		t.Error("accepted dangling dependency")
	}
}

// TestParsedMissingPieceIsASimError: Parse does not range-check piece=,
// so a step naming a piece the file never declares reaches the simulator,
// which must reject it rather than index past the pieces.
func TestParsedMissingPieceIsASimError(t *testing.T) {
	top := topology.SingleServer(2)
	bad := `<algo ngpus="2"><piece id="0" bytes="1024" chunks="0"/><gpu id="0"><tb id="0" peer="1" dim="0"><step s="0" piece="5" order="0" seq="0"/></tb></gpu></algo>`
	s, _, err := Parse([]byte(bad))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Simulate(top, s, sim.DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "transfer 0 references missing piece 5") {
		t.Fatalf("err = %v, want the missing-piece error", err)
	}
}
