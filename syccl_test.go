package syccl

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestQuickstartFlow exercises the documented public API end to end.
func TestQuickstartFlow(t *testing.T) {
	top := H800Small(2)
	col := AllGather(top.NumGPUs(), 1<<20)
	res, err := Synthesize(top, col, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(col); err != nil {
		t.Fatal(err)
	}
	bus := BusBandwidth(col, res.Time)
	if bus <= 0 {
		t.Fatalf("busbw = %g", bus)
	}

	// XML round trip through the public API.
	data, err := ToXML(res.Schedule, RuntimeParams{Name: "quickstart"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "quickstart") {
		t.Error("XML missing name")
	}
	parsed, params, err := FromXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if params.Name != "quickstart" {
		t.Errorf("params = %+v", params)
	}
	if err := parsed.Validate(col); err != nil {
		t.Fatalf("parsed schedule invalid: %v", err)
	}

	// Re-simulate the parsed schedule.
	r, err := Simulate(top, parsed, DefaultSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Time <= 0 {
		t.Error("simulated time missing")
	}
}

func TestTopologyConstructors(t *testing.T) {
	if SingleServer(8).NumGPUs() != 8 {
		t.Error("SingleServer")
	}
	if A100Clos(2).NumGPUs() != 16 {
		t.Error("A100Clos")
	}
	if H800Rail(8).NumGPUs() != 64 {
		t.Error("H800Rail")
	}
	custom := BuildTopology(TopologyConfig{
		Name: "custom", Servers: 3, GPUsPerServer: 2,
		NVAlpha: 1e-6, NVBeta: 1e-11, NetAlpha: 1e-5, NetBeta: 1e-10,
	})
	if custom.NumGPUs() != 6 || custom.NumDims() != 2 {
		t.Errorf("custom topology: %v", custom)
	}
}

func TestCollectiveConstructors(t *testing.T) {
	for _, col := range []*Collective{
		SendRecv(8, 0, 1, 10), Broadcast(8, 0, 10), Scatter(8, 0, 10),
		Gather(8, 0, 10), Reduce(8, 0, 10), AllGather(8, 10),
		AlltoAll(8, 10), ReduceScatter(8, 10), AllReduce(8, 80),
	} {
		if err := col.Validate(); err != nil {
			t.Errorf("%v: %v", col.Kind, err)
		}
	}
}

// TestUnsupportedCollective: the public entry points refuse what no
// constructor builds with ErrUnsupportedCollective — a non-finite size,
// and an AllReduce the caller split into 2n chunks of half the bytes,
// which would otherwise come back as an AllReduce of half the data.
func TestUnsupportedCollective(t *testing.T) {
	top := SingleServer(4)
	split := AllReduce(4, 1<<20)
	split.ChunkSize /= 2
	for _, ch := range AllGather(4, 1).Chunks {
		ch.ID = len(split.Chunks)
		split.Chunks = append(split.Chunks, ch)
	}
	noDst := SendRecv(4, 0, 1, 1<<20)
	noDst.Chunks[0].Dsts = nil
	eng := NewEngine(EngineOptions{})
	for name, col := range map[string]*Collective{
		"NaN size":               AllGather(4, math.NaN()),
		"+Inf size":              Broadcast(4, 0, math.Inf(1)),
		"caller-split AllReduce": split,
		"SendRecv to nobody":     noDst, // keyed by Plan before the door
	} {
		if _, err := Synthesize(top, col, Options{}); !errors.Is(err, ErrUnsupportedCollective) {
			t.Errorf("%s: Synthesize = %v, want ErrUnsupportedCollective", name, err)
		}
		if _, err := eng.Plan(context.Background(), top, col, Options{}); !errors.Is(err, ErrUnsupportedCollective) {
			t.Errorf("%s: Plan = %v, want ErrUnsupportedCollective", name, err)
		}
	}
}
