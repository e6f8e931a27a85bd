package teccl

import (
	"encoding/json"
	"hash/fnv"
	"strconv"
	"testing"
	"time"

	"syccl/internal/cli"
	"syccl/internal/collective"
	"syccl/internal/schedule"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// roundOneDigests pins TECCL's deterministic first round (a 1 ns budget
// stops it before any randomized round) byte for byte: the FNV-1a digest
// of each schedule's JSON encoding, keyed "fabric:collective:size" on the
// fabrics of core's cold-digest table, at the aggregate sizes
// cli.BuildCollective takes.
var roundOneDigests = map[string]string{
	"dgx4:allgather:1M":           "25ffec325a565cfd",
	"dgx4:reducescatter:1M":       "38e8f430ded88fa3",
	"dgx4:broadcast:1M":           "7e9e0148390ac25e",
	"dgx4:alltoall:1M":            "ac2dc3b90439dbd5",
	"dgx4:scatter:1M":             "fb7306d8ee4cf67",
	"dgx4:allgather:64M":          "6a1024228148250b",
	"dgx4:reducescatter:64M":      "31e26567fd3023c7",
	"dgx4:broadcast:64M":          "279b375f6734a77f",
	"dgx4:alltoall:64M":           "4b9aeac68232909b",
	"dgx4:scatter:64M":            "149fad9445a3a8e3",
	"server8:allgather:1M":        "adf77361a9a54875",
	"server8:reducescatter:1M":    "ed35daa5d1af9c95",
	"server8:broadcast:1M":        "b62915d1149ed74f",
	"server8:alltoall:1M":         "d242162049815f79",
	"server8:scatter:1M":          "feeb860d65a8b407",
	"server8:allgather:64M":       "cc19079b1b139317",
	"server8:reducescatter:64M":   "ec6197a10196828f",
	"server8:broadcast:64M":       "1c7fe99eb0b2787c",
	"server8:alltoall:64M":        "e06c23dbe05cd46f",
	"server8:scatter:64M":         "1fe96eebec06941f",
	"a100x16:allgather:1M":        "df3ae244143d67e6",
	"a100x16:reducescatter:1M":    "3a49a7cdc6f8d694",
	"a100x16:broadcast:1M":        "ae5533b1e3985975",
	"a100x16:alltoall:1M":         "c233d9272f86d59e",
	"a100x16:scatter:1M":          "d6f059d5da5fa713",
	"a100x16:allgather:64M":       "985708865c36831a",
	"a100x16:reducescatter:64M":   "1b69b3c12b3e1482",
	"a100x16:broadcast:64M":       "cbe696ec27fcb174",
	"a100x16:alltoall:64M":        "415914a4a9339f0c",
	"a100x16:scatter:64M":         "7866c9239f1c249e",
	"h800small:allgather:1M":      "2686a32135aaca49",
	"h800small:reducescatter:1M":  "ddc8bd63ef6bf44a",
	"h800small:broadcast:1M":      "c2eb3550c8dd8dbd",
	"h800small:alltoall:1M":       "7b576f177a6e89cd",
	"h800small:scatter:1M":        "5c03873ed041c189",
	"h800small:allgather:64M":     "1dd671b70ba888df",
	"h800small:reducescatter:64M": "2be8b635371c4a61",
	"h800small:broadcast:64M":     "372807b862470b75",
	"h800small:alltoall:64M":      "24bae0241ebd126e",
	"h800small:scatter:64M":       "59ebb7ac2960e636",
}

func scheduleDigest(t *testing.T, s *schedule.Schedule) string {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(raw)
	return strconv.FormatUint(h.Sum64(), 16)
}

func TestTECCLRoundOneDigests(t *testing.T) {
	fabrics := []struct {
		name string
		top  *topology.Topology
	}{
		{"dgx4", topology.SingleServer(4)},
		{"server8", topology.SingleServer(8)},
		{"a100x16", topology.A100Clos(2)},
		{"h800small", topology.H800Small(6)},
	}
	for _, f := range fabrics {
		for _, size := range []struct {
			name  string
			bytes float64
		}{{"1M", 1 << 20}, {"64M", 64 << 20}} {
			for _, coll := range []string{"allgather", "reducescatter", "broadcast", "alltoall", "scatter"} {
				key := f.name + ":" + coll + ":" + size.name
				col, err := cli.BuildCollective(coll, f.top.NumGPUs(), size.bytes)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Synthesize(f.top, col, Options{TimeBudget: time.Nanosecond})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if res.Rounds != 1 {
					t.Errorf("%s: %d rounds, want 1", key, res.Rounds)
				}
				if got := scheduleDigest(t, res.Schedule); got != roundOneDigests[key] {
					t.Errorf("%s: digest %s, pinned %q", key, got, roundOneDigests[key])
				}
			}
		}
	}
}

// TestTinyBudgetAllReduce: a 1 ns AllReduce is one deterministic
// AllGather round, composed — not two half-budget runs, whose zero
// halves would each fall back to the 10 s default budget.
func TestTinyBudgetAllReduce(t *testing.T) {
	for _, f := range []struct {
		name string
		top  *topology.Topology
	}{{"h800small-2", topology.H800Small(2)}, {"h800small", topology.H800Small(6)}} {
		n := f.top.NumGPUs()
		col := collective.AllReduce(n, 1<<20)
		start := time.Now()
		res, err := Synthesize(f.top, col, Options{TimeBudget: time.Nanosecond})
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if spent := time.Since(start); spent > time.Second && !raceEnabled {
			t.Errorf("%s: 1 ns AllReduce took %v", f.name, spent)
		}
		if res.Rounds != 1 {
			t.Errorf("%s: %d rounds, want 1", f.name, res.Rounds)
		}
		if err := verify.CheckSchedule(col, res.Schedule); err != nil {
			t.Errorf("%s: %v", f.name, err)
		}
		// The schedule is the composed 1 ns AllGather round (pinned as
		// "h800small:allgather:1M").
		agCol, phases := col.Phases()
		ag, err := Synthesize(f.top, agCol, Options{TimeBudget: time.Nanosecond})
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if want, ok := roundOneDigests[f.name+":allgather:1M"]; ok && scheduleDigest(t, ag.Schedule) != want {
			t.Errorf("%s: AllGather round digest moved", f.name)
		}
		if got, want := scheduleDigest(t, res.Schedule), scheduleDigest(t, schedule.Compose(nil, ag.Schedule, agCol, phases)); got != want {
			t.Errorf("%s: AllReduce digest %s, composed AllGather round %s", f.name, got, want)
		}
	}
}
