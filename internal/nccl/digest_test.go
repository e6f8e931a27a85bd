package nccl

import (
	"encoding/json"
	"hash/fnv"
	"strconv"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/schedule"
	"syccl/internal/topology"
)

// reductionDigests pins the mirrored schedules byte for byte: the FNV-1a
// digest of each schedule's JSON encoding, keyed "fabric:collective:size"
// on the fabrics of core's cold-digest table.
var reductionDigests = map[string]string{
	"dgx4:reduce:1M":              "981558c41834aa90",
	"dgx4:reduce:64M":             "beb725096bd61327",
	"dgx4:reducescatter:1M":       "aad99004d76e51af",
	"dgx4:reducescatter:64M":      "31e26567fd3023c7",
	"server8:reduce:1M":           "bcc8dd100d63bfb4",
	"server8:reduce:64M":          "7d43d0087e16113",
	"server8:reducescatter:1M":    "f897e25bc99621df",
	"server8:reducescatter:64M":   "ec6197a10196828f",
	"a100x16:reduce:1M":           "28db90f2c103ef8e",
	"a100x16:reduce:64M":          "8f82d092743aa839",
	"a100x16:reducescatter:1M":    "6094302898d0d682",
	"a100x16:reducescatter:64M":   "1b69b3c12b3e1482",
	"h800small:reduce:1M":         "9da2554243bcd9dc",
	"h800small:reduce:64M":        "62452e6b15ec1c65",
	"h800small:reducescatter:1M":  "ff6d5712b72a4a9",
	"h800small:reducescatter:64M": "2be8b635371c4a61",
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

func TestReductionDigests(t *testing.T) {
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
		n := f.top.NumGPUs()
		for _, size := range []struct {
			name  string
			bytes float64
		}{{"1M", 1 << 20}, {"64M", 64 << 20}} {
			red, err := Reduce(f.top, collective.Reduce(n, 0, size.bytes))
			if err != nil {
				t.Fatal(err)
			}
			rs, err := ReduceScatter(f.top, collective.ReduceScatter(n, size.bytes/float64(n)))
			if err != nil {
				t.Fatal(err)
			}
			for coll, s := range map[string]*schedule.Schedule{"reduce": red, "reducescatter": rs} {
				key := f.name + ":" + coll + ":" + size.name
				if got := scheduleDigest(t, s); got != reductionDigests[key] {
					t.Errorf("%s: digest %s, pinned %q", key, got, reductionDigests[key])
				}
			}
		}
	}
}
