package cli

import (
	"testing"

	"syccl/internal/collective"
	"syccl/internal/metrics"
)

func TestParseTopology(t *testing.T) {
	cases := map[string]int{
		"a100x16": 16, "a100x32": 32, "h800x16": 16, "h800x64": 64,
		"h800small": 24, "server8": 8, "fig3": 16, "fig19": 28, "fig20": 32,
	}
	for spec, gpus := range cases {
		top, err := ParseTopology(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if top.NumGPUs() != gpus {
			t.Errorf("%s: %d GPUs, want %d", spec, top.NumGPUs(), gpus)
		}
	}
	if _, err := ParseTopology("nonsense"); err == nil {
		t.Error("accepted unknown topology")
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]float64{
		"1K": 1024, "4M": 4 << 20, "1G": 1 << 30, "512": 512, "100B": 100, " 2k ": 2048,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-1K", "abc", "0", "NaN", "nanK", "Inf", "-Inf", "infM", "1e308G"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestBuildCollectiveDataBytes: BuildCollective's aggregate-size
// convention is the one metrics.DataBytes reads back, for every kind by
// its Kind name (the form the experiments pass).
func TestBuildCollectiveDataBytes(t *testing.T) {
	for k := collective.KindSendRecv; k <= collective.KindAllReduce; k++ {
		for _, n := range []int{2, 8, 24} {
			for _, b := range []float64{1 << 20, 64 << 20, 3e6} {
				col, err := BuildCollective(k.String(), n, b)
				if err != nil {
					t.Fatalf("%v: %v", k, err)
				}
				if col.Kind != k {
					t.Errorf("%v: built %v", k, col.Kind)
				}
				if got := metrics.DataBytes(col); got != b {
					t.Errorf("%v on %d GPUs: DataBytes %g, built from %g", k, n, got, b)
				}
			}
		}
	}
}

func TestBuildCollective(t *testing.T) {
	kinds := map[string]collective.Kind{
		"allgather": collective.KindAllGather, "ag": collective.KindAllGather,
		"reducescatter": collective.KindReduceScatter, "rs": collective.KindReduceScatter,
		"alltoall": collective.KindAlltoAll, "a2a": collective.KindAlltoAll,
		"allreduce": collective.KindAllReduce, "broadcast": collective.KindBroadcast,
		"reduce": collective.KindReduce, "scatter": collective.KindScatter,
		"gather": collective.KindGather, "sendrecv": collective.KindSendRecv,
	}
	for name, kind := range kinds {
		col, err := BuildCollective(name, 8, 8192)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if col.Kind != kind {
			t.Errorf("%s: kind %v, want %v", name, col.Kind, kind)
		}
		if err := col.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := BuildCollective("nope", 8, 1024); err == nil {
		t.Error("accepted unknown collective")
	}
	// AllGather data-size convention: aggregate buffer = dataBytes.
	ag, _ := BuildCollective("allgather", 8, 8192)
	if ag.TotalBytes() != 8192 {
		t.Errorf("AG total = %g", ag.TotalBytes())
	}
}
