package topology_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"syccl/internal/cli"
	"syccl/internal/topology"
)

var update = flag.Bool("update", false, "rewrite the pinned testdata/*.json files from this tree")

// fingerprintCases is every topology name cli.ParseTopology knows, plus
// one degraded fabric: a killed rail uplink (a structural delta) and a
// slowed NVLink group, whose per-group α/β overrides render as "@a…@b…".
var fingerprintCases = []struct{ name, topo, delta string }{
	{"dgx4", "dgx4", ""},
	{"server8", "server8", ""},
	{"a100x16", "a100x16", ""},
	{"a100x32", "a100x32", ""},
	{"h800x16", "h800x16", ""},
	{"h800x64", "h800x64", ""},
	{"h800x512", "h800x512", ""},
	{"h800small", "h800small", ""},
	{"fig3", "fig3", ""},
	{"fig19", "fig19", ""},
	{"fig20", "fig20", ""},
	{"h800small+kill:30-54,slow:0-24*4", "h800small", "kill:30-54,slow:0-24*4"},
}

// TestFingerprintPinned holds Topology.Fingerprint to the text pinned in
// testdata/fingerprints.json. Engine plan keys, sketch-cache keys and the
// persisted corpus are built from it, so a rendering change, however
// small, orphans every stored entry.
func TestFingerprintPinned(t *testing.T) {
	got := map[string]string{}
	for _, c := range fingerprintCases {
		top, err := cli.ParseTopology(c.topo)
		if err != nil {
			t.Fatal(err)
		}
		if c.delta != "" {
			d, err := topology.ParseDelta(c.delta)
			if err != nil {
				t.Fatal(err)
			}
			if top, err = d.Apply(top); err != nil {
				t.Fatal(err)
			}
		}
		got[c.name] = top.Fingerprint()
	}
	if !strings.Contains(got[fingerprintCases[len(fingerprintCases)-1].name], "@a") {
		t.Fatal("the degraded fabric renders no per-group override")
	}
	path := filepath.Join("testdata", "fingerprints.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned fingerprints, %d cases", len(want), len(got))
	}
	for name, fp := range got {
		if fp != want[name] {
			t.Errorf("%s: fingerprint moved\n got %.200s\nwant %.200s", name, fp, want[name])
		}
	}
}

// BenchmarkFingerprint renders the fingerprint of the largest and of a
// typical fabric; engine.PlanKey pays it on every plan and request.
func BenchmarkFingerprint(b *testing.B) {
	for _, name := range []string{"dgx4", "h800x64"} {
		top, err := cli.ParseTopology(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = top.Fingerprint()
			}
		})
	}
}
