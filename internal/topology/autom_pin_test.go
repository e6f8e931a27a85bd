package topology_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"syccl/internal/cli"
	"syccl/internal/topology"
)

// automorphismCases is every cli.ParseTopology preset plus three fabrics
// under a slow NVLink, a killed NIC uplink and a lagged NIC uplink each.
func automorphismCases(t *testing.T) map[string]*topology.Topology {
	cases := map[string]*topology.Topology{}
	for _, name := range []string{"dgx4", "server8", "a100x16", "a100x32", "h800x16", "h800x64", "h800x512", "h800small", "fig3", "fig19", "fig20"} {
		top, err := cli.ParseTopology(name)
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = top
	}
	for _, name := range []string{"a100x16", "h800small", "h800x64"} {
		base := cases[name]
		nv, up0, up1 := -1, -1, -1 // GPU 0's NVSwitch; the leaves above GPU 0's and GPU 1's NICs
		nic := map[int]int{}       // GPU -> its NIC
		for _, l := range base.Links {
			src, dst := base.Nodes[l.Src], base.Nodes[l.Dst]
			switch {
			case l.Src == 0 && dst.Kind == topology.KindNVSwitch:
				nv = l.Dst
			case src.Kind == topology.KindGPU && dst.Kind == topology.KindNIC:
				nic[l.Src] = l.Dst
			}
		}
		for _, l := range base.Links {
			if base.Nodes[l.Dst].Kind != topology.KindLeafSwitch {
				continue
			}
			if l.Src == nic[0] {
				up0 = l.Dst
			} else if l.Src == nic[1] {
				up1 = l.Dst
			}
		}
		for _, spec := range []string{
			fmt.Sprintf("slow:0-%d*4", nv),
			fmt.Sprintf("kill:%d-%d", nic[0], up0),
			fmt.Sprintf("lag:%d-%d*4", nic[1], up1),
		} {
			d, err := topology.ParseDelta(spec)
			if err != nil {
				t.Fatal(err)
			}
			top, err := d.Apply(base)
			if err != nil {
				t.Fatalf("%s+%s: %v", name, spec, err)
			}
			cases[name+"+"+spec] = top
		}
	}
	return cases
}

type automorphismPin struct {
	Count  int    `json:"count"`
	Digest string `json:"digest"` // sha256 of the permutations in list order, each entry a little-endian uint32
}

// TestAutomorphismsPinned holds Topology.Automorphisms to the count and
// digest pinned in testdata/automorphisms.json. List order is part of
// the pin: sketch replication breaks ties in list order, so the order
// decides schedule bytes.
func TestAutomorphismsPinned(t *testing.T) {
	got := map[string]automorphismPin{}
	for name, top := range automorphismCases(t) {
		h := sha256.New()
		var b [4]byte
		for _, p := range top.Automorphisms() {
			for _, v := range p {
				binary.LittleEndian.PutUint32(b[:], uint32(v))
				h.Write(b[:])
			}
		}
		got[name] = automorphismPin{len(top.Automorphisms()), hex.EncodeToString(h.Sum(nil))}
	}
	path := filepath.Join("testdata", "automorphisms.json")
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
	var want map[string]automorphismPin
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned lists, %d cases", len(want), len(got))
	}
	for name, pin := range got {
		if pin != want[name] {
			t.Errorf("%s: automorphisms moved: got %+v, want %+v", name, pin, want[name])
		}
	}
}
