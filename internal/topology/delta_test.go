package topology

import (
	"strings"
	"testing"
)

// findNode returns the ID of the first node with the given kind and
// server (server is ignored when < 0).
func findNode(t *testing.T, top *Topology, kind NodeKind, server int) int {
	t.Helper()
	for _, nd := range top.Nodes {
		if nd.Kind == kind && (server < 0 || nd.Server == server) {
			return nd.ID
		}
	}
	t.Fatalf("no %s node for server %d in %s", kind, server, top.Name)
	return -1
}

func TestParseDeltaRoundTrip(t *testing.T) {
	cases := []string{
		"kill:0-4",
		"node:12",
		"slow:3-17*4",
		"lag:3-17*2",
		"node:5,kill:0-4,kill:1-4,lag:2-4*2,slow:2-4*8",
		" kill:4-0 , slow:17-3*2 , slow:3-17*2 ",
	}
	for _, spec := range cases {
		d, err := ParseDelta(spec)
		if err != nil {
			t.Fatalf("ParseDelta(%q): %v", spec, err)
		}
		s := d.String()
		d2, err := ParseDelta(s)
		if err != nil {
			t.Fatalf("ParseDelta(String()=%q): %v", s, err)
		}
		if s2 := d2.String(); s2 != s {
			t.Errorf("round trip of %q: %q != %q", spec, s2, s)
		}
	}
}

func TestParseDeltaErrors(t *testing.T) {
	bad := []string{
		"",
		"  ,  ",
		"frob:1-2",
		"kill:1",
		"kill:1-1",
		"kill:a-b",
		"kill:-1-2",
		"node:x",
		"node:9999999999",
		"slow:1-2",
		"slow:1-2*0",
		"slow:1-2*-3",
		"slow:1-2*nope",
		"lag:1-2*Inf",
		"lag:1-2*NaN",
	}
	for _, spec := range bad {
		if d, err := ParseDelta(spec); err == nil {
			t.Errorf("ParseDelta(%q) = %+v, want error", spec, d)
		}
	}
}

func TestDeltaCanonical(t *testing.T) {
	// Duplicate kills collapse, degrades on the same link merge
	// multiplicatively, degrades on killed links and links touching failed
	// nodes vanish, and ordering is normalized.
	d, err := ParseDelta("slow:9-1*2,slow:1-9*3,kill:4-2,kill:2-4,slow:2-4*7,node:8,kill:8-3,lag:5-8*2")
	if err != nil {
		t.Fatal(err)
	}
	want := "node:8,kill:2-4,slow:1-9*6"
	if got := d.String(); got != want {
		t.Errorf("canonical = %q, want %q", got, want)
	}
	if d.Empty() {
		t.Error("non-empty delta reports Empty")
	}
	if !(&Delta{}).Empty() {
		t.Error("empty delta does not report Empty")
	}
	if f, f2 := d.Fingerprint(), d.Canonical().Fingerprint(); f != f2 {
		t.Errorf("fingerprint not canonical: %s != %s", f, f2)
	}
}

// TestEmptyDeltaPreservesFingerprint pins that applying an empty delta —
// which exercises the full re-extraction path — reproduces the base
// topology's synthesis identity bit-for-bit on every preset and on
// degraded bases. Apply prices every group by its link bottleneck, so
// this holds because Build's costs are that bottleneck.
func TestEmptyDeltaPreservesFingerprint(t *testing.T) {
	tops := presets()
	for _, c := range []struct {
		base  *Topology
		delta string
	}{
		{H800Small(6), "kill:30-54,slow:0-24*4"},
		{A100Clos(2), "kill:18-34,lag:16-0*3"},
		{H800Small(6), "node:54,lag:1-24*2"},
		{Fig20(), "kill:40-72,slow:1-32*2"},
	} {
		d, err := ParseDelta(c.delta)
		if err != nil {
			t.Fatal(err)
		}
		deg, err := d.Apply(c.base)
		if err != nil {
			t.Fatalf("%s + %s: %v", c.base.Name, c.delta, err)
		}
		tops = append(tops, deg)
	}
	for _, base := range tops {
		deg, err := (&Delta{}).Apply(base)
		if err != nil {
			t.Fatalf("%s: empty delta: %v", base.Name, err)
		}
		if got, want := deg.Fingerprint(), base.Fingerprint(); got != want {
			t.Errorf("%s: empty-delta fingerprint drift:\n got %s\nwant %s", base.Name, got, want)
		}
		if deg.NumDims() != base.NumDims() {
			t.Errorf("%s: empty delta changed dim count %d -> %d", base.Name, base.NumDims(), deg.NumDims())
		}
	}
}

// TestDegradedFingerprintDiffers is the regression test for the
// fingerprint collision risk: a topology with a degraded link must never
// alias its healthy twin in the engine/persist key space.
func TestDegradedFingerprintDiffers(t *testing.T) {
	base := SingleServer(8)
	nv := findNode(t, base, KindNVSwitch, 0)
	d, err := ParseDelta("slow:0-" + itoa(nv) + "*4")
	if err != nil {
		t.Fatal(err)
	}
	deg, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if deg.Fingerprint() == base.Fingerprint() {
		t.Fatalf("degraded topology aliases healthy twin: %s", base.Fingerprint())
	}
	// The degraded group's β must reflect the worst surviving link.
	dim := deg.Dim(0)
	if got, want := dim.BetaOf(0), 4*base.Dim(0).Beta; got != want {
		t.Errorf("degraded group β = %g, want %g", got, want)
	}
	// Dimension-level values stay at the healthy baseline.
	if dim.Beta != base.Dim(0).Beta || dim.Alpha != base.Dim(0).Alpha {
		t.Errorf("dimension-level α/β drifted: %g/%g", dim.Alpha, dim.Beta)
	}
}

// TestDeltaTouchesOnlyAffectedGroups pins the selective-invalidation
// contract: groups whose component the delta does not touch keep
// bit-identical α/β with the base topology.
func TestDeltaTouchesOnlyAffectedGroups(t *testing.T) {
	base := H800Small(6)
	nv0 := findNode(t, base, KindNVSwitch, 0)
	d, err := ParseDelta("slow:0-" + itoa(nv0) + "*4,lag:0-" + itoa(nv0) + "*2")
	if err != nil {
		t.Fatal(err)
	}
	deg, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	bd, dd := base.Dim(0), deg.Dim(0)
	if len(bd.Groups) != len(dd.Groups) {
		t.Fatalf("group count changed: %d -> %d", len(bd.Groups), len(dd.Groups))
	}
	if dd.BetaOf(0) != 4*bd.Beta {
		t.Errorf("touched group β = %g, want %g", dd.BetaOf(0), 4*bd.Beta)
	}
	if dd.AlphaOf(0) != 2*bd.Alpha {
		t.Errorf("touched group α = %g, want %g (2 hops × lagged link)", dd.AlphaOf(0), 2*bd.Alpha)
	}
	for g := 1; g < len(dd.Groups); g++ {
		if dd.AlphaOf(g) != bd.AlphaOf(g) || dd.BetaOf(g) != bd.BetaOf(g) {
			t.Errorf("untouched group %d drifted: α %g->%g β %g->%g", g, bd.AlphaOf(g), dd.AlphaOf(g), bd.BetaOf(g), dd.BetaOf(g))
		}
	}
	// Untouched dimensions (the rail tier) keep their fingerprint section.
	if base.NumDims() != deg.NumDims() {
		t.Fatalf("dim count changed: %d -> %d", base.NumDims(), deg.NumDims())
	}
	for di := 1; di < base.NumDims(); di++ {
		b, g := base.Dim(di), deg.Dim(di)
		for gi := range b.Groups {
			if b.AlphaOf(gi) != g.AlphaOf(gi) || b.BetaOf(gi) != g.BetaOf(gi) {
				t.Errorf("dim %d group %d drifted", di, gi)
			}
		}
	}
}

func TestDeltaDisconnectRejected(t *testing.T) {
	base := SingleServer(4)
	nv := findNode(t, base, KindNVSwitch, 0)
	d, err := ParseDelta("kill:0-" + itoa(nv))
	if err != nil {
		t.Fatal(err)
	}
	if deg, err := d.Apply(base); err == nil {
		t.Fatalf("disconnecting delta accepted: %s", deg.Fingerprint())
	} else if !strings.Contains(err.Error(), "disconnect") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestDeltaNodeFailure(t *testing.T) {
	base := H800Small(6)
	nv0 := findNode(t, base, KindNVSwitch, 0)

	// Killing a whole NVSwitch splits that server's dim-0 group into
	// singletons; the GPUs stay reachable over the rail tier.
	d := &Delta{FailNodes: []int{nv0}}
	deg, err := d.Apply(base)
	if err != nil {
		t.Fatalf("NVSwitch failure: %v", err)
	}
	d0 := deg.Dim(0)
	for gpu := 0; gpu < 4; gpu++ {
		g := d0.GroupOf(gpu)
		if g < 0 || d0.GroupSize(g) != 1 {
			t.Errorf("GPU %d: expected singleton dim-0 group after NVSwitch failure, got size %d", gpu, d0.GroupSize(d0.GroupOf(gpu)))
		}
	}
	if deg.Fingerprint() == base.Fingerprint() {
		t.Error("NVSwitch failure did not change fingerprint")
	}

	// Failing a GPU is rejected.
	if _, err := (&Delta{FailNodes: []int{0}}).Apply(base); err == nil {
		t.Error("GPU removal accepted")
	}
	// Unknown nodes and absent links are rejected.
	if _, err := (&Delta{FailNodes: []int{len(base.Nodes)}}).Apply(base); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := (&Delta{FailLinks: []LinkFail{{0, 1}}}).Apply(base); err == nil {
		t.Error("kill of non-existent link accepted")
	}
	if _, err := (&Delta{Degrade: []LinkDegrade{{A: 0, B: 1, AlphaScale: 1, BetaScale: 2}}}).Apply(base); err == nil {
		t.Error("degrade of non-existent link accepted")
	}
}

// TestDeltaKillRailLink checks a survivable link kill on the network
// tier: the rail group containing the orphaned GPU splits, and the
// remaining GPUs keep a working (untouched-cost) rail group.
func TestDeltaKillRailLink(t *testing.T) {
	base := H800Small(6)
	// Find GPU 0's NIC and its uplink to the rail leaf.
	var nic int = -1
	for _, l := range base.Links {
		if l.Src == 0 && base.Nodes[l.Dst].Kind == KindNIC {
			nic = l.Dst
			break
		}
	}
	if nic < 0 {
		t.Fatal("no NIC for GPU 0")
	}
	var leaf int = -1
	for _, l := range base.Links {
		if l.Src == nic && base.Nodes[l.Dst].Kind == KindLeafSwitch {
			leaf = l.Dst
			break
		}
	}
	if leaf < 0 {
		t.Fatal("no leaf uplink for GPU 0's NIC")
	}

	d := &Delta{FailLinks: []LinkFail{{nic, leaf}}}
	deg, err := d.Apply(base)
	if err != nil {
		t.Fatalf("rail-link kill: %v", err)
	}
	rail := deg.Dim(1)
	g0 := rail.GroupOf(0)
	if g0 < 0 || rail.GroupSize(g0) != 1 {
		t.Errorf("GPU 0 should be orphaned on its rail, got group size %d", rail.GroupSize(g0))
	}
	// The surviving rail-0 GPUs (local index 0 of servers 1..5) form one
	// group whose costs match the healthy baseline... the kill touched
	// their component, so they are recomputed — but to identical values,
	// since the surviving links are unchanged.
	gOther := rail.GroupOf(4)
	if gOther < 0 || rail.GroupSize(gOther) != 5 {
		t.Fatalf("surviving rail group has size %d, want 5", rail.GroupSize(gOther))
	}
	if rail.BetaOf(gOther) != base.Dim(1).Beta {
		t.Errorf("surviving rail group β = %g, want %g", rail.BetaOf(gOther), base.Dim(1).Beta)
	}
	if rail.AlphaOf(gOther) != base.Dim(1).Alpha {
		t.Errorf("surviving rail group α = %g, want %g", rail.AlphaOf(gOther), base.Dim(1).Alpha)
	}
	if err := deg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
