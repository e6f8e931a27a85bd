package topology

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// presetConfigs mirrors presets.go: the Build config of every topology
// cli.ParseTopology names. TestExtractMatchesReference checks that each
// still builds its preset's fingerprint.
func presetConfigs() map[string]Config {
	h800 := func(name string, servers, gpus int) Config {
		return Config{Name: name, Servers: servers, GPUsPerServer: gpus,
			NVAlpha: NVAlpha, NVBeta: 1 / H800NVBandwidth, NetAlpha: NetAlpha, NetBeta: 1 / H800NetBandwidth}
	}
	a100 := func(servers int) Config {
		return Config{Name: fmt.Sprintf("a100-clos-%dgpu", servers*8), Servers: servers, GPUsPerServer: 8,
			NVAlpha: NVAlpha, NVBeta: 1 / A100NVBandwidth, NetAlpha: NetAlpha, NetBeta: 1 / A100NetBandwidth,
			ServersPerLeaf: 2, LeavesPerSpine: (servers + 1) / 2}
	}
	single := func(n int) Config {
		return Config{Name: fmt.Sprintf("server-%dgpu", n), Servers: 1, GPUsPerServer: n,
			NVAlpha: NVAlpha, NVBeta: 1 / H800NVBandwidth}
	}
	fig3 := h800("fig3-multirail-16gpu", 4, 4)
	fig3.LeavesPerSpine, fig3.WithCore = 2, true
	fig19 := h800("fig19-multirail-28gpu", 7, 4)
	fig19.LeavesPerSpine = 4
	fig20 := h800("fig20-clos-32gpu", 8, 4)
	fig20.ServersPerLeaf, fig20.LeavesPerSpine, fig20.WithCore = 2, 2, true
	return map[string]Config{
		"dgx4":      single(4),
		"server8":   single(8),
		"a100x16":   a100(2),
		"a100x32":   a100(4),
		"h800x16":   h800("h800-rail-16gpu", 2, 8),
		"h800x64":   h800("h800-rail-64gpu", 8, 8),
		"h800x512":  h800("h800-rail-512gpu", 64, 8),
		"h800small": h800("h800-small-24gpu", 6, 4),
		"fig3":      fig3,
		"fig19":     fig19,
		"fig20":     fig20,
	}
}

// presets builds every preset by its own constructor, in a fixed order.
func presets() []*Topology {
	return []*Topology{
		SingleServer(4), SingleServer(8), A100Clos(2), A100Clos(4),
		H800Rail(2), H800Rail(8), H800Rail(64), H800Small(6),
		Fig3(), Fig19(), Fig20(),
	}
}

// randomConfig draws a Build config the way verify.RandomTopology does:
// one of its shapes with random NVLink/network α and β.
func randomConfig(rng *rand.Rand) Config {
	shapes := []struct {
		servers, gpus, serversPerLeaf, leavesPerSpine int
		withCore                                      bool
	}{
		{1, 4, 0, 0, false}, {1, 8, 0, 0, false}, {2, 2, 0, 0, false}, {2, 4, 0, 0, false},
		{3, 2, 0, 0, false}, {3, 4, 0, 0, false}, {4, 2, 0, 0, false}, {4, 4, 0, 0, false},
		{2, 8, 0, 0, false}, {4, 2, 4, 0, false}, {4, 2, 2, 2, false}, {4, 4, 2, 2, false},
		{8, 2, 2, 2, true}, {4, 4, 0, 2, true},
	}
	sh := shapes[rng.Intn(len(shapes))]
	nvBW := 50e9 * (1 + 7*rng.Float64())
	netBW := nvBW / (1 + 15*rng.Float64())
	return Config{
		Name:           fmt.Sprintf("rand-%dx%d", sh.servers, sh.gpus),
		Servers:        sh.servers,
		GPUsPerServer:  sh.gpus,
		NVAlpha:        1e-6 * (1 + 4*rng.Float64()),
		NVBeta:         1 / nvBW,
		NetAlpha:       5e-6 * (1 + 3*rng.Float64()),
		NetBeta:        1 / netBW,
		ServersPerLeaf: sh.serversPerLeaf,
		LeavesPerSpine: sh.leavesPerSpine,
		WithCore:       sh.withCore,
	}
}

// dimsDiff describes the first difference between two topologies'
// dimensions — count, ID, name, tier, port class, dimension-level α/β
// bits, groups, override presence and per-group α/β bits — or returns
// "" when there is none.
func dimsDiff(got, want *Topology) string {
	bits := math.Float64bits
	if len(got.Dims) != len(want.Dims) {
		return fmt.Sprintf("%d dims, want %d", len(got.Dims), len(want.Dims))
	}
	for i, w := range want.Dims {
		g := got.Dims[i]
		switch {
		case g.ID != w.ID || g.Name != w.Name || g.Tier != w.Tier || g.PortClass != w.PortClass:
			return fmt.Sprintf("dim %d is %d/%s/tier %d/class %d, want %d/%s/tier %d/class %d",
				i, g.ID, g.Name, g.Tier, g.PortClass, w.ID, w.Name, w.Tier, w.PortClass)
		case bits(g.Alpha) != bits(w.Alpha) || bits(g.Beta) != bits(w.Beta):
			return fmt.Sprintf("dim %s costs α %g β %g, want α %g β %g", w.Name, g.Alpha, g.Beta, w.Alpha, w.Beta)
		case !reflect.DeepEqual(g.Groups, w.Groups) || !reflect.DeepEqual(g.groupOf, w.groupOf):
			return fmt.Sprintf("dim %s groups %v, want %v", w.Name, g.Groups, w.Groups)
		case (g.alphaOf == nil) != (w.alphaOf == nil) || (g.betaOf == nil) != (w.betaOf == nil):
			return fmt.Sprintf("dim %s overrides present %v, want %v", w.Name, g.alphaOf != nil, w.alphaOf != nil)
		}
		for grp := range w.Groups {
			if bits(g.AlphaOf(grp)) != bits(w.AlphaOf(grp)) || bits(g.BetaOf(grp)) != bits(w.BetaOf(grp)) {
				return fmt.Sprintf("dim %s group %d costs α %g β %g, want α %g β %g",
					w.Name, grp, g.AlphaOf(grp), g.BetaOf(grp), w.AlphaOf(grp), w.BetaOf(grp))
			}
		}
	}
	return ""
}

// extractReference runs the pre-extractor extraction on a copy of top's
// physical graph.
func extractReference(top *Topology, cfg Config) *Topology {
	ref := &Topology{Name: top.Name, Nodes: top.Nodes, Links: top.Links, GPUs: top.GPUs}
	extractDimsReference(ref, cfg)
	return ref
}

// TestExtractMatchesReference holds Build's dimensions to the extraction
// that took groups from graph components and costs from the Config, on
// every preset and on random configs shaped like verify.RandomTopology.
func TestExtractMatchesReference(t *testing.T) {
	byName := map[string]*Topology{}
	for _, top := range presets() {
		byName[top.Name] = top
	}
	for name, cfg := range presetConfigs() {
		top := Build(cfg)
		preset := byName[cfg.Name]
		if preset == nil || preset.Fingerprint() != top.Fingerprint() {
			t.Fatalf("%s: config does not mirror the preset %s", name, cfg.Name)
		}
		if diff := dimsDiff(top, extractReference(top, cfg)); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 2000; i++ {
		cfg := randomConfig(rng)
		top := Build(cfg)
		if diff := dimsDiff(top, extractReference(top, cfg)); diff != "" {
			t.Fatalf("draw %d %+v: %s", i, cfg, diff)
		}
	}
}

// randomDelta draws 1–3 kill/slow/lag/node terms against top. Most name
// a real link or switch; some name a GPU, a missing link or a missing
// node, so Apply's rejections are drawn too.
func randomDelta(rng *rand.Rand, top *Topology) *Delta {
	d := &Delta{}
	link := func() (int, int) {
		if rng.Intn(16) == 0 {
			return rng.Intn(len(top.Nodes)), len(top.Nodes) + rng.Intn(4)
		}
		l := top.Links[rng.Intn(len(top.Links))]
		return l.Src, l.Dst
	}
	scale := func() float64 {
		return math.Exp(rng.NormFloat64() * 2)
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		switch rng.Intn(4) {
		case 0:
			a, b := link()
			d.FailLinks = append(d.FailLinks, LinkFail{a, b})
		case 1:
			a, b := link()
			d.Degrade = append(d.Degrade, LinkDegrade{A: a, B: b, AlphaScale: 1, BetaScale: scale()})
		case 2:
			a, b := link()
			d.Degrade = append(d.Degrade, LinkDegrade{A: a, B: b, AlphaScale: scale(), BetaScale: 1})
		default:
			d.FailNodes = append(d.FailNodes, rng.Intn(len(top.Nodes)+2))
		}
	}
	return d
}

// applyDiff applies d to base with Apply and with the reference, and
// describes their first difference: the error text, or the fingerprint
// and per-group bits.
func applyDiff(d *Delta, base, refBase *Topology) (diff string, got, want *Topology) {
	got, err := d.Apply(base)
	want, refErr := applyReference(d, refBase)
	switch {
	case (err == nil) != (refErr == nil):
		return fmt.Sprintf("error %v, want %v", err, refErr), nil, nil
	case err != nil:
		if err.Error() != refErr.Error() {
			return fmt.Sprintf("error %q, want %q", err, refErr), nil, nil
		}
		return "", nil, nil
	case got.Name != want.Name || got.Fingerprint() != want.Fingerprint():
		return fmt.Sprintf("%s %s, want %s %s", got.Name, got.Fingerprint(), want.Name, want.Fingerprint()), nil, nil
	}
	return dimsDiff(got, want), got, want
}

// FuzzApplyEquivalence holds Apply to the reference that copied
// untouched groups' costs from the base: random deltas on every preset
// but h800x512, and a second delta on the degraded result, must give the
// same error text, or the same fingerprint and per-group α/β bits.
func FuzzApplyEquivalence(f *testing.F) {
	tops := presets()
	var small []*Topology
	for _, top := range tops {
		if top.NumGPUs() <= 64 {
			small = append(small, top)
		}
	}
	for i := range small {
		for seed := int64(0); seed < 8; seed++ {
			f.Add(uint8(i), seed)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, seed int64) {
		base := small[int(which)%len(small)]
		rng := rand.New(rand.NewSource(seed))
		d := randomDelta(rng, base)
		diff, got, want := applyDiff(d, base, base)
		if diff != "" {
			t.Fatalf("%s + %q: %s", base.Name, d, diff)
		}
		if got == nil {
			return
		}
		d2 := randomDelta(rng, got)
		if diff, _, _ := applyDiff(d2, got, want); diff != "" {
			t.Fatalf("%s + %q + %q: %s", base.Name, d, d2, diff)
		}
	})
}

// TestRouteMatchesReference holds DimOf and PXNRoute to the lookups and
// relays the baselines used to keep, over every GPU pair of every preset
// and of two degraded fabrics.
func TestRouteMatchesReference(t *testing.T) {
	tops := presets()
	for _, c := range []struct {
		base  *Topology
		delta string
	}{{H800Small(6), "kill:30-54,slow:0-24*4"}, {A100Clos(2), "kill:18-34"}} {
		d, err := ParseDelta(c.delta)
		if err != nil {
			t.Fatal(err)
		}
		deg, err := d.Apply(c.base)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, deg)
	}
	for _, top := range tops {
		n := top.NumGPUs()
		relayed := 0
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				want := coreDimForReference(top, src, dst)
				nd, err := ncclDimForReference(top, src, dst)
				if err != nil {
					nd = -1
				}
				if nd != want || tecclDimOfReference(top, src, dst) != want || craftedDirectDimReference(top, src, dst) != want {
					t.Fatalf("%s %d→%d: the reference lookups disagree", top.Name, src, dst)
				}
				if got := top.DimOf(src, dst); got != want {
					t.Fatalf("%s: DimOf(%d, %d) = %d, want %d", top.Name, src, dst, got, want)
				}

				relay, d1, d2 := top.PXNRoute(src, dst)
				if want >= 0 {
					if relay != -1 || d1 != want || d2 != -1 {
						t.Fatalf("%s %d→%d: route (%d, %d, %d), want direct over %d", top.Name, src, dst, relay, d1, d2, want)
					}
					continue
				}
				relayed++
				r := corePXNRelayReference(top, src, dst)
				if ncclPXNRelayReference(top, src, dst) != r || tecclPXNRelayReference(top, src, dst) != r {
					t.Fatalf("%s %d→%d: the reference relays disagree", top.Name, src, dst)
				}
				w1, w2 := coreDimForReference(top, src, r), coreDimForReference(top, r, dst)
				if relay != r || d1 != w1 || d2 != w2 {
					t.Fatalf("%s %d→%d: route (%d, %d, %d), want (%d, %d, %d)", top.Name, src, dst, relay, d1, d2, r, w1, w2)
				}
			}
		}
		t.Logf("%s: %d relayed pairs", top.Name, relayed)
	}
}
