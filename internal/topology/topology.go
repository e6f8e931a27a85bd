// Package topology models multi-dimensional GPU cluster topologies.
//
// A topology contains physical nodes (GPUs, NICs, and switches) joined by
// links, each link carrying an alpha-beta cost (alpha: fixed latency in
// seconds, beta: seconds per byte, i.e. the reciprocal of bandwidth).
//
// Following SyCCL (§3.1, Table 2), the package extracts a set of
// *dimensions* from the physical graph. A dimension represents one type of
// inter-GPU connection — e.g. the intra-server NVSwitch fabric, the
// same-rail leaf tier, the spine tier, the core tier. Within each dimension
// GPUs are partitioned into *groups*: two GPUs belong to the same group of
// dimension d when they can reach each other using only that dimension's
// fabric. Groups of the same dimension are isomorphic by construction,
// which is the symmetry the SyCCL synthesizer exploits.
//
// Synthesizers and the simulator operate on the logical GPU-level view: a
// transfer in dimension d between two GPUs of the same group consumes the
// sender's egress port and the receiver's ingress port for that dimension
// (the switch fabric itself is treated as non-blocking, the standard
// TACCL/TECCL hyper-edge reduction; oversubscribed fabrics are expressed by
// scaling the dimension's port bandwidth).
package topology

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// NodeKind classifies a physical node.
type NodeKind int

// Node kinds, ordered so that switch tiers compare numerically.
const (
	KindGPU NodeKind = iota
	KindNIC
	KindNVSwitch
	KindLeafSwitch
	KindSpineSwitch
	KindCoreSwitch
)

// String returns a short human-readable name for the kind.
func (k NodeKind) String() string {
	switch k {
	case KindGPU:
		return "GPU"
	case KindNIC:
		return "NIC"
	case KindNVSwitch:
		return "NVSwitch"
	case KindLeafSwitch:
		return "Leaf"
	case KindSpineSwitch:
		return "Spine"
	case KindCoreSwitch:
		return "Core"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// tier returns the network tier of a switch kind. The intra-server fabric
// is tier 0; network switches occupy tiers 1 (leaf), 2 (spine), 3 (core).
// Non-switch kinds have no tier and return -1.
func (k NodeKind) tier() int {
	switch k {
	case KindNVSwitch:
		return 0
	case KindLeafSwitch:
		return 1
	case KindSpineSwitch:
		return 2
	case KindCoreSwitch:
		return 3
	default:
		return -1
	}
}

// Node is a physical element of the cluster.
type Node struct {
	ID     int      // dense index in Topology.Nodes
	Kind   NodeKind // what the node is
	Server int      // server index for GPUs/NICs/NVSwitches, -1 otherwise
	Local  int      // index within the server (GPU/NIC slot), -1 otherwise
	Name   string   // human-readable label, e.g. "gpu3.7" or "leaf2"
}

// Link is a directed physical connection between two nodes. Physical
// builders create links in both directions.
type Link struct {
	Src, Dst int     // node IDs
	Alpha    float64 // latency in seconds
	Beta     float64 // seconds per byte (1/bandwidth)
}

// Bandwidth returns the link bandwidth in bytes per second.
func (l Link) Bandwidth() float64 {
	if l.Beta == 0 {
		return 0
	}
	return 1 / l.Beta
}

// Dim is a logical dimension extracted from the physical topology
// (Table 2: D, G_d, V_{d,g}).
type Dim struct {
	ID    int     // dense index in Topology.Dims
	Name  string  // e.g. "nvswitch", "rail", "spine", "core"
	Alpha float64 // GPU-to-GPU latency within the dimension, seconds
	Beta  float64 // per-GPU port seconds/byte in this dimension
	// PortClass identifies the physical port the dimension's transfers
	// occupy: 0 for the intra-server fabric (NVLink), 1 for the network
	// (all switch tiers share each GPU's NIC). Dimensions of the same
	// class contend for the same port in the simulator and share one
	// bandwidth budget in the §4.2 chunk allocation.
	PortClass int
	Groups    [][]int // GPU IDs per group, each sorted ascending

	// Tier records which physical switch tier the dimension was extracted
	// from (0: intra-server fabric, 1..3: leaf/spine/core). Delta
	// application uses it to re-extract the same dimension from a degraded
	// physical graph.
	Tier int

	// groupOf maps GPU ID -> group index within this dimension, or -1 if
	// the GPU does not participate in the dimension.
	groupOf []int

	// alphaOf/betaOf hold per-group α/β overrides for degraded topologies.
	// nil means every group uses the dimension-level Alpha/Beta (the
	// healthy case); when set they are indexed by group and len(Groups).
	alphaOf, betaOf []float64
}

// AlphaOf returns the α of group g, falling back to the dimension-level
// Alpha when the group carries no degradation override.
func (d *Dim) AlphaOf(g int) float64 {
	if d.alphaOf != nil {
		return d.alphaOf[g]
	}
	return d.Alpha
}

// BetaOf returns the β of group g, falling back to the dimension-level
// Beta when the group carries no degradation override.
func (d *Dim) BetaOf(g int) float64 {
	if d.betaOf != nil {
		return d.betaOf[g]
	}
	return d.Beta
}

// GroupOf returns the index of the group containing gpu, or -1 if the GPU
// is not part of this dimension.
func (d *Dim) GroupOf(gpu int) int {
	if gpu < 0 || gpu >= len(d.groupOf) {
		return -1
	}
	return d.groupOf[gpu]
}

// GroupSize returns the number of GPUs in group g.
func (d *Dim) GroupSize(g int) int { return len(d.Groups[g]) }

// Bandwidth returns the per-GPU port bandwidth of the dimension in bytes
// per second.
func (d *Dim) Bandwidth() float64 {
	if d.Beta == 0 {
		return 0
	}
	return 1 / d.Beta
}

// Topology is a physical cluster plus its extracted logical dimensions.
type Topology struct {
	Name  string
	Nodes []Node
	Links []Link

	// GPUs lists the node IDs of all GPUs in ascending order. GPU node IDs
	// are guaranteed by the builders to be 0..NumGPUs()-1.
	GPUs []int

	// Dims are the extracted dimensions ordered from the innermost
	// (intra-server) outwards, matching the paper's Dim 0, Dim 1, ...
	Dims []*Dim

	// Sym is the symmetry action over the (server × local) GPU grid used
	// by sketch replication; populated by Build.
	Sym *Symmetry

	// autom memoizes Automorphisms.
	autom struct {
		once  sync.Once
		perms [][]int
	}
}

// NumGPUs returns the number of GPU nodes.
func (t *Topology) NumGPUs() int { return len(t.GPUs) }

// Dim returns dimension d.
func (t *Topology) Dim(d int) *Dim { return t.Dims[d] }

// NumDims returns the number of extracted dimensions.
func (t *Topology) NumDims() int { return len(t.Dims) }

// SameGroup reports whether GPUs a and b belong to the same group of
// dimension d.
func (t *Topology) SameGroup(d, a, b int) bool {
	dim := t.Dims[d]
	ga, gb := dim.GroupOf(a), dim.GroupOf(b)
	return ga >= 0 && ga == gb
}

// DimOf returns the first dimension whose group holds both GPUs a and b
// (the innermost, so the intra-server fabric wins), or -1 if none does.
func (t *Topology) DimOf(a, b int) int {
	for d := range t.Dims {
		if t.SameGroup(d, a, b) {
			return d
		}
	}
	return -1
}

// PXNRoute routes GPU src to GPU dst in at most two hops. When a
// dimension connects them the route is direct: relay is -1 and d1 is
// DimOf(src, dst). Otherwise it is NCCL's PXN relay: relay is src's
// server-mate on dst's rail (dst's local index), d1 = DimOf(src, relay)
// and d2 = DimOf(relay, dst); a hop no dimension carries reports -1.
func (t *Topology) PXNRoute(src, dst int) (relay, d1, d2 int) {
	if d := t.DimOf(src, dst); d >= 0 {
		return -1, d, -1
	}
	g := 1
	if t.Sym != nil && t.Sym.Local.N > 0 {
		g = t.Sym.Local.N
	}
	relay = (src/g)*g + dst%g
	return relay, t.DimOf(src, relay), t.DimOf(relay, dst)
}

// Validate checks structural invariants: GPU IDs dense from zero, every
// GPU present in exactly one group per dimension it participates in, links
// referencing valid nodes, and positive betas.
func (t *Topology) Validate() error {
	for i, id := range t.GPUs {
		if id != i {
			return fmt.Errorf("topology %s: GPU node IDs not dense: GPUs[%d]=%d", t.Name, i, id)
		}
		if t.Nodes[id].Kind != KindGPU {
			return fmt.Errorf("topology %s: node %d listed as GPU but has kind %s", t.Name, id, t.Nodes[id].Kind)
		}
	}
	for _, l := range t.Links {
		if l.Src < 0 || l.Src >= len(t.Nodes) || l.Dst < 0 || l.Dst >= len(t.Nodes) {
			return fmt.Errorf("topology %s: link %d->%d references missing node", t.Name, l.Src, l.Dst)
		}
		if l.Beta <= 0 {
			return fmt.Errorf("topology %s: link %d->%d has non-positive beta %g", t.Name, l.Src, l.Dst, l.Beta)
		}
		if l.Alpha < 0 {
			return fmt.Errorf("topology %s: link %d->%d has negative alpha %g", t.Name, l.Src, l.Dst, l.Alpha)
		}
	}
	for _, dim := range t.Dims {
		seen := make(map[int]bool)
		for g, grp := range dim.Groups {
			if len(grp) == 0 {
				return fmt.Errorf("topology %s: dim %s group %d empty", t.Name, dim.Name, g)
			}
			if !sort.IntsAreSorted(grp) {
				return fmt.Errorf("topology %s: dim %s group %d not sorted", t.Name, dim.Name, g)
			}
			for _, gpu := range grp {
				if seen[gpu] {
					return fmt.Errorf("topology %s: dim %s: GPU %d in multiple groups", t.Name, dim.Name, gpu)
				}
				seen[gpu] = true
				if dim.GroupOf(gpu) != g {
					return fmt.Errorf("topology %s: dim %s: groupOf(%d)=%d want %d", t.Name, dim.Name, gpu, dim.GroupOf(gpu), g)
				}
			}
		}
		if dim.Beta <= 0 {
			return fmt.Errorf("topology %s: dim %s has non-positive beta", t.Name, dim.Name)
		}
		if dim.alphaOf != nil && len(dim.alphaOf) != len(dim.Groups) {
			return fmt.Errorf("topology %s: dim %s has %d alpha overrides for %d groups", t.Name, dim.Name, len(dim.alphaOf), len(dim.Groups))
		}
		if dim.betaOf != nil && len(dim.betaOf) != len(dim.Groups) {
			return fmt.Errorf("topology %s: dim %s has %d beta overrides for %d groups", t.Name, dim.Name, len(dim.betaOf), len(dim.Groups))
		}
		for g := range dim.Groups {
			if dim.BetaOf(g) <= 0 {
				return fmt.Errorf("topology %s: dim %s group %d has non-positive beta %g", t.Name, dim.Name, g, dim.BetaOf(g))
			}
			if dim.AlphaOf(g) < 0 {
				return fmt.Errorf("topology %s: dim %s group %d has negative alpha %g", t.Name, dim.Name, g, dim.AlphaOf(g))
			}
		}
	}
	return nil
}

// NumPortClasses returns the number of distinct physical port classes.
func (t *Topology) NumPortClasses() int {
	max := -1
	for _, dim := range t.Dims {
		if dim.PortClass > max {
			max = dim.PortClass
		}
	}
	return max + 1
}

// ClassShare returns the fraction of total per-GPU port capacity owned by
// a port class (the u of §4.2 step 2, at physical-port granularity:
// dimensions sharing a NIC share one budget). Classes not present return
// zero.
func (t *Topology) ClassShare(class int) float64 {
	caps := map[int]float64{}
	for _, dim := range t.Dims {
		if cur, ok := caps[dim.PortClass]; !ok || dim.Bandwidth() > cur {
			caps[dim.PortClass] = dim.Bandwidth()
		}
	}
	total := 0.0
	for _, c := range caps {
		total += c
	}
	if total == 0 {
		return 0
	}
	return caps[class] / total
}

// BandwidthShare returns the fraction of total per-GPU port capacity
// available to dimension d (the u_d of §4.2 step 2): its port class's
// share. Dimensions sharing a physical port report the same share and
// must divide it between them.
func (t *Topology) BandwidthShare(d int) float64 {
	return t.ClassShare(t.Dims[d].PortClass)
}

// Fingerprint returns a canonical identity string for the topology's
// synthesis-relevant structure: GPU count and, per extracted dimension,
// its (α, β) link class, port class, exact group membership, and any
// per-group degradation overrides. Two topologies with equal fingerprints
// produce identical sketch searches and identical sub-demands, so the
// fingerprint keys cross-request caches (internal/engine). Name, raw
// nodes, and links are deliberately excluded: they do not influence
// synthesis once dimensions are extracted.
//
// A group's effective α/β is rendered only where it differs from the
// dimension-level values — an unrendered group has the dimension's — so
// the rendering stays canonical while a degraded topology can never
// alias its healthy twin in the engine/persist key space.
func (t *Topology) Fingerprint() string {
	// Every preset up to 64 GPUs fits the buffer, which stays on the
	// stack: one allocation, the string's.
	b := strconv.AppendInt(append(make([]byte, 0, 512), 'n'), int64(t.NumGPUs()), 10)
	for _, d := range t.Dims {
		b = appendG9(append(b, ";d(a"...), d.Alpha)
		b = appendG9(append(b, ",b"...), d.Beta)
		b = strconv.AppendInt(append(b, ",c"...), int64(d.PortClass), 10)
		for g, grp := range d.Groups {
			b = append(b, ",g"...)
			for i, gpu := range grp {
				if i > 0 {
					b = append(b, '.')
				}
				b = strconv.AppendInt(b, int64(gpu), 10)
			}
			if a, be := d.AlphaOf(g), d.BetaOf(g); a != d.Alpha || be != d.Beta {
				b = appendG9(append(b, "@a"...), a)
				b = appendG9(append(b, "@b"...), be)
			}
		}
		b = append(b, ')')
	}
	return string(b)
}

// appendG9 renders v as fmt's %.9g does.
func appendG9(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', 9, 64)
}

// String summarizes the topology.
func (t *Topology) String() string {
	s := fmt.Sprintf("%s: %d GPUs, %d dims", t.Name, t.NumGPUs(), len(t.Dims))
	for _, d := range t.Dims {
		s += fmt.Sprintf("; %s×%d groups of %d (%.1f GBps)", d.Name, len(d.Groups), len(d.Groups[0]), d.Bandwidth()/1e9)
	}
	return s
}

// setGroupCosts installs per-group α/β as overrides when some group's
// cost differs from the dimension-level one; otherwise the dimension
// keeps none, the healthy case.
func (d *Dim) setGroupCosts(alpha, beta []float64) {
	for g := range alpha {
		if alpha[g] != d.Alpha || beta[g] != d.Beta {
			d.alphaOf, d.betaOf = alpha, beta
			return
		}
	}
}

// newDim builds a Dim with its reverse index populated.
func newDim(id int, name string, alpha, beta float64, portClass int, groups [][]int, numGPUs int) *Dim {
	d := &Dim{ID: id, Name: name, Alpha: alpha, Beta: beta, PortClass: portClass, Groups: groups, groupOf: make([]int, numGPUs)}
	for i := range d.groupOf {
		d.groupOf[i] = -1
	}
	for g, grp := range groups {
		sort.Ints(grp)
		for _, gpu := range grp {
			d.groupOf[gpu] = g
		}
	}
	return d
}
