// Package sketch implements SyCCL's central concept: the decomposition of
// a collective demand into per-group sub-demands across time stages (§3.2,
// §4), the enumeration-based search with symmetry prunings (§4.1), the
// replication and chunk-allocation machinery that forms sketch
// combinations (§4.2), and the extension to all-to-all collectives (§4.3).
package sketch

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"syccl/internal/topology"
)

// SubDemand is R_{k,d,g} (Table 3): destination GPUs expect to receive
// chunks from source GPUs, within group Group of dimension Dim.
type SubDemand struct {
	Dim   int
	Group int
	Srcs  []int // global GPU IDs holding the payload, sorted
	Dsts  []int // global GPU IDs to be covered, sorted
}

// Stage is the set of sub-demands executing concurrently at one stage.
type Stage []SubDemand

// Sketch describes how one chunk (Broadcast) or one chunk bundle
// (Scatter) flows from Root to all other GPUs through K stages.
type Sketch struct {
	Root    int
	Scatter bool // per-destination distinct chunks (Scatter tree semantics)
	Stages  []Stage
}

// Clone returns a deep copy. The stages' sub-demands and their GPU lists
// are cut, without spare capacity, from one array each.
func (s *Sketch) Clone() *Sketch {
	subs, gpus := 0, 0
	for _, st := range s.Stages {
		subs += len(st)
		for _, sd := range st {
			gpus += len(sd.Srcs) + len(sd.Dsts)
		}
	}
	sds := make([]SubDemand, subs)
	ids := make([]int, gpus)
	cut := func(from []int) []int {
		if len(from) == 0 {
			return nil
		}
		out := ids[:len(from):len(from)]
		ids = ids[copy(out, from):]
		return out
	}
	out := &Sketch{Root: s.Root, Scatter: s.Scatter, Stages: make([]Stage, len(s.Stages))}
	for k, st := range s.Stages {
		out.Stages[k], sds = sds[:len(st):len(st)], sds[len(st):]
		for i, sd := range st {
			out.Stages[k][i] = SubDemand{Dim: sd.Dim, Group: sd.Group, Srcs: cut(sd.Srcs), Dsts: cut(sd.Dsts)}
		}
	}
	return out
}

// Validate checks sketch invariants against a topology: sources must be
// informed before their stage, each GPU is a destination at most once, and
// every sub-demand stays within its declared group. A missing dimension or
// an out-of-range GPU is an error too.
func (s *Sketch) Validate(top *topology.Topology) error {
	return s.validate(top, make([]int32, top.NumGPUs()))
}

// validate is Validate with its state array, top.NumGPUs() long, passed
// in: state[g] is 0 while GPU g is uninformed, else 1 + the stage that
// informed it, the root's stage being 0. It is cleared first.
func (s *Sketch) validate(top *topology.Topology, state []int32) error {
	clear(state)
	if s.Root < 0 || s.Root >= len(state) {
		return fmt.Errorf("sketch: root %d out of range", s.Root)
	}
	state[s.Root] = 1
	for k, st := range s.Stages {
		// A GPU informed before stage k has 0 < state ≤ before.
		before := int32(k + 1)
		for _, sd := range st {
			if sd.Dim < 0 || sd.Dim >= top.NumDims() {
				return fmt.Errorf("sketch: stage %d: missing dimension %d", k, sd.Dim)
			}
			dim := top.Dim(sd.Dim)
			for _, src := range sd.Srcs {
				if src < 0 || src >= len(state) || state[src] == 0 || state[src] > before {
					return fmt.Errorf("sketch: stage %d: source %d not informed", k, src)
				}
				if dim.GroupOf(src) != sd.Group {
					return fmt.Errorf("sketch: stage %d: source %d not in dim %d group %d", k, src, sd.Dim, sd.Group)
				}
			}
			for _, dst := range sd.Dsts {
				if dst >= 0 && dst < len(state) && state[dst] != 0 {
					return fmt.Errorf("sketch: stage %d: GPU %d is a destination twice", k, dst)
				}
				if dst < 0 || dst >= len(state) || dim.GroupOf(dst) != sd.Group {
					return fmt.Errorf("sketch: stage %d: destination %d not in dim %d group %d", k, dst, sd.Dim, sd.Group)
				}
				state[dst] = before + 1
			}
			if len(sd.Srcs) == 0 || len(sd.Dsts) == 0 {
				return fmt.Errorf("sketch: stage %d has empty sub-demand", k)
			}
		}
	}
	return nil
}

// ScatterTree is the canonical routing forest of a Scatter sketch: each
// destination's parent is a source of the sub-demand that informs it,
// round-robin over the sub-demand's sorted sources, and a GPU's subtree is
// itself plus every destination whose chunk it relays. Scatter workload
// accounting weighs deliveries by subtree size, and core routes each final
// destination's piece along the tree; the sub-schedule solver remains free
// to schedule within each group. The arrays are flat and reused by the
// next Build.
type ScatterTree struct {
	parent []int32 // canonical parent; -1 for the root and GPUs no stage informs
	mark   []int32 // Build's scratch: resolution state, then fill cursors
	start  []int32 // desc[start[v]:start[v+1]] is v's subtree, ascending
	desc   []int32
	path   []int32
}

// Build computes the tree of sketch s over numGPUs GPUs. Every destination
// must reach the root through its parents; a destination or root out of
// range, a sub-demand without sources, the root as a destination, a
// parent that no earlier stage informs and a parent cycle are errors, and
// the destinations concerned (with everything routed through them) are
// left out of every subtree.
func (t *ScatterTree) Build(s *Sketch, numGPUs int) error {
	n := numGPUs
	t.parent = resize(t.parent, n)
	t.mark = resize(t.mark, n)
	t.start = resize(t.start, n+1)
	for v := range t.parent {
		t.parent[v], t.mark[v] = -1, 0
	}
	clear(t.start) // every subtree empty until the end
	if s.Root < 0 || s.Root >= n {
		return fmt.Errorf("sketch: root %d out of range", s.Root)
	}
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	for k, st := range s.Stages {
		for _, sd := range st {
			for i, d := range sd.Dsts {
				switch {
				case d < 0 || d >= n:
					fail(fmt.Errorf("sketch: stage %d: destination %d out of range", k, d))
				case len(sd.Srcs) == 0:
					fail(fmt.Errorf("sketch: stage %d has empty sub-demand", k))
				case d == s.Root:
					fail(fmt.Errorf("sketch: stage %d: root %d is a destination", k, d))
				default:
					p := sd.Srcs[i%len(sd.Srcs)]
					if p < 0 || p >= n {
						p = -1 // reaches nothing
					}
					t.parent[d] = int32(p)
					t.mark[d] = unresolved
				}
			}
		}
	}

	// Resolve every destination's chain, memoized: it reaches the root, or
	// a GPU no stage informs, or runs into a cycle.
	root := int32(s.Root)
	t.mark[root] = reachesRoot
	for v := range t.parent {
		if t.mark[v] != unresolved {
			continue
		}
		t.path = t.path[:0]
		cur := int32(v)
		for cur >= 0 && t.mark[cur] == unresolved {
			t.mark[cur] = onPath
			t.path = append(t.path, cur)
			cur = t.parent[cur]
		}
		state := int32(cutOff)
		switch {
		case cur < 0 || t.mark[cur] == 0:
			fail(fmt.Errorf("sketch: GPU %d's chunk is routed through a GPU no stage informs", v))
		case t.mark[cur] == onPath:
			fail(fmt.Errorf("sketch: GPU %d's chunk is routed in a cycle", v))
		default:
			state = t.mark[cur] // reachesRoot or cutOff
		}
		for _, u := range t.path {
			t.mark[u] = state
		}
	}

	// Count every subtree, then fill the lists in ascending GPU order so
	// each comes out sorted.
	for v := range t.parent {
		if t.mark[v] == reachesRoot {
			for u := int32(v); ; u = t.parent[u] {
				t.start[u+1]++
				if u == root {
					break
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		t.start[v+1] += t.start[v]
	}
	t.desc = resize(t.desc, int(t.start[n]))
	copy(t.mark, t.start[:n])
	for v := range t.parent {
		if t.start[v+1] == t.start[v] {
			continue // not in the tree
		}
		for u := int32(v); ; u = t.parent[u] {
			t.desc[t.mark[u]] = int32(v)
			t.mark[u]++
			if u == root {
				break
			}
		}
	}
	return err
}

// Resolution states of ScatterTree.Build; 0 is a GPU no stage informs.
const (
	unresolved = iota + 1
	onPath
	reachesRoot
	cutOff
)

func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Subtree lists v's subtree in ascending order: v itself and every
// destination routed through it. It is empty when v is not in the tree.
func (t *ScatterTree) Subtree(v int) []int32 {
	if v < 0 || v >= len(t.parent) {
		return nil
	}
	return t.desc[t.start[v]:t.start[v+1]]
}

// Size is len(Subtree(v)).
func (t *ScatterTree) Size(v int) int { return len(t.Subtree(v)) }

// Workload computes w_{d,g} (§4.2): for Broadcast, the number of
// deliveries each group carries; for Scatter, deliveries weighted by the
// receiving GPU's subtree size (a GPU with f descendants receives f+1
// chunks through its inbound edge).
func (s *Sketch) Workload(top *topology.Topology) [][]float64 {
	off := groupOffsets(top)
	flat := make([]float64, off[len(off)-1])
	s.addWorkload(top, new(ScatterTree), flat, off)
	w := make([][]float64, top.NumDims())
	for d := range w {
		w[d] = flat[off[d]:off[d+1]:off[d+1]]
	}
	return w
}

// groupOffsets lays the (dimension, group) pairs of top out flat:
// dimension d's groups are at off[d]:off[d+1], off[NumDims] in all.
func groupOffsets(top *topology.Topology) []int {
	off := make([]int, top.NumDims()+1)
	for d, dim := range top.Dims {
		off[d+1] = off[d] + len(dim.Groups)
	}
	return off
}

// addWorkload adds Workload to the flat w laid out by off; tree is
// scratch for a scatter sketch.
func (s *Sketch) addWorkload(top *topology.Topology, tree *ScatterTree, w []float64, off []int) {
	if s.Scatter {
		_ = tree.Build(s, top.NumGPUs()) // destinations it leaves out weigh 0
	}
	for _, st := range s.Stages {
		for _, sd := range st {
			for _, dst := range sd.Dsts {
				if s.Scatter {
					w[off[sd.Dim]+sd.Group] += float64(tree.Size(dst))
				} else {
					w[off[sd.Dim]+sd.Group]++
				}
			}
		}
	}
}

// addMappedWorkload adds the Workload of the broadcast sketch
// s.Map(top, perm) to the flat w laid out by off: every sub-demand's
// deliveries land in the group its sources map to.
func (s *Sketch) addMappedWorkload(top *topology.Topology, perm []int, w []float64, off []int) {
	for _, st := range s.Stages {
		for _, sd := range st {
			g := top.Dim(sd.Dim).GroupOf(perm[sd.Srcs[0]])
			w[off[sd.Dim]+g] += float64(len(sd.Dsts))
		}
	}
}

// DimWorkload sums Workload over groups per dimension.
func (s *Sketch) DimWorkload(top *topology.Topology) []float64 {
	w := s.Workload(top)
	out := make([]float64, len(w))
	for d := range w {
		for _, v := range w[d] {
			out[d] += v
		}
	}
	return out
}

// Map applies a GPU permutation to the sketch, recomputing group indices
// from the topology. perm must be an automorphism (group-preserving), as
// produced by topology.Symmetry. The copy is laid out as Clone's.
func (s *Sketch) Map(top *topology.Topology, perm []int) *Sketch {
	return newCopyArena(s, 1).mapped(top, s, perm)
}

// copyArena holds room for mapped copies of one sketch: every copy has
// its shape, so the copies' Sketch structs, stage lists, sub-demands and
// GPU lists are cut, without spare capacity, from one array each. A copy
// lives as long as any copy of its arena is referenced.
type copyArena struct {
	sketches []Sketch
	stages   []Stage
	subs     []SubDemand
	ids      []int
	// the shape of one copy
	nStages, nSubs, nIDs int
}

// newCopyArena returns an arena with room for copies copies of s.
func newCopyArena(s *Sketch, copies int) *copyArena {
	a := &copyArena{nStages: len(s.Stages)}
	for _, st := range s.Stages {
		a.nSubs += len(st)
		for _, sd := range st {
			a.nIDs += len(sd.Srcs) + len(sd.Dsts)
		}
	}
	a.sketches = make([]Sketch, copies)
	a.stages = make([]Stage, copies*a.nStages)
	a.subs = make([]SubDemand, copies*a.nSubs)
	a.ids = make([]int, copies*a.nIDs)
	return a
}

// mapped writes s under perm into the arena's next free slots, as Map
// does, and returns it. The slots stay free until keep: the next call
// overwrites them.
func (a *copyArena) mapped(top *topology.Topology, s *Sketch, perm []int) *Sketch {
	ids := a.ids
	cut := func(from []int) []int {
		if len(from) == 0 {
			return nil
		}
		out := ids[:len(from):len(from)]
		ids = ids[len(from):]
		for i, v := range from {
			out[i] = perm[v]
		}
		slices.Sort(out)
		return out
	}
	out := &a.sketches[0]
	*out = Sketch{Root: perm[s.Root], Scatter: s.Scatter, Stages: a.stages[:a.nStages:a.nStages]}
	sds := a.subs
	for k, st := range s.Stages {
		out.Stages[k], sds = sds[:len(st):len(st)], sds[len(st):]
		for i, sd := range st {
			nd := SubDemand{Dim: sd.Dim, Srcs: cut(sd.Srcs), Dsts: cut(sd.Dsts)}
			nd.Group = top.Dim(sd.Dim).GroupOf(nd.Srcs[0])
			out.Stages[k][i] = nd
		}
	}
	return out
}

// keep commits the copy mapped last: later copies take the slots after
// it.
func (a *copyArena) keep() {
	a.sketches = a.sketches[1:]
	a.stages = a.stages[a.nStages:]
	a.subs = a.subs[a.nSubs:]
	a.ids = a.ids[a.nIDs:]
}

// Descriptor returns the canonical structural key used by pruning #1:
// sketches generated with canonical destination selection that share a
// descriptor are isomorphic under the topology's symmetry.
func (s *Sketch) Descriptor() string {
	var buf [256]byte
	var parts [32]descPart
	b, _ := s.appendDescriptor(buf[:0], parts[:0])
	return string(b)
}

// appendDescriptor appends Descriptor to b. parts is scratch, returned for
// reuse.
func (s *Sketch) appendDescriptor(b []byte, parts []descPart) ([]byte, []descPart) {
	if s.Scatter {
		b = append(b, "S|"...)
	} else {
		b = append(b, "B|"...)
	}
	for k, st := range s.Stages {
		parts = parts[:0]
		for _, sd := range st {
			parts = append(parts, descPart{sd.Dim, len(sd.Srcs), len(sd.Dsts)})
		}
		slices.SortFunc(parts, comparePart)
		b = append(strconv.AppendInt(append(b, 'k'), int64(k), 10), '[')
		for i, p := range parts {
			if i > 0 {
				b = append(b, ',')
			}
			b = p.append(b)
		}
		b = append(b, ']')
	}
	return b, parts
}

// descPart is one sub-demand's share of a descriptor: its dimension,
// source count and destination count, rendered "d<dim>:s<srcs>:r<dsts>".
type descPart [3]int

func (p descPart) append(b []byte) []byte {
	b = strconv.AppendInt(append(b, 'd'), int64(p[0]), 10)
	b = strconv.AppendInt(append(b, ":s"...), int64(p[1]), 10)
	return strconv.AppendInt(append(b, ":r"...), int64(p[2]), 10)
}

// comparePart orders parts as their renderings sort.
func comparePart(x, y descPart) int {
	if x == y {
		return 0
	}
	var bx, by [64]byte
	return bytes.Compare(x.append(bx[:0]), y.append(by[:0]))
}

// appendExact appends the concrete GPU sets to a descriptor — per
// sub-demand, "|[srcs]>[dsts]" with space-separated GPU IDs — so that,
// with pruning #1 disabled, only literally identical sketches collapse.
func (s *Sketch) appendExact(b []byte) []byte {
	for _, st := range s.Stages {
		for _, sd := range st {
			b = appendIntList(append(b, '|'), sd.Srcs)
			b = appendIntList(append(b, '>'), sd.Dsts)
		}
	}
	return b
}

func appendIntList(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// String renders the sketch compactly for logs and debugging.
func (s *Sketch) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sketch(root=%d", s.Root)
	if s.Scatter {
		sb.WriteString(",scatter")
	}
	sb.WriteString(")")
	for k, st := range s.Stages {
		fmt.Fprintf(&sb, " stage%d{", k)
		for i, sd := range st {
			if i > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "D%d.G%d:%v→%v", sd.Dim, sd.Group, sd.Srcs, sd.Dsts)
		}
		sb.WriteString("}")
	}
	return sb.String()
}
