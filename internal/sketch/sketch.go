// Package sketch implements SyCCL's central concept: the decomposition of
// a collective demand into per-group sub-demands across time stages (§3.2,
// §4), the enumeration-based search with symmetry prunings (§4.1), the
// replication and chunk-allocation machinery that forms sketch
// combinations (§4.2), and the extension to all-to-all collectives (§4.3).
package sketch

import (
	"fmt"
	"slices"
	"sort"
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

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	out := &Sketch{Root: s.Root, Scatter: s.Scatter, Stages: make([]Stage, len(s.Stages))}
	for k, st := range s.Stages {
		out.Stages[k] = make(Stage, len(st))
		for i, sd := range st {
			out.Stages[k][i] = SubDemand{
				Dim:   sd.Dim,
				Group: sd.Group,
				Srcs:  append([]int(nil), sd.Srcs...),
				Dsts:  append([]int(nil), sd.Dsts...),
			}
		}
	}
	return out
}

// Covered returns the set of GPUs informed by the sketch (root plus all
// destinations).
func (s *Sketch) Covered() map[int]bool {
	out := map[int]bool{s.Root: true}
	for _, st := range s.Stages {
		for _, sd := range st {
			for _, d := range sd.Dsts {
				out[d] = true
			}
		}
	}
	return out
}

// Validate checks sketch invariants against a topology: sources must be
// informed before their stage, each GPU is a destination at most once, and
// every sub-demand stays within its declared group. A missing dimension or
// an out-of-range GPU is an error too.
func (s *Sketch) Validate(top *topology.Topology) error {
	// state[g] is 0 while GPU g is uninformed, else 1 + the stage that
	// informed it, the root's stage being 0.
	state := make([]int32, top.NumGPUs())
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

// Complete reports whether the sketch informs every GPU of the topology.
func (s *Sketch) Complete(top *topology.Topology) bool {
	return len(s.Covered()) == top.NumGPUs()
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
	w := make([][]float64, top.NumDims())
	for d := range w {
		w[d] = make([]float64, len(top.Dim(d).Groups))
	}
	var tree ScatterTree
	if s.Scatter {
		_ = tree.Build(s, top.NumGPUs()) // destinations it leaves out weigh 0
	}
	for _, st := range s.Stages {
		for _, sd := range st {
			for _, dst := range sd.Dsts {
				if s.Scatter {
					w[sd.Dim][sd.Group] += float64(tree.Size(dst))
				} else {
					w[sd.Dim][sd.Group]++
				}
			}
		}
	}
	return w
}

// mappedWorkload is Workload of the broadcast sketch s.Map(top, perm):
// every sub-demand's deliveries land in the group its sources map to.
func (s *Sketch) mappedWorkload(top *topology.Topology, perm []int) [][]float64 {
	w := make([][]float64, top.NumDims())
	for d := range w {
		w[d] = make([]float64, len(top.Dim(d).Groups))
	}
	for _, st := range s.Stages {
		for _, sd := range st {
			g := top.Dim(sd.Dim).GroupOf(perm[sd.Srcs[0]])
			w[sd.Dim][g] += float64(len(sd.Dsts))
		}
	}
	return w
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
// produced by topology.Symmetry.
//
// The stages' sub-demands and their GPU lists are cut, without spare
// capacity, from one array each.
func (s *Sketch) Map(top *topology.Topology, perm []int) *Sketch {
	subs, gpus := 0, 0
	for _, st := range s.Stages {
		subs += len(st)
		for _, sd := range st {
			gpus += len(sd.Srcs) + len(sd.Dsts)
		}
	}
	sds := make([]SubDemand, subs)
	ids := make([]int, gpus)
	mapped := func(from []int) []int {
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
	out := &Sketch{Root: perm[s.Root], Scatter: s.Scatter, Stages: make([]Stage, len(s.Stages))}
	for k, st := range s.Stages {
		out.Stages[k], sds = sds[:len(st):len(st)], sds[len(st):]
		for i, sd := range st {
			nd := SubDemand{Dim: sd.Dim, Srcs: mapped(sd.Srcs), Dsts: mapped(sd.Dsts)}
			nd.Group = top.Dim(sd.Dim).GroupOf(nd.Srcs[0])
			out.Stages[k][i] = nd
		}
	}
	return out
}

// Descriptor returns the canonical structural key used by pruning #1:
// sketches generated with canonical destination selection that share a
// descriptor are isomorphic under the topology's symmetry.
func (s *Sketch) Descriptor() string {
	var sb strings.Builder
	if s.Scatter {
		sb.WriteString("S|")
	} else {
		sb.WriteString("B|")
	}
	for k, st := range s.Stages {
		parts := make([]string, len(st))
		for i, sd := range st {
			parts[i] = fmt.Sprintf("d%d:s%d:r%d", sd.Dim, len(sd.Srcs), len(sd.Dsts))
		}
		sort.Strings(parts)
		fmt.Fprintf(&sb, "k%d[%s]", k, strings.Join(parts, ","))
	}
	return sb.String()
}

// ExactDescriptor includes the concrete GPU sets; used when pruning #1 is
// disabled so only literally identical sketches collapse.
func (s *Sketch) ExactDescriptor() string {
	var sb strings.Builder
	sb.WriteString(s.Descriptor())
	for _, st := range s.Stages {
		for _, sd := range st {
			fmt.Fprintf(&sb, "|%v>%v", sd.Srcs, sd.Dsts)
		}
	}
	return sb.String()
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
