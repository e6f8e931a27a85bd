package sketch

import (
	"math"

	"syccl/internal/lp"
	"syccl/internal/topology"
)

// Combination is a set of sketches with chunk-size ratios (§4.2): sketch
// Sketches[i] transmits fraction Fracs[i] of each chunk; fractions sum
// to 1.
type Combination struct {
	Sketches []*Sketch
	Fracs    []float64
}

// Single wraps one sketch carrying the whole chunk.
func Single(sk *Sketch) *Combination {
	return &Combination{Sketches: []*Sketch{sk}, Fracs: []float64{1}}
}

// Split returns the combination pipelined k ways: every sketch repeated
// k times in a row, each copy carrying Fracs/k of the chunk.
func (c *Combination) Split(k int) *Combination {
	out := &Combination{
		Sketches: make([]*Sketch, 0, k*len(c.Sketches)),
		Fracs:    make([]float64, 0, k*len(c.Fracs)),
	}
	for i, sk := range c.Sketches {
		for j := 0; j < k; j++ {
			out.Sketches = append(out.Sketches, sk)
			out.Fracs = append(out.Fracs, c.Fracs[i]/float64(k))
		}
	}
	return out
}

// Workload returns the fraction-weighted per-dimension, per-group
// workload of the combination.
func (c *Combination) Workload(top *topology.Topology) [][]float64 {
	w := make([][]float64, top.NumDims())
	for d := range w {
		w[d] = make([]float64, len(top.Dim(d).Groups))
	}
	for i, sk := range c.Sketches {
		sw := sk.Workload(top)
		for d := range sw {
			for g := range sw[d] {
				w[d][g] += c.Fracs[i] * sw[d][g]
			}
		}
	}
	return w
}

// DimWorkload sums Workload per dimension.
func (c *Combination) DimWorkload(top *topology.Topology) []float64 {
	w := c.Workload(top)
	out := make([]float64, len(w))
	for d := range w {
		for _, v := range w[d] {
			out[d] += v
		}
	}
	return out
}

// imbalance measures, per dimension, the spread between the most and
// least loaded active groups, summed over dimensions with any load.
func imbalance(w [][]float64) float64 {
	total := 0.0
	for d := range w {
		lo, hi := math.Inf(1), 0.0
		for _, v := range w[d] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi > 0 {
			total += hi - lo
		}
	}
	return total
}

// deficit is the replication objective: the total headroom below each
// dimension's most loaded group, Σ_d Σ_g (max_g' w[d][g'] − w[d][g]).
// Unlike max−min it strictly decreases as under-loaded groups fill, which
// lets the greedy replica selection make progress one replica at a time.
func deficit(w [][]float64) float64 {
	total := 0.0
	for d := range w {
		hi := 0.0
		for _, v := range w[d] {
			if v > hi {
				hi = v
			}
		}
		for _, v := range w[d] {
			total += hi - v
		}
	}
	return total
}

// deficitPlus is deficit(a + b), without building the sum.
func deficitPlus(a, b [][]float64) float64 {
	total := 0.0
	for d := range a {
		hi := 0.0
		for g, v := range a[d] {
			if s := v + b[d][g]; s > hi {
				hi = s
			}
		}
		for g, v := range a[d] {
			total += hi - (v + b[d][g])
		}
	}
	return total
}

// Replicate implements §4.2 step 1: it replicates the sketch through the
// topology's symmetry action until the workload is balanced across groups
// in every dimension, and returns the resulting equal-fraction
// combination. maxReplicas ≤ 0 defaults to the symmetry order.
func Replicate(top *topology.Topology, sk *Sketch, maxReplicas int) *Combination {
	perms := top.Automorphisms()
	if maxReplicas <= 0 {
		maxReplicas = len(perms)
	}

	sketches := []*Sketch{sk}
	load := sk.Workload(top)

	// The workload of the sketch under every non-identity automorphism.
	// A broadcast sketch's is its own moved group by group — each
	// sub-demand lands in the group its sources map to — so only the
	// replicas chosen below are mapped; a scatter sketch's depends on
	// its mapped tree, so it is mapped up front.
	type variant struct {
		perm []int
		sk   *Sketch
		w    [][]float64
	}
	variants := make([]variant, 0, len(perms))
	for _, p := range perms {
		if isIdentityPerm(p) {
			continue
		}
		v := variant{perm: p}
		if sk.Scatter {
			v.sk = sk.Map(top, p)
			v.w = v.sk.Workload(top)
		} else {
			v.w = sk.mappedWorkload(top, p)
		}
		variants = append(variants, v)
	}

	for len(sketches) < maxReplicas {
		cur := deficit(load)
		if cur < 1e-9 {
			break
		}
		bestIdx, bestScore := -1, cur
		for i, v := range variants {
			score := deficitPlus(load, v.w)
			if score < bestScore-1e-12 {
				bestScore = score
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break // no replica improves balance further
		}
		v := &variants[bestIdx]
		if v.sk == nil {
			v.sk = sk.Map(top, v.perm)
		}
		sketches = append(sketches, v.sk)
		for d := range load {
			for g := range load[d] {
				load[d][g] += v.w[d][g]
			}
		}
	}

	fracs := make([]float64, len(sketches))
	for i := range fracs {
		fracs[i] = 1 / float64(len(sketches))
	}
	return &Combination{Sketches: sketches, Fracs: fracs}
}

func isIdentityPerm(p []int) bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}

// ExpandAllToAll implements §4.3: replicate a one-to-all sketch to every
// GPU as root through the regular symmetry action, producing an N-sketch
// combination with even per-dimension workload.
//
// On a healthy topology the regular action always yields valid mappings.
// On degraded topologies (topology.Delta applied) a Sym permutation may
// no longer be an automorphism, so every mapped sketch is validated; when
// the regular action fails for a root, the verified automorphism family
// is scanned for a permutation carrying the root there. Roots that no
// symmetry can reach are returned in missing (ascending) for the caller
// to fill with a per-root sketch search; the returned combination holds
// the successfully mapped sketches in ascending root order.
func ExpandAllToAll(top *topology.Topology, sk *Sketch) (combo *Combination, missing []int) {
	n := top.NumGPUs()
	sketches := make([]*Sketch, 0, n)
	var autos [][]int // lazily fetched verified automorphisms
	for r := 0; r < n; r++ {
		if r == sk.Root {
			sketches = append(sketches, sk)
			continue
		}
		p := top.Sym.MapRoot(sk.Root, r)
		if m := sk.Map(top, top.Sym.Permutation(p)); m.Validate(top) == nil {
			sketches = append(sketches, m)
			continue
		}
		if autos == nil {
			autos = top.Automorphisms()
		}
		found := false
		for _, perm := range autos {
			if perm[sk.Root] != r {
				continue
			}
			if m := sk.Map(top, perm); m.Validate(top) == nil {
				sketches = append(sketches, m)
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, r)
		}
	}
	fracs := make([]float64, len(sketches))
	for i := range fracs {
		fracs[i] = 1 // each root's chunk is carried whole by its sketch
	}
	return &Combination{Sketches: sketches, Fracs: fracs}, missing
}

// Integrate implements §4.2 step 2: given one combination per "flavor"
// (typically each favoring a different dimension), find chunk ratios θ_i
// so that the per-dimension workload matches the topology's bandwidth
// shares u_d, fully utilizing every dimension. Returns nil when no valid
// allocation exists (e.g. all inputs load the same dimension).
func Integrate(top *topology.Topology, combos []*Combination) *Combination {
	if len(combos) == 0 {
		return nil
	}
	if len(combos) == 1 {
		return combos[0]
	}
	// Budgets are per physical PORT CLASS: dimensions sharing a NIC share
	// one bandwidth budget, so their workloads aggregate.
	nc := top.NumPortClasses()
	W := make([][]float64, len(combos)) // W[i][class]
	for i, c := range combos {
		dw := c.DimWorkload(top)
		W[i] = make([]float64, nc)
		for d, v := range dw {
			W[i][top.Dim(d).PortClass] += v
		}
	}
	u := make([]float64, nc)
	for cl := 0; cl < nc; cl++ {
		u[cl] = top.ClassShare(cl)
	}

	// LP: variables θ_i ≥ 0 (Σθ=1) and per-class deviation slacks ε ≥ 0.
	// Σ_i θ_i·W[i][c] − u_c·T = ±ε_c where T = Σ_c Σ_i θ_i·W[i][c].
	// Minimize Σ ε_c.
	p := lp.NewProblem(len(combos) + nc)
	for cl := 0; cl < nc; cl++ {
		p.SetObjective(len(combos)+cl, 1)
	}
	var sumTerms []lp.Term
	for i := range combos {
		sumTerms = append(sumTerms, lp.Term{Var: i, Coeff: 1})
	}
	p.AddConstraint(sumTerms, lp.EQ, 1)
	for cl := 0; cl < nc; cl++ {
		var hi, lo []lp.Term
		for i := range combos {
			// Coefficient of θ_i in (W_c(θ) − u_c·T(θ)).
			var tot float64
			for cc := 0; cc < nc; cc++ {
				tot += W[i][cc]
			}
			coeff := W[i][cl] - u[cl]*tot
			hi = append(hi, lp.Term{Var: i, Coeff: coeff})
			lo = append(lo, lp.Term{Var: i, Coeff: coeff})
		}
		hi = append(hi, lp.Term{Var: len(combos) + cl, Coeff: -1})
		lo = append(lo, lp.Term{Var: len(combos) + cl, Coeff: 1})
		p.AddConstraint(hi, lp.LE, 0)
		p.AddConstraint(lo, lp.GE, 0)
	}
	sol, err := p.Solve()
	if err != nil || sol.Status != lp.StatusOptimal {
		return nil
	}
	// Reject allocations that leave a class badly mismatched: the
	// residual deviation must be small relative to the total workload.
	var total float64
	for i := range combos {
		for cl := 0; cl < nc; cl++ {
			total += sol.X[i] * W[i][cl]
		}
	}
	if total <= 0 {
		return nil
	}
	var dev float64
	for cl := 0; cl < nc; cl++ {
		dev += sol.X[len(combos)+cl]
	}
	if dev/total > 0.25 {
		return nil
	}

	out := &Combination{}
	for i, c := range combos {
		theta := sol.X[i]
		if theta < 1e-9 {
			continue
		}
		for j, sk := range c.Sketches {
			out.Sketches = append(out.Sketches, sk)
			out.Fracs = append(out.Fracs, theta*c.Fracs[j])
		}
	}
	if len(out.Sketches) == 0 {
		return nil
	}
	return out
}
