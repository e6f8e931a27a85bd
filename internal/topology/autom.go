package topology

import "slices"

// Automorphisms returns a family of verified GPU permutations that
// preserve every dimension's group partition. It is richer than the
// regular action in Symmetry: besides global axis shifts it includes
// root-stabilizing elements (tail rotations, transpositions), which
// sketch replication needs to rebalance a Broadcast without moving its
// root (Fig 10 maps D1.G1→D1.G3 while GPU 0 stays fixed). The first
// permutation is always the identity.
//
// Every candidate is validated against the topology, so over-generation
// is harmless. The family is generated on the first call, safely under
// concurrent callers, and lives (and is released) with the topology.
// Callers must not modify it.
func (t *Topology) Automorphisms() [][]int {
	t.autom.once.Do(func() { t.autom.perms = generateAutomorphisms(t) })
	return t.autom.perms
}

const maxAutomorphisms = 4096

// generateAutomorphisms enumerates products of the two axes' candidate
// permutations, server axis outer. Each axis list holds distinct
// permutations with its global shifts first (the identity leading), so
// distinct pairs give distinct products and the identity comes first.
func generateAutomorphisms(top *Topology) [][]int {
	sym := top.Sym
	sRaw, gRaw := axisPerms(sym.Server), axisPerms(sym.Local)
	sPerms, gPerms := distinct(sRaw), distinct(gRaw)

	var out [][]int
	emit := func(sp, gp []int) {
		if len(out) >= maxAutomorphisms {
			return
		}
		perm := make([]int, top.NumGPUs())
		g := sym.Local.N
		for i := range perm {
			perm[i] = sp[i/g]*g + gp[i%g]
		}
		if groupPreserving(top, perm) {
			out = append(out, perm)
		}
	}

	// The cap is checked on the candidate counts before deduplication.
	if len(sRaw)*len(gRaw) <= maxAutomorphisms {
		for _, sp := range sPerms {
			for _, gp := range gPerms {
				emit(sp, gp)
			}
		}
		return out
	}
	// Too many combinations: keep global-shift products plus each axis's
	// other candidates against the other axis's identity.
	nS, nG := max(sym.Server.N, 1), max(sym.Local.N, 1)
	for _, sp := range sPerms[:nS] {
		for _, gp := range gPerms[:nG] {
			emit(sp, gp)
		}
	}
	for _, sp := range sPerms[nS:] {
		emit(sp, gPerms[0])
	}
	for _, gp := range gPerms[nG:] {
		emit(sPerms[0], gp)
	}
	return out
}

// distinct returns perms without repeats, first occurrences in order.
func distinct(perms [][]int) [][]int {
	out := make([][]int, 0, len(perms))
	for _, p := range perms {
		if !slices.ContainsFunc(out, func(q []int) bool { return slices.Equal(p, q) }) {
			out = append(out, p)
		}
	}
	return out
}

// axisPerms over-generates candidate axis permutations: the axis's
// global shifts (XOR masks or cyclic rotations, shift 0 first), then
// rotations of the tail fixing index 0, and (for small axes)
// transpositions. Invalid candidates are filtered by the topology check.
func axisPerms(a Axis) [][]int {
	n := max(a.N, 1)
	var out [][]int
	for m := 0; m < n; m++ {
		p := make([]int, n)
		for x := range p {
			p[x] = a.apply(m, x)
		}
		out = append(out, p)
	}
	if n == 1 {
		return out
	}
	// Tail rotations fixing 0 (valid on flat axes).
	for k := 1; k < n-1; k++ {
		p := make([]int, n)
		for x := 1; x < n; x++ {
			p[1+((x-1+k)%(n-1))] = x
		}
		q := make([]int, n)
		for i, v := range p {
			q[v] = i
		}
		q[0] = 0
		out = append(out, q)
	}
	// Transpositions for small axes (within-block swaps survive the
	// validity filter on hierarchical axes).
	if n <= 10 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				p := slices.Clone(out[0]) // the identity
				p[i], p[j] = j, i
				out = append(out, p)
			}
		}
	}
	return out
}

func groupPreserving(top *Topology, perm []int) bool {
	for _, dim := range top.Dims {
		for g, grp := range dim.Groups {
			img := dim.GroupOf(perm[grp[0]])
			for _, gpu := range grp[1:] {
				if dim.GroupOf(perm[gpu]) != img {
					return false
				}
			}
			// On degraded topologies groups of one dimension can carry
			// different α/β; a true symmetry must map groups onto
			// equally-costed groups, and must not change group size
			// (degraded partitions need not be uniform).
			if img >= 0 {
				if dim.GroupSize(img) != len(grp) ||
					dim.AlphaOf(img) != dim.AlphaOf(g) || dim.BetaOf(img) != dim.BetaOf(g) {
					return false
				}
			}
		}
	}
	return true
}
