package topology

// Automorphisms returns a family of verified GPU permutations that
// preserve every dimension's group partition. It is richer than the
// regular action in Symmetry: besides global axis shifts it includes
// root-stabilizing elements (tail rotations, transpositions), which
// sketch replication needs to rebalance a Broadcast without moving its
// root (Fig 10 maps D1.G1→D1.G3 while GPU 0 stays fixed).
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

func generateAutomorphisms(top *Topology) [][]int {
	sym := top.Sym
	sPerms := axisPerms(sym.Server)
	gPerms := axisPerms(sym.Local)

	var out [][]int
	seen := map[string]bool{}
	emit := func(sp, gp []int) {
		if len(out) >= maxAutomorphisms {
			return
		}
		perm := make([]int, top.NumGPUs())
		g := sym.Local.N
		for i := range perm {
			perm[i] = sp[i/g]*g + gp[i%g]
		}
		key := permKey(perm)
		if seen[key] {
			return
		}
		if !groupPreserving(top, perm) {
			return
		}
		seen[key] = true
		out = append(out, perm)
	}

	if len(sPerms)*len(gPerms) <= maxAutomorphisms {
		for _, sp := range sPerms {
			for _, gp := range gPerms {
				emit(sp, gp)
			}
		}
	} else {
		// Too many combinations: keep global-shift products plus each
		// axis's full family against the other axis's identity.
		sGlobal := globalShifts(sym.Server)
		gGlobal := globalShifts(sym.Local)
		for _, sp := range sGlobal {
			for _, gp := range gGlobal {
				emit(sp, gp)
			}
		}
		idS, idG := identity(sym.Server.N), identity(sym.Local.N)
		for _, sp := range sPerms {
			emit(sp, idG)
		}
		for _, gp := range gPerms {
			emit(idS, gp)
		}
	}
	return out
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// globalShifts returns the axis's transitive shift family (XOR masks or
// cyclic rotations).
func globalShifts(a Axis) [][]int {
	n := a.N
	if n <= 0 {
		n = 1
	}
	out := make([][]int, 0, n)
	for m := 0; m < n; m++ {
		p := make([]int, n)
		for x := 0; x < n; x++ {
			if a.Xor {
				p[x] = x ^ m
			} else {
				p[x] = (x + m) % n
			}
		}
		out = append(out, p)
	}
	return out
}

// axisPerms over-generates candidate axis permutations: global shifts,
// rotations of the tail fixing index 0, and (for small axes)
// transpositions. Invalid candidates are filtered by the topology check.
func axisPerms(a Axis) [][]int {
	n := a.N
	if n <= 1 {
		return [][]int{identity(max(n, 1))}
	}
	var out [][]int
	out = append(out, globalShifts(a)...)
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
				p := identity(n)
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

func permKey(p []int) string {
	b := make([]byte, 0, len(p)*2)
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8))
	}
	return string(b)
}
