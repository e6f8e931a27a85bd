package topology

import "fmt"

// Axis describes the symmetry action along one axis of the (server ×
// local-index) GPU grid. When N is a power of two the action is the XOR
// group (x → x⊕m), which preserves every aligned power-of-two block
// nesting — exactly the structure our Clos/spine builders create. For
// other sizes the action is the cyclic shift group, valid when the axis
// carries no nested blocks.
type Axis struct {
	N   int
	Xor bool
}

// apply maps index x under shift m.
func (a Axis) apply(m, x int) int {
	if a.N <= 1 {
		return x
	}
	if a.Xor {
		return x ^ m
	}
	return (x + m) % a.N
}

// Symmetry is the topology's automorphism action used for sketch
// replication (§4.2) and all-to-all root mapping (§4.3): the direct
// product of the server-axis and local-axis actions. It is transitive on
// GPUs (any GPU can be mapped to any other by exactly one element), a
// regular subgroup of the full automorphism group — sufficient for load
// balancing, cheap to enumerate.
type Symmetry struct {
	Server Axis
	Local  Axis
}

// GPUPerm is one symmetry element: a pair of axis shifts.
type GPUPerm struct {
	SShift, GShift int
}

// Identity reports whether the element is the identity.
func (p GPUPerm) Identity() bool { return p.SShift == 0 && p.GShift == 0 }

// Apply maps a GPU ID (server·G + local) under the element.
func (s *Symmetry) Apply(p GPUPerm, gpu int) int {
	g := s.Local.N
	srv, loc := gpu/g, gpu%g
	return s.Server.apply(p.SShift, srv)*g + s.Local.apply(p.GShift, loc)
}

// Permutation materializes the element as a full GPU permutation.
func (s *Symmetry) Permutation(p GPUPerm) []int {
	n := s.Server.N * s.Local.N
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = s.Apply(p, i)
	}
	return out
}

// All enumerates every element of the action (S×G of them).
func (s *Symmetry) All() []GPUPerm {
	out := make([]GPUPerm, 0, s.Server.N*s.Local.N)
	for a := 0; a < s.Server.N; a++ {
		for b := 0; b < s.Local.N; b++ {
			out = append(out, GPUPerm{a, b})
		}
	}
	return out
}

// MapRoot returns the unique element carrying GPU `from` to GPU `to`.
func (s *Symmetry) MapRoot(from, to int) GPUPerm {
	g := s.Local.N
	fs, fl := from/g, from%g
	ts, tl := to/g, to%g
	return GPUPerm{s.axisDelta(s.Server, fs, ts), s.axisDelta(s.Local, fl, tl)}
}

func (s *Symmetry) axisDelta(a Axis, from, to int) int {
	if a.N <= 1 {
		return 0
	}
	if a.Xor {
		return from ^ to
	}
	return ((to-from)%a.N + a.N) % a.N
}

// Validate checks that the action really is an automorphism: every
// generator must map each dimension's group partition onto itself.
func (s *Symmetry) Validate(t *Topology) error {
	gens := []GPUPerm{{1 % max(s.Server.N, 1), 0}, {0, 1 % max(s.Local.N, 1)}}
	if s.Server.Xor {
		gens[0] = GPUPerm{1, 0}
	}
	for _, gen := range gens {
		if gen.Identity() {
			continue
		}
		perm := s.Permutation(gen)
		for _, dim := range t.Dims {
			for _, grp := range dim.Groups {
				img := dim.GroupOf(perm[grp[0]])
				for _, gpu := range grp {
					if dim.GroupOf(perm[gpu]) != img {
						return fmt.Errorf("topology %s: symmetry generator %+v splits dim %s group", t.Name, gen, dim.Name)
					}
				}
			}
		}
	}
	return nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// buildSymmetry derives the symmetry action from the builder config.
func buildSymmetry(cfg Config) *Symmetry {
	return &Symmetry{
		Server: Axis{N: cfg.Servers, Xor: isPow2(cfg.Servers)},
		Local:  Axis{N: cfg.GPUsPerServer, Xor: isPow2(cfg.GPUsPerServer)},
	}
}
