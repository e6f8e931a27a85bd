// Package isomorph detects isomorphic sub-demands and computes the GPU
// mappings between them.
//
// SyCCL's accelerations (§5.3) rest on the observation that a sketch
// produces many structurally identical sub-demands across isomorphic
// groups: the solver needs to run once per isomorphism class, and the
// solution maps to every other member through a GPU renaming. This
// package provides the invariant fingerprint used to bucket demands, the
// backtracking search that finds an explicit mapping, and the class
// partition driver.
package isomorph

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"syccl/internal/solve"
)

// Key returns an isomorphism-invariant fingerprint of a demand: demands
// with different keys are guaranteed non-isomorphic. (Equal keys are a
// necessary, not sufficient, condition; FindMapping decides.)
//
// The text is "n<gpus>;a<α %.6g>;b<β %.6g>;" + the sorted piece
// invariants "p(<bytes %.6g>,<|srcs|>,<|dsts|>)" + ";g" + the sorted
// per-GPU colors joined by "|". It never reaches disk (persisted entries
// carry ExactKey and CacheKey only): within one run it buckets the
// isomorphism table's demands and screens FindFullMapping.
func Key(d *solve.Demand) string {
	return string(appendKey(nil, d))
}

// ExactKey returns a byte-exact signature of a demand: two demands share
// an ExactKey iff they are literally identical (same GPU count, link
// parameters, and pieces with the same sizes, ordering, and concrete
// source/destination lists). Unlike Key it is NOT invariant under GPU
// renaming; it exists so cross-request caches (internal/engine) can serve
// a repeated demand with the bit-identical stored sub-schedule, keeping
// warm and cold runs byte-equal.
//
// The text is "n<gpus>;a<α %.9g>;b<β %.9g>" + ";p<bytes %.9g>|<srcs
// %v>|<dsts %v>" per piece, under the same byte-stability rule as Key.
func ExactKey(d *solve.Demand) string {
	return string(appendExactKey(nil, d))
}

// CacheKey returns the key every cross-request cache tier addresses a
// solved demand by: the exact key, suffixed with the solve signature so
// solutions found under different solver options never mix. A tier
// serves a demand only what was stored under this key, so a cached
// answer is the one a cold run of the same demand would produce. The
// memory tiers in internal/engine and the on-disk corpus of
// internal/persist share this one format — changing it orphans every
// stored corpus.
func CacheKey(d *solve.Demand, sig string) string {
	b := appendExactKey(nil, d)
	return string(append(append(b, '|'), sig...))
}

// ShapePrefix returns "n<n>;a<α>;b<β>;", the head ExactKey and CacheKey
// render for every demand of n GPUs on a link of that α/β with at least
// one piece: dropping the cache entries under this prefix drops every
// solution of that demand shape.
func ShapePrefix(n int, alpha, beta float64) string {
	return string(append(appendHeader(nil, &solve.Demand{NumGPUs: n, Alpha: alpha, Beta: beta}, 9), ';'))
}

// appendHeader renders "n<gpus>;a<α>;b<β>" at the given %g precision.
func appendHeader(b []byte, d *solve.Demand, prec int) []byte {
	b = strconv.AppendInt(append(b, 'n'), int64(d.NumGPUs), 10)
	b = strconv.AppendFloat(append(b, ";a"...), d.Alpha, 'g', prec, 64)
	return strconv.AppendFloat(append(b, ";b"...), d.Beta, 'g', prec, 64)
}

// appendInts renders a list the way fmt's %v prints an []int: "[1 2 3]".
func appendInts(b []byte, list []int) []byte {
	b = append(b, '[')
	for i, v := range list {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

func appendExactKey(b []byte, d *solve.Demand) []byte {
	b = appendHeader(b, d, 9)
	for i := range d.Pieces {
		p := &d.Pieces[i]
		b = strconv.AppendFloat(append(b, ";p"...), p.Bytes, 'g', 9, 64)
		b = appendInts(append(b, '|'), p.Srcs)
		b = appendInts(append(b, '|'), p.Dsts)
	}
	return b
}

func appendKey(b []byte, d *solve.Demand) []byte {
	b = append(appendHeader(b, d, 6), ';')
	invs, of := invariants(d)
	// Pieces in sorted-invariant order: equal invariants are equal text,
	// so counting per rank is the sort.
	count := make([]int, len(invs))
	for _, r := range of {
		count[r]++
	}
	for r, inv := range invs {
		for k := 0; k < count[r]; k++ {
			b = append(append(b, 'p'), inv...)
		}
	}
	// GPU color multiset: per GPU, the sorted list of (piece-invariant,
	// role) memberships.
	colors, ends := colorBytes(d, invs, of)
	order := colorOrder{colors: colors, ends: ends, idx: make([]int, d.NumGPUs)}
	for g := range order.idx {
		order.idx[g] = g
	}
	sort.Sort(&order)
	b = append(b, ";g"...)
	for k, g := range order.idx {
		if k > 0 {
			b = append(b, '|')
		}
		b = append(b, order.color(g)...)
	}
	return b
}

// invariants renders each distinct piece invariant
// "(<bytes %.6g>,<|srcs|>,<|dsts|>)" of the demand once. It returns them
// in ascending text order with, per piece, the index of its invariant.
// The pieces of a sub-demand share a handful of invariants, so the
// distinct list is found by a scan.
func invariants(d *solve.Demand) (invs []string, of []int) {
	type shape struct {
		bits   uint64
		ns, nd int
	}
	var shapes []shape
	of = make([]int, len(d.Pieces))
	for i := range d.Pieces {
		p := &d.Pieces[i]
		sh := shape{math.Float64bits(p.Bytes), len(p.Srcs), len(p.Dsts)}
		j := len(shapes) - 1
		for j >= 0 && shapes[j] != sh {
			j--
		}
		if j < 0 {
			j = len(shapes)
			shapes = append(shapes, sh)
		}
		of[i] = j
	}
	invs = make([]string, len(shapes))
	var buf []byte
	for j, sh := range shapes {
		buf = strconv.AppendFloat(append(buf[:0], '('), math.Float64frombits(sh.bits), 'g', 6, 64)
		buf = strconv.AppendInt(append(buf, ','), int64(sh.ns), 10)
		buf = strconv.AppendInt(append(buf, ','), int64(sh.nd), 10)
		invs[j] = string(append(buf, ')'))
	}
	// Sort the invariants and carry the pieces' indices along.
	perm := make([]int, len(invs))
	for j := range perm {
		perm[j] = j
	}
	for x := 1; x < len(perm); x++ {
		for y := x; y > 0 && invs[perm[y]] < invs[perm[y-1]]; y-- {
			perm[y], perm[y-1] = perm[y-1], perm[y]
		}
	}
	sorted, rank := make([]string, len(invs)), make([]int, len(invs))
	for r, j := range perm {
		sorted[r], rank[j] = invs[j], r
	}
	for i := range of {
		of[i] = rank[of[i]]
	}
	return sorted, of
}

// colorBytes renders every GPU's color into one buffer: GPU g's color is
// colors[ends[g-1]:ends[g]], its memberships "s<invariant>" (source of a
// piece) and "d<invariant>" (destination) sorted and joined by ",".
func colorBytes(d *solve.Demand, invs []string, of []int) (colors []byte, ends []int) {
	// A membership is coded role*len(invs) + invariant rank with role 0
	// for "d" and 1 for "s": invs is sorted, so code order is text order.
	start := make([]int, d.NumGPUs+1)
	for i := range d.Pieces {
		for _, g := range d.Pieces[i].Srcs {
			start[g+1]++
		}
		for _, g := range d.Pieces[i].Dsts {
			start[g+1]++
		}
	}
	for g := 0; g < d.NumGPUs; g++ {
		start[g+1] += start[g]
	}
	codes := make([]int, start[d.NumGPUs])
	fill := append([]int(nil), start[:d.NumGPUs]...)
	for i := range d.Pieces {
		for _, g := range d.Pieces[i].Srcs {
			codes[fill[g]] = len(invs) + of[i]
			fill[g]++
		}
		for _, g := range d.Pieces[i].Dsts {
			codes[fill[g]] = of[i]
			fill[g]++
		}
	}
	ends = make([]int, d.NumGPUs)
	longest := 0
	for _, inv := range invs {
		longest = max(longest, len(inv))
	}
	colors = make([]byte, 0, len(codes)*(longest+2))
	for g := 0; g < d.NumGPUs; g++ {
		mine := codes[start[g]:start[g+1]]
		sort.Ints(mine)
		for k, c := range mine {
			if k > 0 {
				colors = append(colors, ',')
			}
			role := byte('d')
			if c >= len(invs) {
				role, c = 's', c-len(invs)
			}
			colors = append(append(colors, role), invs[c]...)
		}
		ends[g] = len(colors)
	}
	return colors, ends
}

// colorOrder sorts GPU indices by color text.
type colorOrder struct {
	colors []byte
	ends   []int
	idx    []int
}

func (o *colorOrder) color(g int) []byte {
	from := 0
	if g > 0 {
		from = o.ends[g-1]
	}
	return o.colors[from:o.ends[g]]
}

func (o *colorOrder) Len() int      { return len(o.idx) }
func (o *colorOrder) Swap(x, y int) { o.idx[x], o.idx[y] = o.idx[y], o.idx[x] }
func (o *colorOrder) Less(x, y int) bool {
	return bytes.Compare(o.color(o.idx[x]), o.color(o.idx[y])) < 0
}

// gpuColors computes a per-GPU invariant color string. The strings share
// one backing string.
func gpuColors(d *solve.Demand) []string {
	invs, of := invariants(d)
	colors, ends := colorBytes(d, invs, of)
	all := string(colors)
	out := make([]string, d.NumGPUs)
	from := 0
	for g, end := range ends {
		out[g] = all[from:end]
		from = end
	}
	return out
}

// maxBacktrackNodes caps the mapping search; exceeding it reports "not
// isomorphic", which costs an extra solve but never a wrong schedule.
const maxBacktrackNodes = 200000

// FindMapping returns the GPU permutation of FindFullMapping(a, b), or
// nil.
func FindMapping(a, b *solve.Demand) []int {
	if m := FindFullMapping(a, b); m != nil {
		return m.GPUs
	}
	return nil
}

// FindFullMapping searches for a GPU permutation f with f[i] = j meaning
// a's GPU i plays the role of b's GPU j, such that a's pieces map
// bijectively onto b's pieces (equal sizes, f(Srcs) = Srcs, f(Dsts) =
// Dsts as sets), and returns it with the piece bijection that verified
// it. Returns nil when no mapping exists (or the search budget runs out).
//
// Small demands get an exact backtracking search. Large ones — where
// color classes are fat and backtracking degenerates — get the cheap
// route: the color-sorted canonical alignment plus a handful of
// randomized color-respecting bijections, each verified in near-linear
// time. The cheap route can miss an isomorphism (costing an extra solve,
// never a wrong schedule), but on the highly symmetric demands SyCCL
// produces a color-respecting bijection almost always verifies.
func FindFullMapping(a, b *solve.Demand) *Mapping {
	if a.NumGPUs != b.NumGPUs || len(a.Pieces) != len(b.Pieces) {
		return nil
	}
	if Key(a) != Key(b) {
		return nil
	}
	return findFullMapping(a, b, gpuColors(a), gpuColors(b), new(mappingSearch))
}

// findFullMapping is FindFullMapping for demands whose Keys are known to
// match (so their GPU and piece counts do), with their gpuColors ca and
// cb, searching in scratch s.
func findFullMapping(a, b *solve.Demand, ca, cb []string, s *mappingSearch) *Mapping {
	n := a.NumGPUs
	if n*len(a.Pieces) > 128 {
		return s.sampled(a, b, ca, cb)
	}

	// candidates[i] = b-GPUs with the same color as a's GPU i.
	candidates := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if ca[i] == cb[j] {
				candidates[i] = append(candidates[i], j)
			}
		}
		if len(candidates[i]) == 0 {
			return nil
		}
	}

	// Assign in order of fewest candidates first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return len(candidates[order[x]]) < len(candidates[order[y]]) })

	f := make([]int, n)
	for i := range f {
		f[i] = -1
	}
	used := make([]bool, n)
	nodes := 0
	s.index(b)

	// The O(pieces²) partial-consistency filter pays off on small, loosely
	// structured demands; on large highly symmetric ones (hundreds of
	// single-source pieces) the per-GPU colors already pin the candidates
	// and the filter would dominate the runtime.
	budget := maxBacktrackNodes

	var pieces []int
	var rec func(k int) bool
	rec = func(k int) bool {
		nodes++
		if nodes > budget {
			return false
		}
		if k == n {
			pieces = s.bijection(a, f)
			return pieces != nil
		}
		i := order[k]
		for _, j := range candidates[i] {
			if used[j] {
				continue
			}
			f[i] = j
			used[j] = true
			if partialConsistent(a, b, f) && rec(k+1) {
				return true
			}
			used[j] = false
			f[i] = -1
		}
		return false
	}
	if rec(0) {
		return &Mapping{GPUs: f, Pieces: append(make([]int, 0, len(pieces)), pieces...)}
	}
	return nil
}

// mappingSearch is the scratch of mapping searches. index renders a
// demand b's piece signatures once and sorts b's pieces by them, so that
// bijection can check any number of GPU mappings onto b with no map and
// no allocation; sampled keeps its trial buffers here too. A Table keeps
// one for all its searches; FindFullMapping uses a fresh one.
type mappingSearch struct {
	// b's piece index: piece j's signature is sigs[ends[j-1]:ends[j]]
	// (from 0 for piece 0), byRank lists b's pieces by (signature,
	// index), and a run of equal signatures starting at rank r ends at
	// runEnd[r].
	sigs   []byte
	ends   []int
	byRank []int
	runEnd []int

	taken []int  // per run start, the b-pieces bijection has handed out
	out   []int  // bijection's answer
	buf   []byte // an a-piece's signature
	img   []int  // appendPieceSig's scratch

	// sampled's: GPUs by (color, index) on each side, the ends of the
	// color classes, the trial mapping, a shuffled class, and the
	// generator of the randomized trials, made on first use.
	ordA, ordB []int
	classEnd   []int
	f          []int
	shuffled   []int
	rng        *rand.Rand
}

// sig is b-piece j's signature.
func (s *mappingSearch) sig(j int) []byte {
	from := 0
	if j > 0 {
		from = s.ends[j-1]
	}
	return s.sigs[from:s.ends[j]]
}

// index renders b's piece signatures and sorts b's pieces by
// (signature bytes, index): each bucket of equal signatures is a run,
// in ascending piece order.
func (s *mappingSearch) index(b *solve.Demand) {
	s.sigs, s.ends, s.byRank = s.sigs[:0], slices.Grow(s.ends[:0], len(b.Pieces)), slices.Grow(s.byRank[:0], len(b.Pieces))
	for j := range b.Pieces {
		s.sigs, s.img = appendPieceSig(s.sigs, s.img, &b.Pieces[j], nil)
		s.ends = append(s.ends, len(s.sigs))
		s.byRank = append(s.byRank, j)
	}
	slices.SortFunc(s.byRank, func(x, y int) int {
		if c := bytes.Compare(s.sig(x), s.sig(y)); c != 0 {
			return c
		}
		return x - y
	})
	s.runEnd = resizeInts(s.runEnd, len(s.byRank))
	for lo := 0; lo < len(s.byRank); {
		hi := lo + 1
		for hi < len(s.byRank) && bytes.Equal(s.sig(s.byRank[hi]), s.sig(s.byRank[lo])) {
			hi++
		}
		s.runEnd[lo] = hi
		lo = hi
	}
}

// bijection verifies a complete GPU mapping f of a onto the indexed
// demand and, when valid, returns the induced piece bijection: out[i] is
// the b-piece that a's piece i plays under f. Pieces with identical
// signatures are interchangeable, so any within-bucket assignment is
// correct; a's pieces take their bucket's b-pieces from the highest index
// down. Returns nil when f is not an isomorphism. The answer is scratch,
// valid until the next call.
func (s *mappingSearch) bijection(a *solve.Demand, f []int) []int {
	n := len(s.byRank)
	if len(a.Pieces) != n {
		return nil
	}
	s.taken = resizeInts(s.taken, n)
	clear(s.taken)
	if s.out = resizeInts(s.out, n); s.out == nil {
		s.out = []int{} // nil means no bijection; demands without pieces have an empty one
	}
	for i := range a.Pieces {
		s.buf, s.img = appendPieceSig(s.buf[:0], s.img, &a.Pieces[i], f)
		// The first rank whose signature is not below a's: its run, if
		// the signature matches.
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if bytes.Compare(s.sig(s.byRank[mid]), s.buf) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == n || !bytes.Equal(s.sig(s.byRank[lo]), s.buf) || lo+s.taken[lo] == s.runEnd[lo] {
			return nil
		}
		s.taken[lo]++
		s.out[i] = s.byRank[s.runEnd[lo]-s.taken[lo]]
	}
	return s.out
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// sampled tries the color-sorted canonical alignment and a few
// randomized color-respecting bijections, verifying each with the
// near-linear bijection against b's index, built once.
func (s *mappingSearch) sampled(a, b *solve.Demand, ca, cb []string) *Mapping {
	n := a.NumGPUs
	// GPUs by (color, index) on both sides: the color classes, each in
	// ascending GPU order, in ascending color order. They must pair up.
	s.ordA, s.ordB = byColor(s.ordA, ca), byColor(s.ordB, cb)
	s.classEnd = slices.Grow(s.classEnd[:0], n)
	for k := 0; k < n; k++ {
		if ca[s.ordA[k]] != cb[s.ordB[k]] {
			return nil
		}
		if k+1 == n || ca[s.ordA[k+1]] != ca[s.ordA[k]] {
			s.classEnd = append(s.classEnd, k+1)
		}
	}
	s.index(b)
	s.f = resizeInts(s.f, n)

	// The canonical sorted-position alignment within each color class,
	// then seven rotations within classes, then 24 randomized
	// color-respecting bijections.
	for trial := 0; trial < 32; trial++ {
		if trial == 8 {
			seed := int64(n)*7919 + int64(len(a.Pieces))
			if s.rng == nil {
				s.rng = rand.New(rand.NewSource(seed))
			} else {
				s.rng.Seed(seed)
			}
		}
		lo := 0
		for _, hi := range s.classEnd {
			as, bs := s.ordA[lo:hi], s.ordB[lo:hi]
			if trial < 8 {
				k := trial % len(bs)
				for t, i := range as {
					s.f[i] = bs[(t+k)%len(bs)]
				}
			} else {
				s.shuffled = append(s.shuffled[:0], bs...)
				s.rng.Shuffle(len(s.shuffled), func(x, y int) {
					s.shuffled[x], s.shuffled[y] = s.shuffled[y], s.shuffled[x]
				})
				for t, i := range as {
					s.f[i] = s.shuffled[t]
				}
			}
			lo = hi
		}
		if pieces := s.bijection(a, s.f); pieces != nil {
			both := make([]int, n+len(pieces))
			copy(both, s.f)
			copy(both[n:], pieces)
			return &Mapping{GPUs: both[:n:n], Pieces: both[n:]}
		}
	}
	return nil
}

// byColor returns ord filled with the GPU indices sorted by (color,
// index).
func byColor(ord []int, colors []string) []int {
	ord = slices.Grow(ord[:0], len(colors))
	for g := range colors {
		ord = append(ord, g)
	}
	slices.SortFunc(ord, func(x, y int) int {
		if c := strings.Compare(colors[x], colors[y]); c != 0 {
			return c
		}
		return x - y
	})
	return ord
}

// partialConsistent rejects partial assignments that already break any
// piece correspondence: for every piece of a, there must remain at least
// one piece of b whose source/destination sets are compatible with the
// assigned part of f.
func partialConsistent(a, b *solve.Demand, f []int) bool {
	for _, pa := range a.Pieces {
		ok := false
		for _, pb := range b.Pieces {
			if pa.Bytes != pb.Bytes || len(pa.Srcs) != len(pb.Srcs) || len(pa.Dsts) != len(pb.Dsts) {
				continue
			}
			if setCompatible(pa.Srcs, pb.Srcs, f) && setCompatible(pa.Dsts, pb.Dsts, f) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// setCompatible reports whether mapping the assigned members of sa lands
// inside sb. Sets here are tiny (sub-demand sources/destinations), so a
// linear membership scan beats building a map.
func setCompatible(sa, sb []int, f []int) bool {
	for _, i := range sa {
		v := f[i]
		if v < 0 {
			continue
		}
		found := false
		for _, j := range sb {
			if j == v {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// appendPieceSig renders a piece's canonical signature "<bytes
// %.9g>|<srcs>|<dsts>", each list sorted and printed as fmt's %v prints
// an []int, optionally under a GPU mapping m. img is scratch space for
// the sorted lists and is handed back for reuse.
func appendPieceSig(b []byte, img []int, p *solve.Piece, m []int) ([]byte, []int) {
	b = strconv.AppendFloat(b, p.Bytes, 'g', 9, 64)
	for _, set := range [2][]int{p.Srcs, p.Dsts} {
		img = append(img[:0], set...)
		if m != nil {
			for k, v := range img {
				img[k] = m[v]
			}
		}
		sort.Ints(img)
		b = appendInts(append(b, '|'), img)
	}
	return b, img
}

// Mapping is a complete isomorphism between two demands: the GPU
// permutation and the induced piece bijection. Both are needed to carry a
// solved sub-schedule across: transfers rename endpoints via GPUs and
// payloads via Pieces.
type Mapping struct {
	GPUs   []int // a-GPU → b-GPU
	Pieces []int // a-piece index → b-piece index
}

// Equal reports whether two demands are structurally identical: same
// group size, same α/β, and the same pieces in the same order. Piece
// order is part of the comparison on purpose — demand builders emit
// pieces deterministically, and order-sensitive equality stays cheap.
func Equal(a, b *solve.Demand) bool {
	if a.NumGPUs != b.NumGPUs || a.Alpha != b.Alpha || a.Beta != b.Beta || len(a.Pieces) != len(b.Pieces) {
		return false
	}
	for i := range a.Pieces {
		pa, pb := &a.Pieces[i], &b.Pieces[i]
		if pa.Bytes != pb.Bytes || len(pa.Srcs) != len(pb.Srcs) || len(pa.Dsts) != len(pb.Dsts) {
			return false
		}
		for j := range pa.Srcs {
			if pa.Srcs[j] != pb.Srcs[j] {
				return false
			}
		}
		for j := range pa.Dsts {
			if pa.Dsts[j] != pb.Dsts[j] {
				return false
			}
		}
	}
	return true
}

// Table interns the demands of one synthesis call. Intern gives every
// demand the id of the first structurally equal one (Equal), so whatever
// depends only on a demand's content is worked out once per id and fanned
// out to the cells that share it. Sharing is invisible in the results:
// equal demands always got the same representative and, FindFullMapping
// being a deterministic function of content, the same mapping. Not safe
// for concurrent use.
type Table struct {
	demands []*solve.Demand
	byHash  map[uint64][]int    // contentHash → ids (several only when unequal demands collide)
	keys    []string            // Key per id, rendered on first use
	colors  [][]string          // gpuColors per id, computed on first use; grown by colorsOf
	found   map[[2]int]*Mapping // FindFullMapping per (representative, member) id pair; nil = not isomorphic
	search  *mappingSearch      // the mapping searches' scratch, made by the first
}

// NewTable returns an empty table.
func NewTable() *Table {
	t := &Table{byHash: map[uint64][]int{}, found: map[[2]int]*Mapping{}}
	if testHookNewTable != nil {
		testHookNewTable(t)
	}
	return t
}

// testHookNewTable, set only by tests, sees every table NewTable makes:
// the mapping equivalence test checks the pairs a real synthesis
// searched.
var testHookNewTable func(*Table)

// Len is the number of ids handed out; Demand returns the demand behind
// one, which callers must treat as read-only.
func (t *Table) Len() int                    { return len(t.demands) }
func (t *Table) Demand(id int) *solve.Demand { return t.demands[id] }

// add gives d a fresh id without looking for an equal demand.
func (t *Table) add(d *solve.Demand) int {
	t.demands = append(t.demands, d)
	t.keys = append(t.keys, "")
	return len(t.demands) - 1
}

// Intern returns the id of the first demand equal to d, adding d when
// there is none. The content hash only buckets, so Equal has the last
// word.
func (t *Table) Intern(d *solve.Demand) int {
	return t.intern(d, contentHash(d))
}

// intern is Intern with d's bucket given.
func (t *Table) intern(d *solve.Demand, h uint64) int {
	ids := t.byHash[h]
	for _, id := range ids {
		if Equal(t.demands[id], d) {
			return id
		}
	}
	id := t.add(d)
	t.byHash[h] = append(ids, id)
	return id
}

// contentHash hashes exactly what Equal compares: the GPU count, the raw
// bits of α, β and each piece's size, with −0 read as +0 (Equal finds them
// equal), and each piece's source and destination counts and lists. Equal
// demands hash alike; unequal ones rarely do.
func contentHash(d *solve.Demand) uint64 {
	h := mix(mix(mix(mix(0, uint64(d.NumGPUs)), floatBits(d.Alpha)), floatBits(d.Beta)), uint64(len(d.Pieces)))
	for i := range d.Pieces {
		p := &d.Pieces[i]
		h = mix(mix(h, floatBits(p.Bytes)), uint64(len(p.Srcs)))
		for _, g := range p.Srcs {
			h = mix(h, uint64(g))
		}
		h = mix(h, uint64(len(p.Dsts)))
		for _, g := range p.Dsts {
			h = mix(h, uint64(g))
		}
	}
	return h
}

// mix folds v into the running hash h.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// floatBits is v's IEEE bits with −0 folded into +0.
func floatBits(v float64) uint64 {
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}

// Classes partitions the listed demands into isomorphism classes. ids is
// one pass's demands in its own order (an id may repeat): rep[id] is the
// class representative — the first listed member of the class — and
// m[id] the mapping from it, nil for a representative. Ids that are not
// listed keep rep -1. Mappings are remembered across calls and shared, so
// they must not be written to.
//
// Distinct ids are never Equal, so the only way into a class is a found
// mapping, tried against the representatives of the demand's Key bucket
// in the order they joined.
func (t *Table) Classes(ids []int) (rep []int, m []*Mapping) {
	rep = make([]int, len(t.demands))
	for id := range rep {
		rep[id] = -1
	}
	m = make([]*Mapping, len(t.demands))
	byKey := make(map[string][]int) // key -> representative ids
	for _, id := range ids {
		if rep[id] >= 0 {
			continue
		}
		if t.keys[id] == "" {
			t.keys[id] = Key(t.demands[id])
		}
		rep[id] = id
		for _, r := range byKey[t.keys[id]] {
			pair := [2]int{r, id}
			mp, known := t.found[pair]
			if !known {
				if t.search == nil {
					t.search = new(mappingSearch)
				}
				// The Keys match: r is in id's bucket.
				mp = findFullMapping(t.demands[r], t.demands[id], t.colorsOf(r), t.colorsOf(id), t.search)
				t.found[pair] = mp
			}
			if mp != nil {
				rep[id], m[id] = r, mp
				break
			}
		}
		if rep[id] == id {
			byKey[t.keys[id]] = append(byKey[t.keys[id]], id)
		}
	}
	return rep, m
}

// colorsOf is gpuColors of id's demand, computed once.
func (t *Table) colorsOf(id int) []string {
	if len(t.colors) < len(t.demands) {
		t.colors = append(t.colors, make([][]string, len(t.demands)-len(t.colors))...)
	}
	if t.colors[id] == nil {
		t.colors[id] = gpuColors(t.demands[id])
	}
	return t.colors[id]
}

// MapSchedule rewrites a sub-schedule solved for a representative demand
// into one for an isomorphic demand: GPU endpoints through m.GPUs, piece
// references through m.Pieces.
func MapSchedule(s *solve.SubSchedule, m Mapping) *solve.SubSchedule {
	out := &solve.SubSchedule{Epochs: s.Epochs, Tau: s.Tau, Engine: s.Engine}
	out.Transfers = make([]solve.Transfer, len(s.Transfers))
	for i, t := range s.Transfers {
		t.Src = m.GPUs[t.Src]
		t.Dst = m.GPUs[t.Dst]
		t.Piece = m.Pieces[t.Piece]
		out.Transfers[i] = t
	}
	return out
}
