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
	"sort"
	"strconv"

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

// gpuColors computes a per-GPU invariant color string.
func gpuColors(d *solve.Demand) []string {
	invs, of := invariants(d)
	colors, ends := colorBytes(d, invs, of)
	out := make([]string, d.NumGPUs)
	from := 0
	for g, end := range ends {
		out[g] = string(colors[from:end])
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
	n := a.NumGPUs
	ca, cb := gpuColors(a), gpuColors(b)

	if n*len(a.Pieces) > 128 {
		return findMappingSampled(a, b, ca, cb)
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
			pieces = pieceBijection(a, b, f)
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
		return &Mapping{GPUs: f, Pieces: pieces}
	}
	return nil
}

// findMappingSampled tries the color-sorted canonical alignment and a
// few randomized color-respecting bijections, verifying each with the
// near-linear pieceBijection.
func findMappingSampled(a, b *solve.Demand, ca, cb []string) *Mapping {
	n := a.NumGPUs
	// Bucket GPUs by color on both sides.
	byColorA := map[string][]int{}
	byColorB := map[string][]int{}
	for i := 0; i < n; i++ {
		byColorA[ca[i]] = append(byColorA[ca[i]], i)
		byColorB[cb[i]] = append(byColorB[cb[i]], i)
	}
	var colors []string
	for c, as := range byColorA {
		if len(byColorB[c]) != len(as) {
			return nil
		}
		colors = append(colors, c)
	}
	sort.Strings(colors)

	// The canonical sorted-position alignment within each color class,
	// then seven rotations within classes, then 24 randomized
	// color-respecting bijections.
	rng := rand.New(rand.NewSource(int64(n)*7919 + int64(len(a.Pieces))))
	for trial := 0; trial < 32; trial++ {
		f := make([]int, n)
		for _, c := range colors {
			bs := append([]int(nil), byColorB[c]...)
			if trial < 8 {
				k := trial % len(bs)
				bs = append(bs[k:], bs[:k]...)
			} else {
				rng.Shuffle(len(bs), func(x, y int) { bs[x], bs[y] = bs[y], bs[x] })
			}
			for k, i := range byColorA[c] {
				f[i] = bs[k]
			}
		}
		if pieces := pieceBijection(a, b, f); pieces != nil {
			return &Mapping{GPUs: f, Pieces: pieces}
		}
	}
	return nil
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

// pieceBijection verifies a complete GPU mapping f and, when valid,
// returns the induced piece bijection: out[i] is the b-piece that a's
// piece i plays under f. Pieces with identical signatures are
// interchangeable, so any within-bucket assignment is correct; a's pieces
// take their bucket's b-pieces from the highest index down. Returns nil
// when f is not an isomorphism. Near-linear via signature bucketing; the
// signatures are rendered into one reused buffer, and only a bucket's
// first one is kept as a string.
func pieceBijection(a, b *solve.Demand, f []int) []int {
	if len(a.Pieces) != len(b.Pieces) {
		return nil
	}
	var buf []byte
	var img []int
	bucket := make(map[string]int, len(b.Pieces)) // signature → index into left
	var left [][]int                              // per bucket, the b-pieces not yet taken
	for j := range b.Pieces {
		buf, img = appendPieceSig(buf[:0], img, &b.Pieces[j], nil)
		k, ok := bucket[string(buf)]
		if !ok {
			k = len(left)
			bucket[string(buf)] = k
			left = append(left, nil)
		}
		left[k] = append(left[k], j)
	}
	out := make([]int, len(a.Pieces))
	for i := range a.Pieces {
		buf, img = appendPieceSig(buf[:0], img, &a.Pieces[i], f)
		k, ok := bucket[string(buf)]
		if !ok || len(left[k]) == 0 {
			return nil
		}
		lst := left[k]
		out[i], left[k] = lst[len(lst)-1], lst[:len(lst)-1]
	}
	return out
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
	byExact map[string][]int    // ExactKey → ids (several when %.9g rounds unequal sizes together)
	keys    []string            // Key per id, rendered on first use
	found   map[[2]int]*Mapping // FindFullMapping per (representative, member) id pair; nil = not isomorphic
	buf     []byte
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{byExact: map[string][]int{}, found: map[[2]int]*Mapping{}}
}

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
// there is none. The exact key only buckets: it prints floats at %.9g, so
// Equal has the last word.
func (t *Table) Intern(d *solve.Demand) int {
	t.buf = appendExactKey(t.buf[:0], d)
	ids := t.byExact[string(t.buf)]
	for _, id := range ids {
		if Equal(t.demands[id], d) {
			return id
		}
	}
	id := t.add(d)
	t.byExact[string(t.buf)] = append(ids, id)
	return id
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
				mp = FindFullMapping(t.demands[r], t.demands[id])
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
