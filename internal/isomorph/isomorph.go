// Package isomorph detects isomorphic sub-demands and computes the GPU
// mappings between them.
//
// SyCCL's accelerations (§5.3) rest on the observation that a sketch
// produces many structurally identical sub-demands across isomorphic
// groups: the solver needs to run once per isomorphism class, and the
// solution maps to every other member through a GPU renaming. This
// package provides the invariant fingerprint used to bucket demands, the
// backtracking search that finds an explicit mapping, and the class
// partition driver. The bucketing and the mapping search both read one
// canonical form per demand, worked out once: integers, but for the few
// piece invariants it renders as text.
package isomorph

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"syccl/internal/solve"
)

// Key returns an isomorphism-invariant fingerprint of a demand: demands
// with different keys are guaranteed non-isomorphic. (Equal keys are a
// necessary, not sufficient, condition; FindMapping decides.)
//
// Two demands share a Key exactly when they have the same GPU count, the
// same α and β at %.6g, the same multiset of piece invariants and the
// same multiset of GPU colors (see form). The bytes are a compact
// encoding of those, in no promised format. A Key never reaches disk
// (persisted entries carry ExactKey and CacheKey only): within one run it
// buckets the isomorphism table's demands and screens FindFullMapping.
func Key(d *solve.Demand) string {
	return new(former).form(d).key
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
// %v>|<dsts %v>" per piece; the persisted corpus is addressed by it, so
// its bytes never change.
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

// form is a demand's canonical form, worked out once per demand: Key,
// the GPU colors and the piece signatures of the mapping search all
// read it.
//
// A piece's invariant is the text "(<bytes %.6g>,<|srcs|>,<|dsts|>)",
// rendered once per distinct (size, |srcs|, |dsts|); its rank is its
// place among the demand's distinct invariant texts in ascending order.
// A GPU's color is the ascending list of its memberships, one per piece
// it is a source or a destination of, coded role × ranks + rank with role
// 0 for a destination and 1 for a source. Code order is the order of the
// membership texts "d<invariant>" and "s<invariant>"; and as an invariant
// ends at its only ')', no membership text is a prefix of another, so
// colors compare as the texts joining their memberships with ",": equal
// exactly when the texts are, and in the same order. Codes mean the same
// in two demands when their Keys match, which fixes the distinct
// invariants; only then are their colors compared.
//
// The key encodes the header "n<gpus>;a<α %.6g>;b<β %.6g>;", each
// distinct invariant with the number of pieces that have it, and each
// distinct color with the number of GPUs that have it, in ascending
// order, every count a uvarint: prefix-free, so two keys are equal
// exactly when the text that joined the same parts — the sorted
// invariants, then the sorted colors — was.
type form struct {
	key   string
	codes []int32  // GPU g's color is codes[at[g]:at[g+1]]
	at    []int32  // len n+1
	ord   []int32  // the GPUs by (color, index): the color classes, in ascending color order
	sizes []uint64 // per piece, size9 of its size
}

func (f *form) color(g int32) []int32 { return f.codes[f.at[g]:f.at[g+1]] }

// size9 codes v as %.9g prints it: two sizes print alike exactly when
// their codes are equal. %.8e prints the same nine significant digits,
// as "d.dddddddde±dd", and the code packs the sign, the exponent and the
// digits read from it; NaN and the infinities, which print as words,
// keep their float bits (every NaN the same), which no such code has.
func size9(v float64) uint64 {
	if math.IsNaN(v) {
		return math.Float64bits(math.NaN())
	}
	if math.IsInf(v, 0) {
		return math.Float64bits(v)
	}
	var buf [32]byte
	b := strconv.AppendFloat(buf[:0], math.Abs(v), 'e', 8, 64)
	digits, i := uint64(0), 0
	for ; b[i] != 'e'; i++ {
		if b[i] != '.' {
			digits = digits*10 + uint64(b[i]-'0')
		}
	}
	exp := 0
	for _, c := range b[i+2:] {
		exp = exp*10 + int(c-'0')
	}
	if b[i+1] == '-' {
		exp = -exp
	}
	return math.Float64bits(math.Copysign(0, v)) | uint64(exp+400)<<32 | digits
}

// former is the working memory forms are worked out in; a Table keeps
// one. Per distinct piece shape j it holds the invariant text
// text[textAt[j]:textAt[j+1]], the pieces that have the shape, the rank
// and size9 of the size; perm lists the shapes by invariant text.
type former struct {
	shapes []shape
	of     []int // per piece, its shape
	text   []byte
	textAt []int
	count  []int
	rank   []int
	size9  []uint64
	perm   []int
	fill   []int32
	key    []byte
}

type shape struct {
	bits   uint64
	ns, nd int
}

func (fm *former) inv(j int) []byte { return fm.text[fm.textAt[j]:fm.textAt[j+1]] }

// form works out d's canonical form.
func (fm *former) form(d *solve.Demand) form {
	// The distinct shapes, by scan: the pieces of a sub-demand share a
	// handful.
	fm.shapes, fm.of, fm.count = fm.shapes[:0], resizeInts(fm.of, len(d.Pieces)), fm.count[:0]
	for i := range d.Pieces {
		p := &d.Pieces[i]
		sh := shape{math.Float64bits(p.Bytes), len(p.Srcs), len(p.Dsts)}
		j := len(fm.shapes) - 1
		for j >= 0 && fm.shapes[j] != sh {
			j--
		}
		if j < 0 {
			j = len(fm.shapes)
			fm.shapes, fm.count = append(fm.shapes, sh), append(fm.count, 0)
		}
		fm.of[i] = j
		fm.count[j]++
	}
	fm.text, fm.textAt, fm.size9, fm.perm = fm.text[:0], append(fm.textAt[:0], 0), fm.size9[:0], fm.perm[:0]
	for j, sh := range fm.shapes {
		v := math.Float64frombits(sh.bits)
		fm.text = strconv.AppendFloat(append(fm.text, '('), v, 'g', 6, 64)
		fm.text = strconv.AppendInt(append(fm.text, ','), int64(sh.ns), 10)
		fm.text = append(strconv.AppendInt(append(fm.text, ','), int64(sh.nd), 10), ')')
		fm.textAt, fm.size9, fm.perm = append(fm.textAt, len(fm.text)), append(fm.size9, size9(v)), append(fm.perm, j)
	}
	slices.SortFunc(fm.perm, func(x, y int) int { return bytes.Compare(fm.inv(x), fm.inv(y)) })
	fm.rank = resizeInts(fm.rank, len(fm.shapes))
	ranks := 0
	for k, j := range fm.perm {
		if k == 0 || !bytes.Equal(fm.inv(j), fm.inv(fm.perm[k-1])) {
			ranks++
		}
		fm.rank[j] = ranks - 1
	}

	// The colors, counted into place GPU by GPU, then sorted.
	n, members := d.NumGPUs, 0
	for i := range d.Pieces {
		members += len(d.Pieces[i].Srcs) + len(d.Pieces[i].Dsts)
	}
	arr := make([]int32, 2*n+1+members)
	f := form{at: arr[:n+1], ord: arr[n+1 : 2*n+1], codes: arr[2*n+1:], sizes: make([]uint64, len(d.Pieces))}
	for i := range d.Pieces {
		for _, g := range d.Pieces[i].Srcs {
			f.at[g+1]++
		}
		for _, g := range d.Pieces[i].Dsts {
			f.at[g+1]++
		}
	}
	for g := 0; g < n; g++ {
		f.at[g+1] += f.at[g]
	}
	fm.fill = append(fm.fill[:0], f.at[:n]...)
	for i := range d.Pieces {
		r := int32(fm.rank[fm.of[i]])
		for _, g := range d.Pieces[i].Srcs {
			f.codes[fm.fill[g]] = int32(ranks) + r
			fm.fill[g]++
		}
		for _, g := range d.Pieces[i].Dsts {
			f.codes[fm.fill[g]] = r
			fm.fill[g]++
		}
		f.sizes[i] = fm.size9[fm.of[i]]
	}
	for g := range f.ord {
		slices.Sort(f.color(int32(g)))
		f.ord[g] = int32(g)
	}
	slices.SortFunc(f.ord, func(x, y int32) int {
		if c := slices.Compare(f.color(x), f.color(y)); c != 0 {
			return c
		}
		return int(x - y)
	})

	b := binary.AppendUvarint(append(appendHeader(fm.key[:0], d, 6), ';'), uint64(ranks))
	for k := 0; k < len(fm.perm); {
		j, pieces := fm.perm[k], 0
		for ; k < len(fm.perm) && fm.rank[fm.perm[k]] == fm.rank[j]; k++ {
			pieces += fm.count[fm.perm[k]]
		}
		b = binary.AppendUvarint(append(b, fm.inv(j)...), uint64(pieces))
	}
	for lo := 0; lo < n; {
		c, hi := f.color(f.ord[lo]), lo+1
		for hi < n && slices.Equal(f.color(f.ord[hi]), c) {
			hi++
		}
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(hi-lo)), uint64(len(c)))
		for _, code := range c {
			b = binary.AppendUvarint(b, uint64(code))
		}
		lo = hi
	}
	f.key, fm.key = string(b), b
	return f
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
	var fm former
	fa, fb := fm.form(a), fm.form(b)
	if fa.key != fb.key {
		return nil
	}
	return findFullMapping(a, b, &fa, &fb, new(mappingSearch))
}

// findFullMapping is FindFullMapping for demands whose Keys are known to
// match (so their GPU and piece counts do), with their forms fa and fb,
// searching in scratch s.
func findFullMapping(a, b *solve.Demand, fa, fb *form, s *mappingSearch) *Mapping {
	n := a.NumGPUs
	if n*len(a.Pieces) > 128 {
		return s.sampled(a, b, fa, fb)
	}

	// candidates[i] = b-GPUs with the same color as a's GPU i.
	candidates := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if slices.Equal(fa.color(int32(i)), fb.color(int32(j))) {
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
	s.index(b, fb)

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
			pieces = s.bijection(a, fa, f)
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

// mappingSearch is the scratch of mapping searches. index lays out a
// demand b's piece signatures once and sorts b's pieces by them, so that
// bijection can check any number of GPU mappings onto b with no map and
// no allocation; sampled keeps its trial buffers here too. A Table keeps
// one for all its searches; FindFullMapping uses a fresh one.
//
// A piece's signature is the integer list (size9 of its size, its
// source count, its sources sorted, its destinations sorted): equal
// exactly when the text "<bytes %.9g>|<srcs>|<dsts>" of the sorted lists
// is.
type mappingSearch struct {
	// b's piece index: piece j's signature is sigs[ends[j-1]:ends[j]]
	// (from 0 for piece 0), byRank lists b's pieces by (signature,
	// index), and a run of equal signatures starting at rank r ends at
	// runEnd[r].
	sigs   []int
	ends   []int
	byRank []int
	runEnd []int

	taken []int // per run start, the b-pieces bijection has handed out
	out   []int // bijection's answer
	buf   []int // an a-piece's signature

	// sampled's: the ends of the color classes, the trial mapping, a
	// shuffled class, and the generator of the randomized trials, made
	// on first use.
	classEnd []int
	f        []int
	shuffled []int32
	rng      *rand.Rand
}

// sig is b-piece j's signature.
func (s *mappingSearch) sig(j int) []int {
	from := 0
	if j > 0 {
		from = s.ends[j-1]
	}
	return s.sigs[from:s.ends[j]]
}

// appendSig appends the signature of a piece whose size9 is size,
// under the GPU mapping m when m is not nil.
func appendSig(sig []int, size uint64, p *solve.Piece, m []int) []int {
	sig = append(sig, int(size), len(p.Srcs))
	for _, set := range [2][]int{p.Srcs, p.Dsts} {
		from := len(sig)
		sig = append(sig, set...)
		if m != nil {
			for k := from; k < len(sig); k++ {
				sig[k] = m[sig[k]]
			}
		}
		slices.Sort(sig[from:])
	}
	return sig
}

// index lays out b's piece signatures and sorts b's pieces by
// (signature, index): each bucket of equal signatures is a run, in
// ascending piece order.
func (s *mappingSearch) index(b *solve.Demand, fb *form) {
	s.sigs = slices.Grow(s.sigs[:0], 2*len(b.Pieces)+len(fb.codes))
	s.ends, s.byRank = slices.Grow(s.ends[:0], len(b.Pieces)), slices.Grow(s.byRank[:0], len(b.Pieces))
	for j := range b.Pieces {
		s.sigs = appendSig(s.sigs, fb.sizes[j], &b.Pieces[j], nil)
		s.ends = append(s.ends, len(s.sigs))
		s.byRank = append(s.byRank, j)
	}
	slices.SortFunc(s.byRank, func(x, y int) int {
		if c := slices.Compare(s.sig(x), s.sig(y)); c != 0 {
			return c
		}
		return x - y
	})
	s.runEnd = resizeInts(s.runEnd, len(s.byRank))
	for lo := 0; lo < len(s.byRank); {
		hi := lo + 1
		for hi < len(s.byRank) && slices.Equal(s.sig(s.byRank[hi]), s.sig(s.byRank[lo])) {
			hi++
		}
		s.runEnd[lo] = hi
		lo = hi
	}
}

// bijection verifies a complete GPU mapping f of a (of form fa) onto the
// indexed demand and, when valid, returns the induced piece bijection:
// out[i] is the b-piece that a's piece i plays under f. Pieces with
// identical signatures are interchangeable, so any within-bucket
// assignment is correct; a's pieces take their bucket's b-pieces from
// the highest index down. Returns nil when f is not an isomorphism. The
// answer is scratch, valid until the next call.
func (s *mappingSearch) bijection(a *solve.Demand, fa *form, f []int) []int {
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
		s.buf = appendSig(s.buf[:0], fa.sizes[i], &a.Pieces[i], f)
		// The first rank whose signature is not below a's: its run, if
		// the signature matches.
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if slices.Compare(s.sig(s.byRank[mid]), s.buf) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == n || !slices.Equal(s.sig(s.byRank[lo]), s.buf) || lo+s.taken[lo] == s.runEnd[lo] {
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
func (s *mappingSearch) sampled(a, b *solve.Demand, fa, fb *form) *Mapping {
	n := a.NumGPUs
	// The forms' GPUs by (color, index): the color classes, each in
	// ascending GPU order, in ascending color order. They must pair up.
	s.classEnd = slices.Grow(s.classEnd[:0], n)
	for k := 0; k < n; k++ {
		c := fa.color(fa.ord[k])
		if !slices.Equal(c, fb.color(fb.ord[k])) {
			return nil
		}
		if k+1 == n || !slices.Equal(fa.color(fa.ord[k+1]), c) {
			s.classEnd = append(s.classEnd, k+1)
		}
	}
	s.index(b, fb)
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
			as, bs := fa.ord[lo:hi], fb.ord[lo:hi]
			if trial < 8 {
				k := trial % len(bs)
				for t, i := range as {
					s.f[i] = int(bs[(t+k)%len(bs)])
				}
			} else {
				s.shuffled = append(s.shuffled[:0], bs...)
				s.rng.Shuffle(len(s.shuffled), func(x, y int) {
					s.shuffled[x], s.shuffled[y] = s.shuffled[y], s.shuffled[x]
				})
				for t, i := range as {
					s.f[i] = int(s.shuffled[t])
				}
			}
			lo = hi
		}
		if pieces := s.bijection(a, fa, s.f); pieces != nil {
			both := make([]int, n+len(pieces))
			copy(both, s.f)
			copy(both[n:], pieces)
			return &Mapping{GPUs: both[:n:n], Pieces: both[n:]}
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
	forms   []form              // canonical form per id, worked out on first use
	found   map[[2]int]*Mapping // FindFullMapping per (representative, member) id pair; nil = not isomorphic
	former  former              // the forms' working memory
	search  mappingSearch       // the mapping searches' scratch
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
	t.forms = append(t.forms, form{})
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
		f := t.formOf(id)
		rep[id] = id
		for _, r := range byKey[f.key] {
			pair := [2]int{r, id}
			mp, known := t.found[pair]
			if !known {
				// The Keys match: r is in id's bucket.
				mp = findFullMapping(t.demands[r], t.demands[id], &t.forms[r], f, &t.search)
				t.found[pair] = mp
			}
			if mp != nil {
				rep[id], m[id] = r, mp
				break
			}
		}
		if rep[id] == id {
			byKey[f.key] = append(byKey[f.key], id)
		}
	}
	return rep, m
}

// formOf is id's canonical form, worked out once (a key is never empty).
func (t *Table) formOf(id int) *form {
	if t.forms[id].key == "" {
		t.forms[id] = t.former.form(t.demands[id])
	}
	return &t.forms[id]
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
