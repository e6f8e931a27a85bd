package isomorph

// FindFullMapping, findMappingSampled and pieceBijection as they stood
// before the mapping search moved onto reused scratch: every sampled
// trial buckets b's piece signatures in a fresh map, and every
// (representative, member) pair re-renders both Keys and both demands'
// GPU colors. Kept verbatim (renamed) as the reference
// TestFindFullMappingEquivalence holds the search to: the mapping decides
// which GPU and which piece every member cell's transfers land on. It
// reads only text: the Keys and colors of keyReference and
// gpuColorsReference, and the piece signatures of appendPieceSig, so it
// never checks the integer form against itself.

import (
	"math/rand"
	"sort"
	"strconv"

	"syccl/internal/solve"
)

func findFullMappingReference(a, b *solve.Demand) *Mapping {
	if a.NumGPUs != b.NumGPUs || len(a.Pieces) != len(b.Pieces) {
		return nil
	}
	if keyReference(a) != keyReference(b) {
		return nil
	}
	n := a.NumGPUs
	ca, cb := gpuColorsReference(a), gpuColorsReference(b)

	if n*len(a.Pieces) > 128 {
		return findMappingSampledReference(a, b, ca, cb)
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
			pieces = pieceBijectionBucketReference(a, b, f)
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

// findMappingSampledReference tries the color-sorted canonical alignment and a
// few randomized color-respecting bijections, verifying each with the
// near-linear pieceBijection.
func findMappingSampledReference(a, b *solve.Demand, ca, cb []string) *Mapping {
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
		if pieces := pieceBijectionBucketReference(a, b, f); pieces != nil {
			return &Mapping{GPUs: f, Pieces: pieces}
		}
	}
	return nil
}

// pieceBijectionBucketReference verifies a complete GPU mapping f and, when valid,
// returns the induced piece bijection.
func pieceBijectionBucketReference(a, b *solve.Demand, f []int) []int {
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

// appendPieceSig renders a piece's canonical signature "<bytes
// %.9g>|<srcs>|<dsts>", each list sorted and printed as fmt's %v prints
// an []int, optionally under a GPU mapping m. img is scratch space for
// the sorted lists and is handed back for reuse. Kept verbatim from the
// search that compared these texts.
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
