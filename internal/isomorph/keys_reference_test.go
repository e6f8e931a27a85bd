package isomorph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"syccl/internal/solve"
)

// keyReference, exactKeyReference and gpuColorsReference are Key,
// ExactKey and the GPU colors as they stood when they were rendered with
// fmt, kept verbatim. Every persisted corpus is addressed by ExactKey's
// bytes, so its strconv rendering must never drift from them; Key and
// the colors are integers now, and must keep the texts' equalities and
// order.
func keyReference(d *solve.Demand) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n%d;a%.6g;b%.6g;", d.NumGPUs, d.Alpha, d.Beta)
	inv := make([]string, len(d.Pieces))
	for i, p := range d.Pieces {
		inv[i] = fmt.Sprintf("p(%.6g,%d,%d)", p.Bytes, len(p.Srcs), len(p.Dsts))
	}
	sort.Strings(inv)
	sb.WriteString(strings.Join(inv, ""))
	colors := gpuColorsReference(d)
	sorted := append([]string(nil), colors...)
	sort.Strings(sorted)
	sb.WriteString(";g")
	sb.WriteString(strings.Join(sorted, "|"))
	return sb.String()
}

func exactKeyReference(d *solve.Demand) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n%d;a%.9g;b%.9g", d.NumGPUs, d.Alpha, d.Beta)
	for _, p := range d.Pieces {
		fmt.Fprintf(&sb, ";p%.9g|%v|%v", p.Bytes, p.Srcs, p.Dsts)
	}
	return sb.String()
}

func gpuColorsReference(d *solve.Demand) []string {
	colors := make([][]string, d.NumGPUs)
	for _, p := range d.Pieces {
		inv := fmt.Sprintf("(%.6g,%d,%d)", p.Bytes, len(p.Srcs), len(p.Dsts))
		for _, s := range p.Srcs {
			colors[s] = append(colors[s], "s"+inv)
		}
		for _, t := range p.Dsts {
			colors[t] = append(colors[t], "d"+inv)
		}
	}
	out := make([]string, d.NumGPUs)
	for g, c := range colors {
		sort.Strings(c)
		out[g] = strings.Join(c, ",")
	}
	return out
}

// keysStable fails the test when any demand's ExactKey, CacheKey or
// ShapePrefix differs from its reference by a byte, or when Key or the
// GPU colors break a relation of their text references over any pair
// of the demands, each demand with itself included: two Keys are equal
// exactly when the reference texts are, and, wherever they are, any two
// GPUs of the pair have colors that compare as their reference texts
// do.
func keysStable(t *testing.T, what string, demands ...*solve.Demand) {
	t.Helper()
	for _, d := range demands {
		if got, want := ExactKey(d), exactKeyReference(d); got != want {
			t.Fatalf("%s: ExactKey drifted:\n got: %q\nwant: %q", what, got, want)
		}
		const sig = "e0.5|g0|tau0|mb384|s0|fbfalse"
		if got, want := CacheKey(d, sig), exactKeyReference(d)+"|"+sig; got != want {
			t.Fatalf("%s: CacheKey drifted:\n got: %q\nwant: %q", what, got, want)
		}
		prefix := ShapePrefix(d.NumGPUs, d.Alpha, d.Beta)
		if want := fmt.Sprintf("n%d;a%.9g;b%.9g;", d.NumGPUs, d.Alpha, d.Beta); prefix != want {
			t.Fatalf("%s: ShapePrefix drifted:\n got: %q\nwant: %q", what, prefix, want)
		}
		if len(d.Pieces) > 0 && !strings.HasPrefix(CacheKey(d, sig), prefix) {
			t.Fatalf("%s: ShapePrefix %q does not start CacheKey %q", what, prefix, CacheKey(d, sig))
		}
	}
	forms, keys, colors := make([]form, len(demands)), make([]string, len(demands)), make([][]string, len(demands))
	for x, d := range demands {
		forms[x], keys[x], colors[x] = new(former).form(d), keyReference(d), gpuColorsReference(d)
		if Key(d) != forms[x].key {
			t.Fatalf("%s: demand %d: Key is not its form's key", what, x)
		}
	}
	// A GPU of demand x is (x, g). Sorted by reference text, neighbours
	// must compare alike by color; both orders being total, they then
	// agree on every pair.
	type gpu struct{ x, g int }
	for x := range demands {
		for y := x; y < len(demands); y++ {
			if (forms[x].key == forms[y].key) != (keys[x] == keys[y]) {
				t.Fatalf("%s: demands %d, %d: Keys equal %v, reference texts equal %v:\n%q\n%q",
					what, x, y, forms[x].key == forms[y].key, keys[x] == keys[y], keys[x], keys[y])
			}
			if keys[x] != keys[y] {
				continue
			}
			var gpus []gpu
			for _, z := range []int{x, y} {
				for g := range colors[z] {
					gpus = append(gpus, gpu{z, g})
				}
			}
			text := func(u gpu) string { return colors[u.x][u.g] }
			sort.SliceStable(gpus, func(i, j int) bool { return text(gpus[i]) < text(gpus[j]) })
			for k := 1; k < len(gpus); k++ {
				u, v := gpus[k-1], gpus[k]
				got := slices.Compare(forms[u.x].color(int32(u.g)), forms[v.x].color(int32(v.g)))
				if want := strings.Compare(text(u), text(v)); got != want {
					t.Fatalf("%s: colors of GPU %d of demand %d and GPU %d of demand %d compare %d, reference texts %d:\n%q\n%q",
						what, u.g, u.x, v.g, v.x, got, want, text(u), text(v))
				}
			}
		}
	}
}

// twins returns d with relabelled twins: d's GPUs renamed, its pieces
// shuffled, and a size nudged below what %.6g prints; and three near
// misses: one piece's size changed in the sixth digit, one GPU's
// membership moved, one piece repeated.
func twins(rng *rand.Rand, d *solve.Demand) []*solve.Demand {
	out := []*solve.Demand{d, relabel(d, rng.Perm(d.NumGPUs), rng, true)}
	if len(d.Pieces) == 0 || d.NumGPUs < 2 {
		return out
	}
	nudged, resized, moved, doubled := relabel(d, rng.Perm(d.NumGPUs), rng, false), twin(d), twin(d), twin(d)
	i := rng.Intn(len(d.Pieces))
	nudged.Pieces[i].Bytes = math.Nextafter(d.Pieces[i].Bytes, math.Inf(1))
	resized.Pieces[i].Bytes = d.Pieces[i].Bytes * 1.00001
	if p := &moved.Pieces[i]; len(p.Dsts) > 0 {
		p.Dsts[0] = (p.Dsts[0] + 1) % d.NumGPUs
	} else {
		p.Dsts = []int{rng.Intn(d.NumGPUs)}
	}
	doubled.Pieces = append(doubled.Pieces, doubled.Pieces[rng.Intn(len(d.Pieces))])
	return append(out, nudged, resized, moved, doubled)
}

// oddFloats are the values where %g switches notation, rounds, or stops
// being a number.
var oddFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, 1.5e-7, 1e-5, 123456, 1234567, 999999.5,
	1e20, 1e21, 1.23456789012e21, 1 << 20, 64 << 20, 1048576.0 / 3, 2.5e-6, 1 / 46e9,
	math.SmallestNonzeroFloat64, 5e-324 * 1024, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestCacheKeysStableTable(t *testing.T) {
	long := make([]int, 300)
	for i := range long {
		long[i] = (i * 7) % 300
	}
	lists := [][]int{nil, {}, {0}, {3, 1, 2}, {5, 5}, long}
	keysStable(t, "no pieces", &solve.Demand{NumGPUs: 4, Alpha: 1e-6, Beta: 1 / 46e9}, &solve.Demand{NumGPUs: 4, Alpha: 1e-6, Beta: 1 / 46e9})
	keysStable(t, "no gpus", &solve.Demand{}, &solve.Demand{})
	rng := rand.New(rand.NewSource(3))
	for _, a := range oddFloats {
		for _, b := range oddFloats {
			d := &solve.Demand{NumGPUs: 300, Alpha: a, Beta: b}
			for k, srcs := range lists {
				dsts := lists[(k+1)%len(lists)]
				d.Pieces = append(d.Pieces, solve.Piece{ID: k, Bytes: a, Srcs: srcs, Dsts: dsts})
				d.Pieces = append(d.Pieces, solve.Piece{ID: k, Bytes: b, Srcs: dsts, Dsts: srcs})
			}
			keysStable(t, fmt.Sprintf("alpha=%g beta=%g", a, b), d, relabel(d, rng.Perm(d.NumGPUs), rng, true))
		}
	}
}

// randomKeyDemand builds a demand with a few shared piece sizes (as
// sub-demands have) and arbitrary, possibly repeating, endpoint lists.
func randomKeyDemand(rng *rand.Rand) *solve.Demand {
	n := 1 + rng.Intn(12)
	d := &solve.Demand{NumGPUs: n, Alpha: oddFloats[rng.Intn(len(oddFloats))], Beta: rng.ExpFloat64() * 1e-9}
	sizes := []float64{rng.Float64() * 1e6, float64(int64(1) << uint(rng.Intn(30))), oddFloats[rng.Intn(len(oddFloats))]}
	for p := rng.Intn(20); p > 0; p-- {
		piece := solve.Piece{ID: p, Bytes: sizes[rng.Intn(len(sizes))]}
		for k := rng.Intn(4); k > 0; k-- {
			piece.Srcs = append(piece.Srcs, rng.Intn(n))
		}
		for k := rng.Intn(n + 1); k > 0; k-- {
			piece.Dsts = append(piece.Dsts, rng.Intn(n))
		}
		d.Pieces = append(d.Pieces, piece)
	}
	return d
}

func TestCacheKeysStableRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		keysStable(t, fmt.Sprintf("random %d", i), twins(rng, randomKeyDemand(rng))...)
	}
}

// FuzzCacheKeysStable decodes a demand from the input — float fields
// from raw bits, so NaN payloads, infinities and denormals all occur —
// and holds every key rendering to its fmt reference, the demand's
// relabelled twins and near misses included.
func FuzzCacheKeysStable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0x3e, 0xb0, 0xc6, 0xf7, 0xa0, 0xb5, 0xed, 0x8d, 2, 1, 2, 0, 1, 3, 1, 2, 3})
	f.Add([]byte{8, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x41, 0x30, 0, 0, 0, 0, 0, 0, 3, 0, 3, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			pos++
			return data[pos-1]
		}
		float := func() float64 {
			var bits uint64
			for k := 0; k < 8; k++ {
				bits = bits<<8 | uint64(next())
			}
			return math.Float64frombits(bits)
		}
		n := 1 + int(next())%16
		d := &solve.Demand{NumGPUs: n, Alpha: float(), Beta: float()}
		sizes := []float64{float(), float()}
		for p := int(next()) % 12; p > 0; p-- {
			piece := solve.Piece{Bytes: sizes[int(next())%2]}
			for k := int(next()) % 4; k > 0; k-- {
				piece.Srcs = append(piece.Srcs, int(next())%n)
			}
			for k := int(next()) % 6; k > 0; k-- {
				piece.Dsts = append(piece.Dsts, int(next())%n)
			}
			d.Pieces = append(d.Pieces, piece)
		}
		keysStable(t, "fuzz", twins(rand.New(rand.NewSource(int64(len(data)))), d)...)
	})
}
