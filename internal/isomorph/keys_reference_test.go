package isomorph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"syccl/internal/solve"
)

// keyReference, exactKeyReference and gpuColorsReference are Key,
// ExactKey and gpuColors as they stood when they were rendered with fmt,
// kept verbatim. Every persisted corpus is addressed by these bytes, so
// the strconv renderings must never drift from them.
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

// keysStable fails the test when any rendering differs from its
// reference by a byte.
func keysStable(t *testing.T, what string, d *solve.Demand) {
	t.Helper()
	if got, want := Key(d), keyReference(d); got != want {
		t.Fatalf("%s: Key drifted:\n got: %q\nwant: %q", what, got, want)
	}
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
	got, want := gpuColors(d), gpuColorsReference(d)
	if len(got) != len(want) {
		t.Fatalf("%s: %d colors, want %d", what, len(got), len(want))
	}
	for g := range got {
		if got[g] != want[g] {
			t.Fatalf("%s: color of GPU %d drifted:\n got: %q\nwant: %q", what, g, got[g], want[g])
		}
	}
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
	keysStable(t, "no pieces", &solve.Demand{NumGPUs: 4, Alpha: 1e-6, Beta: 1 / 46e9})
	keysStable(t, "no gpus", &solve.Demand{})
	for _, a := range oddFloats {
		for _, b := range oddFloats {
			d := &solve.Demand{NumGPUs: 300, Alpha: a, Beta: b}
			for k, srcs := range lists {
				dsts := lists[(k+1)%len(lists)]
				d.Pieces = append(d.Pieces, solve.Piece{ID: k, Bytes: a, Srcs: srcs, Dsts: dsts})
				d.Pieces = append(d.Pieces, solve.Piece{ID: k, Bytes: b, Srcs: dsts, Dsts: srcs})
			}
			keysStable(t, fmt.Sprintf("alpha=%g beta=%g", a, b), d)
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
		keysStable(t, fmt.Sprintf("random %d", i), randomKeyDemand(rng))
	}
}

// FuzzCacheKeysStable decodes a demand from the input — float fields
// from raw bits, so NaN payloads, infinities and denormals all occur —
// and holds every key rendering to its fmt reference.
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
		keysStable(t, "fuzz", d)
	})
}
