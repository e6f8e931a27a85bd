package core

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// construct builds kind k on n GPUs with its constructor, at chunk size
// bytes; rooted kinds use root (SendRecv sends to the next GPU).
func construct(k collective.Kind, n, root int, bytes float64) *collective.Collective {
	switch k {
	case collective.KindSendRecv:
		return collective.SendRecv(n, root, (root+1)%n, bytes)
	case collective.KindBroadcast:
		return collective.Broadcast(n, root, bytes)
	case collective.KindScatter:
		return collective.Scatter(n, root, bytes)
	case collective.KindGather:
		return collective.Gather(n, root, bytes)
	case collective.KindReduce:
		return collective.Reduce(n, root, bytes)
	case collective.KindAllGather:
		return collective.AllGather(n, bytes)
	case collective.KindAlltoAll:
		return collective.AlltoAll(n, bytes)
	case collective.KindReduceScatter:
		return collective.ReduceScatter(n, bytes)
	case collective.KindAllReduce:
		return collective.AllReduce(n, bytes*float64(n))
	default:
		return &collective.Collective{Kind: k, NumGPUs: n, ChunkSize: bytes, Root: -1}
	}
}

// split is the caller-made pipelining split: every chunk becomes k chunks
// of 1/k of its bytes, IDs kept dense.
func split(k int) func(*collective.Collective) bool {
	return func(c *collective.Collective) bool {
		var chunks []collective.Chunk
		for _, ch := range c.Chunks {
			for i := 0; i < k; i++ {
				chunks = append(chunks, collective.Chunk{ID: len(chunks), Src: ch.Src, Dsts: ch.Dsts})
			}
		}
		c.Chunks, c.ChunkSize = chunks, c.ChunkSize/float64(k)
		return true
	}
}

func setSize(s float64) func(*collective.Collective) bool {
	return func(c *collective.Collective) bool { c.ChunkSize = s; return true }
}

// refusals turn a constructor's collective into one Synthesize refuses;
// a row returning false does not apply to the kind.
var refusals = []struct {
	name   string
	mutate func(*collective.Collective) bool
}{
	{"split k=2", split(2)},
	{"split k=4", split(4)},
	{"split k=8", split(8)},
	{"chunk order rotated", func(c *collective.Collective) bool {
		// The same demand under other chunk IDs. A one-chunk kind has no
		// other order.
		if len(c.Chunks) < 2 {
			return false
		}
		c.Chunks = append(c.Chunks[1:], c.Chunks[0])
		for i := range c.Chunks {
			c.Chunks[i].ID = i
		}
		return true
	}},
	{"GPUs relabeled", func(c *collective.Collective) bool {
		// The image under a rotation of the server, an automorphism of
		// SingleServer(n), with chunk IDs kept. The image of a SendRecv
		// or Broadcast is the constructor's collective at the image of the
		// root, which is admitted (verify's
		// TestPermutationSymmetrySynthesize synthesizes it).
		n := c.NumGPUs
		perm := func(g int) int { return (g + 1) % n }
		img := &collective.Collective{Kind: c.Kind, NumGPUs: n, ChunkSize: c.ChunkSize, Reduce: c.Reduce, Root: c.Root}
		if c.Root >= 0 {
			img.Root = perm(c.Root)
		}
		for _, ch := range c.Chunks {
			nc := collective.Chunk{ID: ch.ID, Src: perm(ch.Src)}
			for _, d := range ch.Dsts {
				nc.Dsts = append(nc.Dsts, perm(d))
			}
			sort.Ints(nc.Dsts) // F_d is a set
			img.Chunks = append(img.Chunks, nc)
		}
		if reflect.DeepEqual(img, construct(c.Kind, n, img.Root, c.ChunkSize)) {
			return false
		}
		*c = *img
		return true
	}},
	{"size NaN", setSize(math.NaN())},
	{"size +Inf", setSize(math.Inf(1))},
	{"size 0", setSize(0)},
	{"size -1", setSize(-1)},
	{"root out of range", func(c *collective.Collective) bool {
		if c.Root >= 0 {
			c.Root = c.NumGPUs
		} else {
			c.Root = 0
		}
		return true
	}},
	{"Reduce flag flipped", func(c *collective.Collective) bool { c.Reduce = !c.Reduce; return true }},
}

// TestSynthesizeRefusalTable: every kind's constructor output is
// admitted and synthesizes to a schedule the oracle accepts, and every
// refusal row applied to it returns collective.ErrUnsupported — the
// k-split AllReduce and Reduce included, which without the door would
// synthesize to a collective of 1/k the bytes or fail late.
func TestSynthesizeRefusalTable(t *testing.T) {
	top := topology.SingleServer(4)
	for _, kind := range verify.AllKinds {
		col := construct(kind, 4, 1, 1<<20)
		res, err := Synthesize(top, col, Options{})
		if err != nil {
			t.Fatalf("%v: constructor's collective refused: %v", kind, err)
		}
		if err := verify.CheckSchedule(col, res.Schedule); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, row := range refusals {
			bad := construct(kind, 4, 1, 1<<20)
			if !row.mutate(bad) {
				continue
			}
			if res, err := Synthesize(top, bad, Options{}); !errors.Is(err, collective.ErrUnsupported) {
				t.Errorf("%v %s: got %v (result %v), want collective.ErrUnsupported", kind, row.name, err, res != nil)
			}
		}
	}
}

// contractSizes are the chunk sizes FuzzSynthesizeContract picks from:
// the small and large regimes of the pipeline, and sizes the door refuses.
var contractSizes = []float64{1 << 10, 1 << 20, 64 << 20, math.NaN(), math.Inf(1), 0, -1}

// FuzzSynthesizeContract holds Synthesize to its contract on any
// collective: it returns collective.ErrUnsupported, or a schedule the
// oracle accepts — never a panic, another error, or a wrong schedule.
// The fuzzer picks the kind (9 is unknown), n ≤ 8, the root, the chunk
// size, whether the Reduce flag is flipped, and the chunk list: empty
// layout keeps the constructor's chunks, otherwise layout[0] is the
// chunk count and each chunk reads two bytes — its source, and its
// destination set as a bit mask over the GPUs.
func FuzzSynthesizeContract(f *testing.F) {
	for kind := range 9 {
		f.Add(uint8(kind), uint8(2), uint8(2), uint8(0), false, []byte(nil))
		f.Add(uint8(kind), uint8(6), uint8(1), uint8(2), false, []byte(nil))
		f.Add(uint8(kind), uint8(2), uint8(1), uint8(3), true, []byte(nil))
	}
	// Split Reduce and AllReduce, a relabeled AllGather, a stray chunk.
	f.Add(uint8(collective.KindReduce), uint8(2), uint8(2), uint8(1), false, []byte{6, 0, 2, 0, 2, 2, 2, 2, 2, 3, 2, 3, 2})
	f.Add(uint8(collective.KindAllReduce), uint8(2), uint8(0), uint8(1), false, []byte{8, 0, 14, 0, 14, 1, 13, 1, 13, 2, 11, 2, 11, 3, 7, 3, 7})
	f.Add(uint8(collective.KindAllGather), uint8(2), uint8(0), uint8(0), false, []byte{4, 1, 13, 0, 14, 2, 11, 3, 7})
	f.Add(uint8(collective.KindSendRecv), uint8(2), uint8(1), uint8(0), false, []byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, kind, gpus, root, size uint8, flip bool, layout []byte) {
		n := 2 + int(gpus)%7
		k := collective.Kind(int(kind) % 10)
		r := int(root)%(n+2) - 1
		col := construct(k, n, max(r, 0), contractSizes[int(size)%len(contractSizes)])
		col.Root = r
		col.Reduce = col.Reduce != flip
		if len(layout) > 0 {
			col.Chunks = nil
			for i := 0; i < int(layout[0]) && 2*i+2 < len(layout); i++ {
				ch := collective.Chunk{ID: i, Src: int(layout[2*i+1]) % n}
				for g := 0; g < n; g++ {
					if layout[2*i+2]&(1<<g) != 0 {
						ch.Dsts = append(ch.Dsts, g)
					}
				}
				col.Chunks = append(col.Chunks, ch)
			}
		}
		res, err := Synthesize(topology.SingleServer(n), col, Options{})
		if err != nil {
			if !errors.Is(err, collective.ErrUnsupported) {
				t.Fatalf("%v: error outside the contract: %v", col, err)
			}
			return
		}
		if err := verify.CheckSchedule(col, res.Schedule); err != nil {
			t.Fatalf("%v: admitted, but the schedule is wrong: %v", col, err)
		}
	})
}
