// Package collective models collective-communication demands.
//
// Following Table 1 of the paper, a collective is a set of data chunks C of
// uniform size s, a source map F_s assigning each chunk to the GPU that
// initially holds it, a destination map F_d assigning each chunk to the set
// of GPUs that demand it, and a reduce flag r indicating whether chunks are
// combined (reduced) at destinations rather than concatenated.
//
// The four communication patterns of Fig 1 (one-to-one, one-to-all,
// all-to-one, all-to-all) are all expressible; constructors are provided
// for the nine standard collectives.
package collective

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Kind identifies a standard collective.
type Kind int

// Standard collectives.
const (
	KindSendRecv Kind = iota
	KindBroadcast
	KindScatter
	KindGather
	KindReduce
	KindAllGather
	KindAlltoAll
	KindReduceScatter
	KindAllReduce
)

var kindNames = map[Kind]string{
	KindSendRecv:      "SendRecv",
	KindBroadcast:     "Broadcast",
	KindScatter:       "Scatter",
	KindGather:        "Gather",
	KindReduce:        "Reduce",
	KindAllGather:     "AllGather",
	KindAlltoAll:      "AlltoAll",
	KindReduceScatter: "ReduceScatter",
	KindAllReduce:     "AllReduce",
}

// String returns the collective's conventional name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a name such as "AllGather" (case-sensitive) to a Kind.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("collective: unknown kind %q", s)
}

// Chunk is one unit of collective data: ID, the GPU it starts on (F_s) and
// the sorted set of GPUs that demand it (F_d).
type Chunk struct {
	ID   int
	Src  int
	Dsts []int
}

// Demands reports whether GPU g demands the chunk.
func (c *Chunk) Demands(g int) bool {
	i := sort.SearchInts(c.Dsts, g)
	return i < len(c.Dsts) && c.Dsts[i] == g
}

// ErrUnsupported is wrapped by every refusal of Validate: the collective
// is not one that its kind's constructor builds.
var ErrUnsupported = errors.New("unsupported collective")

// Collective is a communication demand over GPUs 0..NumGPUs-1. Build it
// with the kind's constructor: Validate refuses any other chunk layout.
type Collective struct {
	Kind      Kind
	NumGPUs   int
	Chunks    []Chunk
	ChunkSize float64 // bytes per chunk (s in Table 1)
	Reduce    bool    // r in Table 1: chunks are reduced at destinations
	Root      int     // root GPU for rooted collectives, -1 otherwise
}

// TotalBytes returns the total payload of the collective: the number of
// chunk deliveries times the chunk size is the moved volume, but the
// conventional "data size" (the x-axis of the paper's figures, following
// nccl-tests) is the aggregate buffer size, i.e. chunk count × chunk size.
func (c *Collective) TotalBytes() float64 {
	return float64(len(c.Chunks)) * c.ChunkSize
}

// Validate is the one admission contract of the synthesizer: it admits
// exactly what the kind's constructor builds — the constructor's chunk
// count, each chunk's ID, source and destinations in constructor order
// (for SendRecv: one chunk from Root to one other GPU), the kind's Reduce
// flag and Root convention (a GPU for rooted kinds, -1 otherwise), at
// least two GPUs, and a finite positive ChunkSize. Anything else is
// refused with an error wrapping ErrUnsupported. It allocates nothing on
// success.
func (c *Collective) Validate() error {
	n := c.NumGPUs
	if _, ok := kindNames[c.Kind]; !ok {
		return c.refuse("unknown kind")
	}
	switch {
	case n < 2:
		return c.refuse("%d GPUs", n)
	case !(c.ChunkSize > 0) || math.IsInf(c.ChunkSize, 1):
		return c.refuse("chunk size %g is not finite and positive", c.ChunkSize)
	case c.Reduce != reduces(c.Kind):
		return c.refuse("reduce flag %t", c.Reduce)
	case rooted(c.Kind) && (c.Root < 0 || c.Root >= n):
		return c.refuse("root %d out of range", c.Root)
	case !rooted(c.Kind) && c.Root != -1:
		return c.refuse("root %d, want -1", c.Root)
	case len(c.Chunks) != numChunks(c.Kind, n):
		return c.refuse("%d chunks, want %d", len(c.Chunks), numChunks(c.Kind, n))
	}
	peer := -1
	if c.Kind == KindSendRecv {
		d := c.Chunks[0].Dsts
		if len(d) != 1 || d[0] < 0 || d[0] >= n || d[0] == c.Root {
			return c.refuse("destinations %v, want one GPU other than the root", d)
		}
		peer = d[0]
	}
	for i := range c.Chunks {
		ch := &c.Chunks[i]
		src, dst := chunkAt(c.Kind, n, c.Root, peer, i)
		if ch.ID != i || ch.Src != src || !dstsMatch(ch.Dsts, n, src, dst) {
			return c.refuse("chunk %d is {ID %d, source %d, destinations %v}, want {ID %d, source %d, %s}",
				i, ch.ID, ch.Src, ch.Dsts, i, src, dstName(dst))
		}
	}
	return nil
}

func (c *Collective) refuse(format string, args ...any) error {
	return fmt.Errorf("%w %s: %s", ErrUnsupported, c.Kind, fmt.Sprintf(format, args...))
}

// String summarizes the collective.
func (c *Collective) String() string {
	return fmt.Sprintf("%s(%d GPUs, %d chunks × %g B)", c.Kind, c.NumGPUs, len(c.Chunks), c.ChunkSize)
}

// all, as a chunk's destination, stands for every GPU but its source.
const all = -1

// numChunks, chunkAt, reduces and rooted are Table 1 per kind — the one
// copy of it, read by both the constructors and Validate.

// numChunks is |C| for kind k on n GPUs.
func numChunks(k Kind, n int) int {
	switch k {
	case KindSendRecv, KindBroadcast:
		return 1
	case KindScatter, KindGather, KindReduce:
		return n - 1
	case KindAllGather, KindAllReduce:
		return n
	default: // KindAlltoAll, KindReduceScatter
		return n * (n - 1)
	}
}

// chunkAt is F_s and F_d for chunk i: its source and the GPU that demands
// it, or all. peer is SendRecv's destination; other kinds ignore it.
func chunkAt(k Kind, n, root, peer, i int) (src, dst int) {
	switch k {
	case KindSendRecv:
		return root, peer
	case KindBroadcast:
		return root, all
	case KindScatter:
		return root, other(i, root)
	case KindGather, KindReduce:
		return other(i, root), root
	case KindAllGather, KindAllReduce:
		return i, all
	case KindAlltoAll:
		src = i / (n - 1)
		return src, other(i%(n-1), src)
	default: // KindReduceScatter
		dst = i / (n - 1)
		return other(i%(n-1), dst), dst
	}
}

// reduces is r: the all-to-one and all-to-all reductions combine chunks.
// AllReduce does not: its chunk set is that of its AllGather phase.
func reduces(k Kind) bool { return k == KindReduce || k == KindReduceScatter }

// rooted reports whether the kind has a root GPU (Root ≥ 0) rather than
// Root = -1.
func rooted(k Kind) bool { return k <= KindReduce }

// other is the i-th GPU, counting from 0, that is not skip.
func other(i, skip int) int {
	if i >= skip {
		return i + 1
	}
	return i
}

// dstsMatch reports whether dsts is the destination list chunkAt's dst
// stands for, in ascending order.
func dstsMatch(dsts []int, n, src, dst int) bool {
	if dst != all {
		return len(dsts) == 1 && dsts[0] == dst
	}
	if len(dsts) != n-1 {
		return false
	}
	for j, d := range dsts {
		if d != other(j, src) {
			return false
		}
	}
	return true
}

func dstName(dst int) string {
	if dst == all {
		return "every other GPU"
	}
	return fmt.Sprintf("destination %d", dst)
}

// build lays out kind k on n GPUs by Table 1.
func build(k Kind, n, root, peer int, size float64) *Collective {
	c := &Collective{Kind: k, NumGPUs: n, ChunkSize: size, Reduce: reduces(k), Root: -1}
	if rooted(k) {
		c.Root = root
	}
	c.Chunks = make([]Chunk, max(numChunks(k, n), 0))
	for i := range c.Chunks {
		src, dst := chunkAt(k, n, root, peer, i)
		var dsts []int
		if dst == all {
			dsts = make([]int, n-1)
			for j := range dsts {
				dsts[j] = other(j, src)
			}
		} else {
			dsts = []int{dst}
		}
		c.Chunks[i] = Chunk{ID: i, Src: src, Dsts: dsts}
	}
	return c
}

// SendRecv builds a one-to-one transfer of `bytes` from src to dst.
func SendRecv(n, src, dst int, bytes float64) *Collective {
	return build(KindSendRecv, n, src, dst, bytes)
}

// Broadcast builds a one-to-all broadcast of one chunk of `bytes` from root.
func Broadcast(n, root int, bytes float64) *Collective {
	return build(KindBroadcast, n, root, -1, bytes)
}

// Scatter builds a one-to-all scatter: root holds n-1 distinct chunks, one
// destined to each other GPU. Following the paper and MPI convention,
// `bytes` is the per-destination chunk size.
func Scatter(n, root int, bytes float64) *Collective {
	return build(KindScatter, n, root, -1, bytes)
}

// Gather builds an all-to-one gather: every non-root GPU holds one chunk of
// `bytes` demanded by the root.
func Gather(n, root int, bytes float64) *Collective {
	return build(KindGather, n, root, -1, bytes)
}

// Reduce builds an all-to-one reduction: like Gather but chunks are
// combined at the root (all chunks share one logical buffer; we model them
// as n-1 chunks with the reduce flag set).
func Reduce(n, root int, bytes float64) *Collective {
	return build(KindReduce, n, root, -1, bytes)
}

// AllGather builds the all-to-all gather: each GPU i holds chunk i demanded
// by every other GPU. `perGPUBytes` is each GPU's contribution, so the
// aggregate output buffer ("data size" in the paper's figures) is
// n × perGPUBytes.
func AllGather(n int, perGPUBytes float64) *Collective {
	return build(KindAllGather, n, -1, -1, perGPUBytes)
}

// AlltoAll builds the personalized all-to-all: GPU i holds n-1 chunks, one
// destined to each other GPU. `pairBytes` is the payload per (src,dst)
// pair; the aggregate buffer per GPU is (n-1) × pairBytes.
func AlltoAll(n int, pairBytes float64) *Collective {
	return build(KindAlltoAll, n, -1, -1, pairBytes)
}

// ReduceScatter builds the all-to-all reduction: logically each GPU ends
// with the reduction of slice i from every GPU. We model it as the inverse
// of AllGather with the reduce flag: for each destination d there are n-1
// chunks (one per other source) all demanded only by d.
func ReduceScatter(n int, perGPUBytes float64) *Collective {
	return build(KindReduceScatter, n, -1, -1, perGPUBytes)
}

// AllReduce builds the all-reduce specification for a buffer of `bytes`
// per GPU. The synthesizer realizes it as ReduceScatter followed by
// AllGather over n-th sized slices (§4.3); ChunkSize holds the per-slice
// size and the chunk set mirrors the AllGather phase.
func AllReduce(n int, bytes float64) *Collective {
	return build(KindAllReduce, n, -1, -1, bytes/float64(n))
}

// Phase is one step of a collective realized from its forward
// collective's schedule: that schedule itself, or its time reverse
// (Mirrored) remapped onto Col's chunks.
type Phase struct {
	Col      *Collective
	Mirrored bool
}

// Phases returns the one forward (one-to-all or all-to-all) collective
// whose schedule realizes c, and the phases that schedule is turned into,
// concatenated in order. All-to-one collectives are the time reverse of
// their one-to-all inverses — Reduce ↔ Broadcast, Gather ↔ Scatter,
// ReduceScatter ↔ AllGather (§4.1) — and AllReduce is ReduceScatter then
// AllGather over n-th sized slices (§4.3). A forward kind returns c and
// no phases, allocating nothing. Only the first phase is ever mirrored.
func (c *Collective) Phases() (fwd *Collective, phases []Phase) {
	n := c.NumGPUs
	switch c.Kind {
	case KindReduce:
		return Broadcast(n, c.Root, c.ChunkSize), []Phase{{c, true}}
	case KindGather:
		return Scatter(n, c.Root, c.ChunkSize), []Phase{{c, true}}
	case KindReduceScatter:
		return AllGather(n, c.ChunkSize), []Phase{{c, true}}
	case KindAllReduce:
		// AllReduce stores the per-slice size.
		ag := AllGather(n, c.ChunkSize)
		return ag, []Phase{{ReduceScatter(n, c.ChunkSize), true}, {ag, false}}
	default:
		return c, nil
	}
}
