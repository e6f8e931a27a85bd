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
	"fmt"
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

// Collective is a communication demand over GPUs 0..NumGPUs-1.
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

// Validate checks structural invariants.
func (c *Collective) Validate() error {
	if c.NumGPUs <= 0 {
		return fmt.Errorf("collective %s: no GPUs", c.Kind)
	}
	if c.ChunkSize <= 0 {
		return fmt.Errorf("collective %s: non-positive chunk size %g", c.Kind, c.ChunkSize)
	}
	for i, ch := range c.Chunks {
		if ch.ID != i {
			return fmt.Errorf("collective %s: chunk IDs not dense at %d", c.Kind, i)
		}
		if ch.Src < 0 || ch.Src >= c.NumGPUs {
			return fmt.Errorf("collective %s: chunk %d source %d out of range", c.Kind, i, ch.Src)
		}
		if !sort.IntsAreSorted(ch.Dsts) {
			return fmt.Errorf("collective %s: chunk %d destinations not sorted", c.Kind, i)
		}
		for _, d := range ch.Dsts {
			if d < 0 || d >= c.NumGPUs {
				return fmt.Errorf("collective %s: chunk %d destination %d out of range", c.Kind, i, d)
			}
			if d == ch.Src && !c.Reduce {
				return fmt.Errorf("collective %s: chunk %d demanded by its own source", c.Kind, i)
			}
		}
	}
	return nil
}

// String summarizes the collective.
func (c *Collective) String() string {
	return fmt.Sprintf("%s(%d GPUs, %d chunks × %g B)", c.Kind, c.NumGPUs, len(c.Chunks), c.ChunkSize)
}

func allExcept(n, skip int) []int {
	out := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != skip {
			out = append(out, i)
		}
	}
	return out
}

// SendRecv builds a one-to-one transfer of `bytes` from src to dst.
func SendRecv(n, src, dst int, bytes float64) *Collective {
	return &Collective{
		Kind: KindSendRecv, NumGPUs: n, ChunkSize: bytes, Root: src,
		Chunks: []Chunk{{ID: 0, Src: src, Dsts: []int{dst}}},
	}
}

// Broadcast builds a one-to-all broadcast of one chunk of `bytes` from root.
func Broadcast(n, root int, bytes float64) *Collective {
	return &Collective{
		Kind: KindBroadcast, NumGPUs: n, ChunkSize: bytes, Root: root,
		Chunks: []Chunk{{ID: 0, Src: root, Dsts: allExcept(n, root)}},
	}
}

// Scatter builds a one-to-all scatter: root holds n-1 distinct chunks, one
// destined to each other GPU. `bytes` is the total scattered payload, so
// each chunk carries bytes/(n-1)... — no: following the paper and MPI
// convention, `bytes` is the per-destination chunk size.
func Scatter(n, root int, bytes float64) *Collective {
	c := &Collective{Kind: KindScatter, NumGPUs: n, ChunkSize: bytes, Root: root}
	for _, d := range allExcept(n, root) {
		c.Chunks = append(c.Chunks, Chunk{ID: len(c.Chunks), Src: root, Dsts: []int{d}})
	}
	return c
}

// Gather builds an all-to-one gather: every non-root GPU holds one chunk of
// `bytes` demanded by the root.
func Gather(n, root int, bytes float64) *Collective {
	c := &Collective{Kind: KindGather, NumGPUs: n, ChunkSize: bytes, Root: root}
	for _, s := range allExcept(n, root) {
		c.Chunks = append(c.Chunks, Chunk{ID: len(c.Chunks), Src: s, Dsts: []int{root}})
	}
	return c
}

// Reduce builds an all-to-one reduction: like Gather but chunks are
// combined at the root (all chunks share one logical buffer; we model them
// as n-1 chunks with the reduce flag set).
func Reduce(n, root int, bytes float64) *Collective {
	c := Gather(n, root, bytes)
	c.Kind = KindReduce
	c.Reduce = true
	return c
}

// AllGather builds the all-to-all gather: each GPU i holds chunk i demanded
// by every other GPU. `perGPUBytes` is each GPU's contribution, so the
// aggregate output buffer ("data size" in the paper's figures) is
// n × perGPUBytes.
func AllGather(n int, perGPUBytes float64) *Collective {
	c := &Collective{Kind: KindAllGather, NumGPUs: n, ChunkSize: perGPUBytes, Root: -1}
	for i := 0; i < n; i++ {
		c.Chunks = append(c.Chunks, Chunk{ID: i, Src: i, Dsts: allExcept(n, i)})
	}
	return c
}

// AlltoAll builds the personalized all-to-all: GPU i holds n-1 chunks, one
// destined to each other GPU. `pairBytes` is the payload per (src,dst)
// pair; the aggregate buffer per GPU is (n-1) × pairBytes.
func AlltoAll(n int, pairBytes float64) *Collective {
	c := &Collective{Kind: KindAlltoAll, NumGPUs: n, ChunkSize: pairBytes, Root: -1}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			c.Chunks = append(c.Chunks, Chunk{ID: len(c.Chunks), Src: s, Dsts: []int{d}})
		}
	}
	return c
}

// ReduceScatter builds the all-to-all reduction: logically each GPU ends
// with the reduction of slice i from every GPU. We model it as the inverse
// of AllGather with the reduce flag: for each destination d there are n-1
// chunks (one per other source) all demanded only by d.
func ReduceScatter(n int, perGPUBytes float64) *Collective {
	c := &Collective{Kind: KindReduceScatter, NumGPUs: n, ChunkSize: perGPUBytes, Reduce: true, Root: -1}
	for d := 0; d < n; d++ {
		for s := 0; s < n; s++ {
			if s == d {
				continue
			}
			c.Chunks = append(c.Chunks, Chunk{ID: len(c.Chunks), Src: s, Dsts: []int{d}})
		}
	}
	return c
}

// AllReduce builds the all-reduce specification for a buffer of `bytes`
// per GPU. The synthesizer realizes it as ReduceScatter followed by
// AllGather over n-th sized slices (§4.3); ChunkSize holds the per-slice
// size and the chunk set mirrors the AllGather phase.
func AllReduce(n int, bytes float64) *Collective {
	c := AllGather(n, bytes/float64(n))
	c.Kind = KindAllReduce
	return c
}

// Forward returns the one-to-all / all-to-all collective whose time
// reverse realizes c — Reduce ↔ Broadcast, Gather ↔ Scatter,
// ReduceScatter ↔ AllGather (§4.1: "all-to-one collectives are their
// inverses") — and true. For every other kind it returns c and false.
// schedule.MirrorInto turns a schedule of the forward collective into one
// of c.
func (c *Collective) Forward() (*Collective, bool) {
	switch c.Kind {
	case KindReduce:
		return Broadcast(c.NumGPUs, c.Root, c.ChunkSize), true
	case KindGather:
		return Scatter(c.NumGPUs, c.Root, c.ChunkSize), true
	case KindReduceScatter:
		return AllGather(c.NumGPUs, c.ChunkSize), true
	default:
		return c, false
	}
}

// AllReducePhases returns the two phases of an AllReduce of `bytes` per
// GPU: a ReduceScatter and an AllGather over n-th sized slices (§4.3).
func AllReducePhases(n int, bytes float64) (rs, ag *Collective) {
	per := bytes / float64(n)
	return ReduceScatter(n, per), AllGather(n, per)
}
