package engine

import (
	"fmt"
	"strconv"
	"strings"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/sketch"
	"syccl/internal/topology"
)

// PlanKey returns a canonical identity string for a Plan request: two
// requests with equal keys are guaranteed to produce byte-identical
// schedules on a warm engine, so the key is safe to use for request
// coalescing (internal/serve single-flights concurrent duplicates on it)
// and for addressing stored results.
//
// The key covers everything that influences the synthesized schedule:
// the topology fingerprint, the full collective demand (kind, shape,
// chunk size, root, and the exact chunk source/destination sets), and
// the solve-relevant options, search options and solver mode included.
// Options.Workers is deliberately excluded — it only fans independent
// sub-demand solves out, each of them a serial deterministic search, so
// schedules are byte-identical across worker counts — as are the pure
// observability and cache-wiring fields (Obs, Search.Rec, OnIncumbent,
// SolveCache, SketchCache, BoundCache; Sim ranking options are fixed by
// the caller, not the request). TestPlanKeyCoversEveryOption holds every field of
// core.Options and sketch.SearchOptions to one list or the other.
//
// Callers that accept user-supplied options should normalize them (fill
// defaults) before keying: PlanKey hashes the literal field values, so
// E1=0 ("use the default") and E1=3.0 (the default, spelled out) produce
// different keys even though they run identically.
//
// The format is frozen: stored schedule ids and persisted snapshots are
// addressed by it. "eng=0|tl=0" are the slots of two removed options
// (an engine override and a per-solve time limit), kept as the literals
// every key ever written carries.
func PlanKey(top *topology.Topology, col *collective.Collective, opts core.Options) string {
	var sb strings.Builder
	sb.WriteString(top.Fingerprint())
	fmt.Fprintf(&sb, "|%s|n%d|s%.9g|root%d|red%t|c%016x",
		col.Kind, col.NumGPUs, col.ChunkSize, col.Root, col.Reduce, chunkDigest(col))
	fmt.Fprintf(&sb, "|e1=%.9g|e2=%.9g|r1=%.9g|r2=%d|mc=%d|seed=%d|eng=0|tl=0|2s=%t|iso=%t",
		opts.E1, opts.E2, opts.R1, opts.R2, opts.MaxCombos, opts.Seed,
		opts.DisableTwoStep, opts.DisableIsomorphCache)
	// A sketch hint filters the candidate space and StopWithin can end
	// the pipeline at the coarse/fine boundary, so both are part of plan
	// identity. Appended only when set: unhinted keys keep their
	// historical format, so stored-schedule snapshots from older runs
	// stay addressable.
	if h := opts.Hint.Canonical(); h != "" {
		fmt.Fprintf(&sb, "|hint=%s", h)
	}
	if opts.StopWithin > 0 {
		fmt.Fprintf(&sb, "|sw=%.9g", opts.StopWithin)
	}
	// Search options and the solver mode change the candidate space and
	// the sub-demand solutions. Same only-when-set rule, for the same
	// reason; the search part is the fingerprint core keys its sketch
	// cache by, so the two cannot drift.
	so := opts.Search
	so.Rec = nil
	if so != (sketch.SearchOptions{}) {
		fmt.Fprintf(&sb, "|search=%s", so.Fingerprint())
	}
	if opts.SolverMode != core.SolverAuto {
		fmt.Fprintf(&sb, "|solver=%s", opts.SolverMode)
	}
	return sb.String()
}

// chunkDigest hashes the collective's chunk structure (ID, source, and
// destination set per chunk) so demands that differ only in their F_s/F_d
// maps key differently without embedding the full chunk list. It is
// FNV-1a (64-bit) over the bytes "<id>:<src>:<dst>,<dst>,...;" per chunk
// — every stored schedule id and persisted snapshot hangs off them —
// folded in digit by digit, without a buffer or an allocation.
func chunkDigest(col *collective.Collective) uint64 {
	h := uint64(fnvOffset64)
	for _, ch := range col.Chunks {
		h = fnvInt(fnvInt(h, ch.ID, ':'), ch.Src, ':')
		for _, d := range ch.Dsts {
			h = fnvInt(h, d, ',')
		}
		h = (h ^ ';') * fnvPrime64
	}
	return h
}

// The FNV-1a parameters of hash/fnv's New64a.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvInt folds the decimal digits of v, then sep, into the hash.
func fnvInt(h uint64, v int, sep byte) uint64 {
	var digits [20]byte
	for _, c := range strconv.AppendInt(digits[:0], int64(v), 10) {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return (h ^ uint64(sep)) * fnvPrime64
}
