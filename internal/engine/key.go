package engine

import (
	"strconv"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/topology"
)

// PlanKey returns a canonical identity string for a Plan request: two
// requests with equal keys are guaranteed to produce byte-identical
// schedules on a warm engine, so the key is safe to use for request
// coalescing (internal/serve single-flights concurrent duplicates on it),
// for the recipe cache and for addressing stored results.
//
// The key is the topology fingerprint, the full collective demand (kind,
// shape, chunk size, root, and the exact chunk source/destination sets),
// and opts.Fingerprint() — every option that steers synthesis, rendered
// at its defaulted value, so an unset option and its spelled-out default
// share a key. TestPlanKeyCoversEveryOption holds every field of
// core.Options, and of the sketch.SearchOptions and sim.Options nested
// in it, to the key or to a list of fields that cannot change the
// schedule.
func PlanKey(top *topology.Topology, col *collective.Collective, opts core.Options) string {
	b := make([]byte, 0, 512)
	b = append(b, top.Fingerprint()...)
	b = append(append(b, '|'), col.Kind.String()...)
	b = strconv.AppendInt(append(b, "|n"...), int64(col.NumGPUs), 10)
	b = strconv.AppendFloat(append(b, "|s"...), col.ChunkSize, 'g', 9, 64)
	b = strconv.AppendInt(append(b, "|root"...), int64(col.Root), 10)
	b = strconv.AppendBool(append(b, "|red"...), col.Reduce)
	b = append(b, "|c"...)
	for h, shift := chunkDigest(col), 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[h>>shift&0xf])
	}
	b = append(append(b, '|'), opts.Fingerprint()...)
	return string(b)
}

// chunkDigest hashes the collective's chunk structure (ID, source, and
// destination set per chunk) so demands that differ only in their F_s/F_d
// maps key differently without embedding the full chunk list. It is
// FNV-1a (64-bit) over the bytes "<id>:<src>:<dst>,<dst>,...;" per chunk,
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
