// Package metrics computes collective-communication performance metrics.
//
// The paper reports Bus Bandwidth (busbw), the nccl-tests metric that
// normalizes algorithm bandwidth by the hardware-limited fraction of
// traffic, making numbers comparable across collectives and GPU counts.
package metrics

import "syccl/internal/collective"

// AlgBandwidth returns algbw = dataBytes / seconds, where dataBytes is the
// collective's aggregate buffer size (nccl-tests "size" column).
func AlgBandwidth(dataBytes, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return dataBytes / seconds
}

// BusFactor returns the busbw correction factor for a collective on n
// GPUs, following nccl-tests PERFORMANCE.md:
//
//	AllGather, ReduceScatter, AlltoAll: (n-1)/n
//	AllReduce:                          2(n-1)/n
//	Broadcast, Reduce, SendRecv, Gather, Scatter: 1
func BusFactor(kind collective.Kind, n int) float64 {
	if n <= 1 {
		return 1
	}
	switch kind {
	case collective.KindAllGather, collective.KindReduceScatter, collective.KindAlltoAll:
		return float64(n-1) / float64(n)
	case collective.KindAllReduce:
		return 2 * float64(n-1) / float64(n)
	default:
		return 1
	}
}

// BusBandwidth returns busbw in bytes/second for completing a collective
// moving dataBytes of aggregate payload in `seconds`.
//
// AlltoAll follows the per-rank convention (as in the NCCL 2.12 PXN
// evaluation and the paper's Fig 14d/15c magnitudes): its algorithm
// bandwidth is the per-rank buffer (dataBytes/n) over time. The gather/
// scatter family uses the aggregate buffer, matching the paper's §2.1
// arithmetic ("a total size of 1GB distributed across 512 GPUs").
func BusBandwidth(kind collective.Kind, n int, dataBytes, seconds float64) float64 {
	if kind == collective.KindAlltoAll && n > 0 {
		dataBytes /= float64(n)
	}
	return AlgBandwidth(dataBytes, seconds) * BusFactor(kind, n)
}

// DataBytes returns the conventional figure-axis "data size" of a
// collective: the aggregate buffer size.
func DataBytes(c *collective.Collective) float64 {
	switch c.Kind {
	case collective.KindReduceScatter:
		// n·(n-1) chunks model the per-source contributions, but the
		// logical buffer is n slices of ChunkSize.
		return float64(c.NumGPUs) * c.ChunkSize
	case collective.KindReduce:
		// n-1 chunks model the contributions to one buffer of ChunkSize.
		return c.ChunkSize
	default:
		return c.TotalBytes()
	}
}

// GBps converts bytes/second to gigabytes/second (10^9, as nccl-tests).
func GBps(bytesPerSecond float64) float64 { return bytesPerSecond / 1e9 }
