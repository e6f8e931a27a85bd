// Package cli holds helpers shared by the command-line tools: parsing
// topology and collective specifications and size strings.
package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"syccl/internal/collective"
	"syccl/internal/topology"
)

// ParseTopology resolves a topology spec:
//
//	a100x16 | a100x32          — the paper's A100 testbeds (Fig 13a)
//	h800x64 | h800x512         — the H800 rail clusters (Fig 13b)
//	h800small                  — the §7.4 scaled-down 24-GPU cluster
//	server8                    — one 8-GPU NVSwitch server
//	dgx4                       — one 4-GPU NVSwitch server
//	fig3 | fig19 | fig20       — the worked-example topologies
func ParseTopology(spec string) (*topology.Topology, error) {
	switch strings.ToLower(spec) {
	case "dgx4":
		return topology.SingleServer(4), nil
	case "a100x16":
		return topology.A100Clos(2), nil
	case "a100x32":
		return topology.A100Clos(4), nil
	case "h800x16":
		return topology.H800Rail(2), nil
	case "h800x64":
		return topology.H800Rail(8), nil
	case "h800x512":
		return topology.H800Rail(64), nil
	case "h800small":
		return topology.H800Small(6), nil
	case "server8":
		return topology.SingleServer(8), nil
	case "fig3":
		return topology.Fig3(), nil
	case "fig19":
		return topology.Fig19(), nil
	case "fig20":
		return topology.Fig20(), nil
	default:
		return nil, fmt.Errorf("unknown topology %q (try a100x16, a100x32, h800x64, h800x512, h800small, server8, dgx4, fig3, fig19, fig20)", spec)
	}
}

// ParseSize parses a byte size like "64M", "1G", "4K", "1024". The size
// must be finite and positive: "NaN", "Inf" and "infM" are refused.
func ParseSize(in string) (float64, error) {
	s := strings.TrimSpace(strings.ToUpper(in))
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "G"):
		mult = 1 << 30
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult = 1 << 20
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "K"):
		mult = 1 << 10
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "B"):
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	v *= mult
	if err != nil || !(v > 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("bad size %q", in)
	}
	return v, nil
}

// BuildCollective instantiates a collective by name with an aggregate
// data size (the paper's figure-axis convention) on n GPUs. Rooted
// collectives use root 0.
func BuildCollective(kind string, n int, dataBytes float64) (*collective.Collective, error) {
	switch strings.ToLower(kind) {
	case "allgather", "ag":
		return collective.AllGather(n, dataBytes/float64(n)), nil
	case "reducescatter", "rs":
		return collective.ReduceScatter(n, dataBytes/float64(n)), nil
	case "alltoall", "a2a":
		return collective.AlltoAll(n, dataBytes/float64(n*(n-1))), nil
	case "allreduce", "ar":
		return collective.AllReduce(n, dataBytes), nil
	case "broadcast", "bc":
		return collective.Broadcast(n, 0, dataBytes), nil
	case "reduce":
		return collective.Reduce(n, 0, dataBytes), nil
	case "scatter":
		return collective.Scatter(n, 0, dataBytes/float64(n-1)), nil
	case "gather":
		return collective.Gather(n, 0, dataBytes/float64(n-1)), nil
	case "sendrecv":
		return collective.SendRecv(n, 0, n-1, dataBytes), nil
	default:
		return nil, fmt.Errorf("unknown collective %q", kind)
	}
}
