// H800 AllGather sweep: reproduce the Fig 15(a) story on the 64-GPU
// rail-optimized H800 cluster — NCCL's 63-hop ring against SyCCL's
// synthesized two-dimensional schedules, across data sizes.
//
// Expected shape: at small sizes SyCCL wins by an order of magnitude
// (2 hops instead of 63); at large sizes it wins by matching the 3.6:1
// NVLink:network bandwidth ratio that the ring's fixed 7:1 split wastes.
//
// With -big, the example additionally walks the 64-SERVER cluster
// (H800Rail(64), 512 GPUs) — the Fig 15(b) scale, where the merged
// AllGather sub-demands are far over the exact MILP's size gate. The
// default pipeline solves them with the closed-form and greedy
// schedulers: the 1 GiB AllGather synthesizes in about 7.5 s on a
// 2-core Xeon (2 093 056 transfers), and the schedule validates against
// the exhaustive delivery oracle. Budget a few minutes for the oracle
// itself at this scale.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"syccl"
	"syccl/internal/metrics"
	"syccl/internal/nccl"
	"syccl/internal/sim"
	"syccl/internal/verify"
)

func main() {
	big := flag.Bool("big", false, "also synthesize the 512-GPU (64-server) cluster")
	flag.Parse()

	top := syccl.H800Rail(8) // 8 servers × 8 H800 GPUs
	n := top.NumGPUs()
	fmt.Println("topology:", top)
	fmt.Printf("%8s %14s %14s %9s\n", "size", "NCCL GBps", "SyCCL GBps", "speedup")

	for size := float64(64 << 10); size <= 4<<30; size *= 16 {
		col := syccl.AllGather(n, size/float64(n))

		_, ncclTime, err := nccl.Schedule(top, col, sim.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		res, err := syccl.Synthesize(top, col, syccl.Options{})
		if err != nil {
			log.Fatal(err)
		}

		ncclBW := metrics.BusBandwidth(col.Kind, n, size, ncclTime)
		sycclBW := syccl.BusBandwidth(col, res.Time)
		fmt.Printf("%8s %14.1f %14.1f %8.1f×\n",
			label(size), ncclBW/1e9, sycclBW/1e9, sycclBW/ncclBW)
	}

	if *big {
		bigCluster()
	}
}

// bigCluster synthesizes a 1 GiB AllGather on the 64-server (512-GPU)
// H800 cluster under a 60-second budget, and
// validates the result against the delivery oracle.
func bigCluster() {
	top := syccl.H800Rail(64)
	n := top.NumGPUs()
	fmt.Printf("\n64-server walkthrough: %v\n", top)
	col := syccl.AllGather(n, float64(1<<30)/float64(n))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	res, err := syccl.SynthesizeContext(ctx, top, col, syccl.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized in %v (partial=%t, %d transfers, predicted %.3gs, busbw %.1f GBps)\n",
		time.Since(start).Round(time.Millisecond), res.Partial,
		len(res.Schedule.Transfers), res.Time, syccl.BusBandwidth(col, res.Time)/1e9)

	fmt.Println("validating against the delivery oracle (minutes at this scale)...")
	if err := verify.CheckSchedule(col, res.Schedule); err != nil {
		log.Fatal("oracle rejected the schedule: ", err)
	}
	fmt.Println("oracle: schedule delivers every chunk to every destination")
}

func label(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%gG", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%gM", b/(1<<20))
	default:
		return fmt.Sprintf("%gK", b/(1<<10))
	}
}
