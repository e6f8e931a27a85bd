// Quickstart: synthesize an AllGather schedule for the paper's 16-GPU
// A100 testbed, inspect the result, and compare it with NCCL's fixed ring
// — the headline scenario of §2.1 and Fig 14(a).
package main

import (
	"fmt"
	"log"

	"syccl"
)

func main() {
	// The 16-GPU A100 testbed (Fig 13a): 2 servers × 8 GPUs, NVSwitch
	// inside, 4×200 Gbps NICs per server behind a ToR.
	top := syccl.A100Clos(2)
	fmt.Println("topology:", top)

	// A 64 MB AllGather: each GPU contributes 4 MB.
	col := syccl.AllGather(top.NumGPUs(), float64(64<<20)/float64(top.NumGPUs()))
	fmt.Println("collective:", col)

	// Synthesize with the paper's default knobs (E1=3.0, E2=0.5; the
	// candidate filter R1=20%, R2=8 is fixed).
	res, err := syccl.Synthesize(top, col, syccl.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("schedule: %d transfers across %d chunk pieces\n",
		len(res.Schedule.Transfers), len(res.Schedule.Pieces))
	fmt.Printf("predicted completion: %.3g ms\n", res.Time*1e3)
	fmt.Printf("bus bandwidth: %.1f GBps\n", syccl.BusBandwidth(col, res.Time)/1e9)
	fmt.Printf("synthesis phases: search=%v combine=%v solve=%v+%v\n",
		res.Phases.Search, res.Phases.Combine, res.Phases.Solve1, res.Phases.Solve2)
	fmt.Printf("winning combination: %d sketches\n", len(res.Combination.Sketches))

	// Export the schedule in MSCCL-executor XML form (§6).
	xmlData, err := syccl.ToXML(res.Schedule, syccl.RuntimeParams{Name: "quickstart-ag", NChannels: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MSCCL XML: %d bytes (feed to syccl-sim or MSCCL-executor)\n", len(xmlData))
}
