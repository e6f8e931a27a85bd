// Package solve synthesizes sub-schedules for SyCCL sub-demands (§5.1).
//
// A sub-demand lives inside a single group of a single dimension, so every
// GPU pair is connected with one (α, β) link class and the only contended
// resources are each GPU's egress and ingress port. Following TECCL's
// modeling (Appendix A), time is discretized into epochs of duration τ and
// transfers occupy whole epochs; the auxiliary parameter E picks τ
// automatically (Appendix A.3), trading solve speed (large E → large τ →
// few epochs) against schedule accuracy.
//
// Two engines share this encoding:
//
//   - exact:  branch-and-bound MILP (package milp) over the time-expanded
//     formulation, used when the instance is small enough;
//   - greedy: earliest-finish list scheduling on the epoch grid, always
//     available; the exact engine takes its makespan as the upper end
//     of the horizon search and returns it when nothing shorter is
//     found, and it is the answer for instances over the exact engine's
//     size gate.
package solve

import (
	"fmt"
	"math"
)

// Piece is one unit of payload inside a sub-demand. GPU indices are local
// to the demand (0..len(GPUs)-1 in Demand.GPUs).
type Piece struct {
	ID    int     // caller-assigned identifier, preserved in the output
	Bytes float64 // wire size
	Srcs  []int   // local GPUs already holding the piece (≥1)
	Dsts  []int   // local GPUs that must receive it
}

// Demand is a merged sub-demand within one dimension group (§5.1: SyCCL
// merges sub-demands of the same group and stage because they compete for
// the same ports).
type Demand struct {
	NumGPUs int     // size of the group
	Alpha   float64 // link latency of the dimension
	Beta    float64 // seconds/byte of each GPU port in the dimension
	Pieces  []Piece
}

// Validate checks demand consistency.
func (d *Demand) Validate() error {
	if d.NumGPUs < 2 {
		return fmt.Errorf("solve: demand needs ≥2 GPUs, got %d", d.NumGPUs)
	}
	if d.Beta <= 0 {
		return fmt.Errorf("solve: non-positive beta %g", d.Beta)
	}
	for i, p := range d.Pieces {
		if p.Bytes <= 0 {
			return fmt.Errorf("solve: piece %d has non-positive size", i)
		}
		if len(p.Srcs) == 0 {
			return fmt.Errorf("solve: piece %d has no sources", i)
		}
		hold := make(map[int]bool)
		for _, s := range p.Srcs {
			if s < 0 || s >= d.NumGPUs {
				return fmt.Errorf("solve: piece %d source %d out of range", i, s)
			}
			hold[s] = true
		}
		for _, t := range p.Dsts {
			if t < 0 || t >= d.NumGPUs {
				return fmt.Errorf("solve: piece %d destination %d out of range", i, t)
			}
			if hold[t] {
				return fmt.Errorf("solve: piece %d destination %d already holds it", i, t)
			}
		}
	}
	return nil
}

// Transfer is one scheduled send, in local GPU indices and epoch units.
type Transfer struct {
	Src, Dst int
	Piece    int // index into Demand.Pieces
	Start    int // start epoch
	Arrive   int // epoch at which the piece is usable at Dst
}

// SubSchedule is a solved sub-demand.
type SubSchedule struct {
	Transfers []Transfer
	Epochs    int     // makespan in epochs
	Tau       float64 // epoch duration used
	Engine    string  // which engine produced it
}

// Makespan returns the completion time in seconds.
func (s *SubSchedule) Makespan() float64 { return float64(s.Epochs) * s.Tau }

// DeriveTau picks the epoch duration for a demand given the accuracy knob
// E (Appendix A.3). τ must be r·β·s with r or 1/r integral so that an
// epoch's capacity aligns with whole transfers (Fig 18); among admissible
// r we take the largest not exceeding the target E·(α+β·s)/(β·s), so that
// one chunk transmission spans roughly 1/E epochs — larger E therefore
// means coarser, faster solving and smaller E finer, more accurate
// solving, matching the paper's E1=3.0 / E2=0.5 regimes.
func DeriveTau(alpha, beta, bytes, e float64) float64 {
	if e <= 0 {
		e = 0.5
	}
	bs := beta * bytes
	target := e * (alpha + bs) / bs // target r
	r := admissibleRatioAtMost(target)
	return r * bs
}

// admissibleRatioAtMost returns the largest r ≤ target with r or 1/r a
// positive integer, clamped to [1/64, 64].
func admissibleRatioAtMost(target float64) float64 {
	if target >= 1 {
		r := math.Floor(target)
		if r > 64 {
			r = 64
		}
		return r
	}
	// r = 1/k ≤ target → k ≥ 1/target.
	k := math.Ceil(1 / target)
	if k > 64 {
		k = 64
	}
	return 1 / k
}

// epochParams holds the discretized transfer geometry for one piece size.
type epochParams struct {
	span int // port-busy epochs: ceil(β·b / τ)
	lat  int // arrival epochs after start: ceil((α+β·b) / τ)
}

func paramsFor(d *Demand, tau, bytes float64) epochParams {
	span := int(math.Ceil(d.Beta*bytes/tau - 1e-9))
	if span < 1 {
		span = 1
	}
	lat := int(math.Ceil((d.Alpha+d.Beta*bytes)/tau - 1e-9))
	if lat < span {
		lat = span
	}
	return epochParams{span: span, lat: lat}
}

// postalEpochs returns the first epoch at which target GPUs can hold a
// piece that holders GPUs hold at epoch 0, in the postal model the
// sub-demand encoding implies: a GPU sends one copy at a time, its
// egress port is busy ep.span epochs per send, and a copy becomes usable
// (and forwardable) ep.lat epochs after its send started. Every holder
// sending back to back from the epoch its copy arrives maximizes the
// holder count at every epoch, so no schedule — relays through GPUs that
// do not need the piece included — reaches target earlier.
func postalEpochs(ep epochParams, holders, target int) int {
	// starts[t] is the number of sends starting at epoch t: one per copy
	// that became usable at t, one per GPU that started a send at
	// t−span. The bound is reached within a few dozen epochs, so the
	// history normally stays on the stack.
	var buf [64]int
	starts := buf[:0]
	have := 0
	for t := 0; ; t++ {
		fresh := 0
		switch {
		case t == 0:
			fresh = holders
		case t >= ep.lat:
			fresh = starts[t-ep.lat]
		}
		have += fresh
		if have >= target {
			return t
		}
		if t >= ep.span {
			fresh += starts[t-ep.span]
		}
		starts = append(starts, fresh)
	}
}

// lowerBoundEpochs computes a closed-form makespan lower bound: for each
// piece, the postal-model epoch at which its sources plus its
// destinations can all hold it (postalEpochs); and a load bound from the
// busiest ingress port.
func lowerBoundEpochs(d *Demand, tau float64) int {
	lb := 1
	inLoad := make([]int, d.NumGPUs)
	for _, p := range d.Pieces {
		ep := paramsFor(d, tau, p.Bytes)
		need := len(p.Dsts)
		if need == 0 {
			continue
		}
		if v := postalEpochs(ep, len(p.Srcs), len(p.Srcs)+need); v > lb {
			lb = v
		}
		for _, t := range p.Dsts {
			inLoad[t] += ep.span
		}
	}
	for _, l := range inLoad {
		if l > lb {
			lb = l
		}
	}
	return lb
}
