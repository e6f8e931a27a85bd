package solve

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"syccl/internal/obs"
)

// Engine selects the solving strategy.
type Engine int

// Engines. Options.Fingerprint renders the integer values, so every
// cached sub-schedule's key carries them. The pipeline runs EngineGreedy
// (coarse pass) and EngineAuto (fine pass); EngineExact, the exact half
// of EngineAuto, remains selectable for per-engine probes and tests.
const (
	// EngineAuto is the exact MILP where the size gate admits the
	// instance, else greedy.
	EngineAuto Engine = iota
	// EngineGreedy is deterministic earliest-finish list scheduling.
	EngineGreedy
	// EngineExact is branch-and-bound MILP only (errors when too large).
	EngineExact
	// EngineFlow solves exactly as EngineGreedy. It named the deleted
	// LP-rounding backend and stays only because the benchmark's
	// per-engine probes (bench/probes.go) still name it.
	EngineFlow
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineGreedy:
		return "greedy"
	case EngineExact:
		return "exact"
	case EngineFlow:
		return "flow"
	default:
		return "unknown"
	}
}

// Options configures a solve.
type Options struct {
	// E is the accuracy/efficiency knob of §5.3/Appendix A.3: the epoch
	// duration is derived as τ ≈ E·(α+β·s). The paper's two-step
	// synthesis uses E1=3.0 for the coarse pass and E2=0.5 for the fine
	// pass. Zero defaults to 0.5.
	E float64
	// Engine selects the strategy (default EngineAuto).
	Engine Engine
	// Seed steers nothing: no engine is randomized. It stays in the
	// options and in Fingerprint because core.Options.Seed flows into it
	// and the benchmark's stream requests rely on a fresh seed for a
	// never-seen cold plan.
	Seed int64
	// Span optionally parents this solve's instrumentation (engine
	// sub-spans, lp.pivots / milp.nodes counters). Nil: no recording.
	// It does not influence the solve, so Fingerprint leaves it out.
	Span *obs.Span
}

func (o Options) withDefaults() Options {
	if o.E <= 0 {
		o.E = 0.5
	}
	return o
}

// Fingerprint renders the defaulted options — every field but Span — as
// the solve part of a cached sub-schedule's key (isomorph.CacheKey): on
// one demand, two solves with equal fingerprints return the same
// sub-schedule, and options that run identically render identically.
// The rendering starts "e<E>|g<Engine>|", the head bench/probes.go reads.
func (o Options) Fingerprint() string {
	o = o.withDefaults()
	b := make([]byte, 0, 32)
	b = strconv.AppendFloat(append(b, 'e'), o.E, 'g', -1, 64)
	b = strconv.AppendInt(append(b, "|g"...), int64(o.Engine), 10)
	b = strconv.AppendInt(append(b, "|s"...), o.Seed, 10)
	return string(b)
}

// TauFor returns the epoch duration the options imply for a demand:
// τ ≈ E·(α+β·s) for its largest piece.
func (o Options) TauFor(d *Demand) float64 {
	o = o.withDefaults()
	maxBytes := 0.0
	for _, p := range d.Pieces {
		if p.Bytes > maxBytes {
			maxBytes = p.Bytes
		}
	}
	if maxBytes == 0 {
		maxBytes = 1
	}
	return DeriveTau(d.Alpha, d.Beta, maxBytes, o.E)
}

// FlattenDeliveries is the most (piece, destination) deliveries a demand
// may owe for the search engines to take it: larger demands are
// scheduled port by port (flattenSolve). It keeps the search engines on
// the small per-group demands where relay choices matter (single-server
// cells, small testbeds) and routes merged many-piece cells to the linear
// path.
const FlattenDeliveries = 128

// Solve synthesizes a sub-schedule for the demand.
func Solve(d *Demand, opts Options) (*SubSchedule, error) {
	return SolveCtx(context.Background(), d, opts)
}

// SolveCtx is Solve under a context. Cancellation is cooperative and
// anytime: an exact solve interrupted mid-search returns its greedy
// incumbent (a complete, valid sub-schedule) rather than an error; only a
// context cancelled before any engine produced a result yields ctx.Err().
func SolveCtx(ctx context.Context, d *Demand, opts Options) (*SubSchedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	tau := opts.TauFor(d)

	// Closed-form fast path: uniform broadcast bundles (the dominant
	// shape of all-to-all style merged demands) have a provably
	// load-optimal rotation schedule; no search needed at any engine.
	if s := rotationSolve(d, tau); s != nil {
		opts.Span.Count("solve.rotation", 1)
		return s, nil
	}
	// Large bundles: direct port scheduling instead of the generic
	// greedy, whose candidate scan is quadratic in deliveries.
	if deliveryCount(d) > FlattenDeliveries {
		opts.Span.Count("solve.flatten", 1)
		return flattenSolve(d, tau), nil
	}

	switch opts.Engine {
	case EngineGreedy, EngineFlow:
		opts.Span.Count("solve.greedy", 1)
		return greedySolve(d, tau), nil
	case EngineExact:
		return exactSolve(ctx, d, tau, opts)
	case EngineAuto:
		s, err := exactSolve(ctx, d, tau, opts)
		if errors.Is(err, errTooLarge) {
			opts.Span.Count("solve.too_large", 1)
			return greedySolve(d, tau), nil
		}
		return s, err
	default:
		return nil, fmt.Errorf("solve: unknown engine %d", int(opts.Engine))
	}
}

// CheckSolution verifies that a sub-schedule satisfies its demand:
// availability ordering, port exclusivity, and full delivery. Used by
// tests and as a debugging guard.
func CheckSolution(d *Demand, s *SubSchedule) error {
	n := d.NumGPUs
	avail := make([][]int, len(d.Pieces))
	for pi, p := range d.Pieces {
		avail[pi] = make([]int, n)
		for g := range avail[pi] {
			avail[pi][g] = -1
		}
		for _, src := range p.Srcs {
			avail[pi][src] = 0
		}
	}
	type span struct{ start, end int }
	egress := make([][]span, n)
	ingress := make([][]span, n)
	overlaps := func(list []span, s span) bool {
		for _, iv := range list {
			if s.start < iv.end && s.end > iv.start {
				return true
			}
		}
		return false
	}
	// Transfers must be checkable in start order; ties resolved by
	// iterating until fixpoint on availability.
	remaining := append([]Transfer(nil), s.Transfers...)
	for len(remaining) > 0 {
		progressed := false
		next := remaining[:0]
		for _, t := range remaining {
			ep := paramsFor(d, s.Tau, d.Pieces[t.Piece].Bytes)
			if avail[t.Piece][t.Src] < 0 || avail[t.Piece][t.Src] > t.Start {
				next = append(next, t)
				continue
			}
			sp := span{t.Start, t.Start + ep.span}
			if overlaps(egress[t.Src], sp) {
				return fmt.Errorf("solve: egress port %d double-booked at epoch %d", t.Src, t.Start)
			}
			if overlaps(ingress[t.Dst], sp) {
				return fmt.Errorf("solve: ingress port %d double-booked at epoch %d", t.Dst, t.Start)
			}
			if want := t.Start + ep.lat; t.Arrive != want {
				return fmt.Errorf("solve: transfer arrival %d, want %d", t.Arrive, want)
			}
			egress[t.Src] = append(egress[t.Src], sp)
			ingress[t.Dst] = append(ingress[t.Dst], sp)
			if avail[t.Piece][t.Dst] < 0 || t.Arrive < avail[t.Piece][t.Dst] {
				avail[t.Piece][t.Dst] = t.Arrive
			}
			progressed = true
		}
		if !progressed {
			return fmt.Errorf("solve: %d transfers never become sendable (availability violation)", len(next))
		}
		remaining = append([]Transfer(nil), next...)
	}
	for pi, p := range d.Pieces {
		for _, dst := range p.Dsts {
			if avail[pi][dst] < 0 {
				return fmt.Errorf("solve: piece %d never delivered to GPU %d", pi, dst)
			}
			if avail[pi][dst] > s.Epochs {
				return fmt.Errorf("solve: delivery at %d exceeds makespan %d", avail[pi][dst], s.Epochs)
			}
		}
	}
	return nil
}
