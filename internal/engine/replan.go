package engine

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/isomorph"
	"syccl/internal/topology"
)

// ReplanResult carries a replanned schedule plus the fault-reactive
// bookkeeping: what the delta touched, what was invalidated, and how much
// of the new plan was replayed from cache.
type ReplanResult struct {
	*core.Result

	// Degraded is the topology after the delta; the Result's schedule is
	// valid on (and simulated against) this topology.
	Degraded *topology.Topology

	// TouchedGroups / TotalGroups count dimension groups of the base
	// topology whose membership or α/β the delta changed, over all groups.
	TouchedGroups int
	TotalGroups   int

	// Invalidated counts cache entries dropped across the memory and
	// persist tiers because their demand shape no longer exists anywhere
	// in the degraded fabric.
	Invalidated int

	// ReusedSubs counts sub-demands of the replanned schedule served
	// directly from the cross-request cache tiers; SolvedSubs counts
	// those that required a fresh solver call. Untouched groups reuse,
	// touched groups solve.
	ReusedSubs int
	SolvedSubs int
}

// ReuseRatio is the fraction of sub-demands replayed from cache, in
// [0, 1]; zero when the plan pooled no sub-demands.
func (r *ReplanResult) ReuseRatio() float64 {
	total := r.ReusedSubs + r.SolvedSubs
	if total == 0 {
		return 0
	}
	return float64(r.ReusedSubs) / float64(total)
}

// Replan is the fault-reactive fast path: given a base topology and the
// degraded topology a delta made of it (topology.Delta.Apply, which the
// caller runs and whose errors it reports), selectively invalidate the
// cache entries the delta made unreachable, and synthesize the collective
// on the degraded topology.
//
// Sub-demands are content-addressed by (group size, α, β, pieces), so
// groups the delta did not touch hash to their healthy keys and replay
// bit-identically from the engine's memory/persist tiers with zero
// solver calls; only the touched groups' new demand shapes reach the
// solver. Invalidation is a staleness policy, never a correctness
// requirement: an entry is dropped only when no group of the degraded
// topology can still produce its demand prefix (an entry shared with an
// untouched group — the common single-fault case — is kept, because the
// untouched groups still replay through it).
func (e *Engine) Replan(ctx context.Context, base, degraded *topology.Topology, col *collective.Collective, opts core.Options) (*ReplanResult, error) {
	e.replans.Add(1)
	e.opts.Obs.Count("engine.replans", 1)
	touched, total, stale := diffGroups(base, degraded)
	invalidated := 0
	if len(stale) > 0 {
		invalidated = e.Invalidate(stale)
	}

	res, err := e.Plan(ctx, degraded, col, opts)
	rr := &ReplanResult{
		Result:        res,
		Degraded:      degraded,
		TouchedGroups: touched,
		TotalGroups:   total,
		Invalidated:   invalidated,
	}
	if res != nil {
		rr.ReusedSubs = res.Stats.CrossCacheHits
		rr.SolvedSubs = res.Stats.SolverCalls
	}

	e.replanReused.Add(int64(rr.ReusedSubs))
	e.replanInvalidated.Add(int64(invalidated))
	switch {
	case err != nil:
		e.mReplanError.Inc()
	case res != nil && res.Partial:
		e.mReplanPartial.Inc()
	default:
		e.mReplanOK.Inc()
	}
	if err != nil {
		return rr, err
	}
	e.mReplanReuse.Observe(rr.ReuseRatio())
	return rr, nil
}

// diffGroups compares the base and degraded topologies group by group.
// A base group is untouched when the degraded dimension of its tier has
// a group with the same members and the same α/β bits. It returns the
// number of base groups the delta touched (membership or α/β changed, or
// the whole dimension collapsed), the total base group count, and the
// cache-key prefixes (isomorph.ShapePrefix, which every solve signature
// variant of a shape's keys starts with) of touched demand shapes that
// no surviving group can still produce (the stale set to invalidate),
// one per shape.
func diffGroups(base, degraded *topology.Topology) (touched, total int, stale []string) {
	type shape struct {
		n    int
		a, b float64
	}
	degByTier := make(map[int]*topology.Dim, degraded.NumDims())
	for _, d := range degraded.Dims {
		degByTier[d.Tier] = d
	}
	kept := func(bd *topology.Dim, g int) bool {
		dd := degByTier[bd.Tier]
		if dd == nil {
			return false
		}
		dg := dd.GroupOf(bd.Groups[g][0])
		return dg >= 0 && slices.Equal(dd.Groups[dg], bd.Groups[g]) &&
			math.Float64bits(dd.AlphaOf(dg)) == math.Float64bits(bd.AlphaOf(g)) &&
			math.Float64bits(dd.BetaOf(dg)) == math.Float64bits(bd.BetaOf(g))
	}

	// Every demand shape the degraded fabric can still produce stays live.
	live := make(map[shape]bool)
	for _, d := range degraded.Dims {
		for g := range d.Groups {
			live[shape{len(d.Groups[g]), d.AlphaOf(g), d.BetaOf(g)}] = true
		}
	}

	staleShapes := make(map[shape]bool)
	for _, bd := range base.Dims {
		for g := range bd.Groups {
			total++
			if kept(bd, g) {
				continue
			}
			touched++
			sh := shape{len(bd.Groups[g]), bd.AlphaOf(g), bd.BetaOf(g)}
			if !live[sh] {
				staleShapes[sh] = true
			}
		}
	}

	for sh := range staleShapes {
		stale = append(stale, isomorph.ShapePrefix(sh.n, sh.a, sh.b))
	}
	sort.Strings(stale)
	return touched, total, stale
}

// Invalidate drops every sub-schedule cache entry (memory and disk
// tier) whose cache key starts with one of the prefixes. It returns the
// number of entries removed. Dropping entries never affects correctness
// — caches are content-addressed — only warm-start coverage. The sketch
// and recipe caches are keyed by topology fingerprint, so a degraded
// fabric never reads their healthy-fabric entries.
func (e *Engine) Invalidate(prefixes []string) int {
	if len(prefixes) == 0 {
		return 0
	}
	stale := func(key string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(key, p) {
				return true
			}
		}
		return false
	}
	removed := e.solves.RemoveIf(stale)
	if e.opts.Persist != nil {
		removed += e.opts.Persist.InvalidateMatching(prefixes)
	}
	return removed
}
