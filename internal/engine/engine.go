// Package engine provides the long-lived planner around the SyCCL
// synthesis pipeline: a concurrency-safe Engine that owns persistent
// caches surviving across requests and serves Plan(ctx, ...) with
// cooperative cancellation and anytime semantics.
//
// Three caches back the engine, all instances of lru.Cache:
//
//   - a sketch cache mapping topology fingerprint (plus collective shape,
//     root, and search options) to the enumerated sketch set, so repeat
//     plans on the same fabric skip the §4.1 search entirely;
//   - a sub-schedule cache keyed by the exact sub-demand plus the solve
//     options' fingerprint (isomorph.CacheKey), sharded and
//     LRU-bounded. A hit returns the stored solution verbatim, so warm
//     re-plans are bit-identical to the cold run;
//   - a recipe cache: per plan key, which candidate won last time and
//     the sub-schedules it was built from (core.Recipe), so a repeated
//     plan rebuilds that one candidate without re-ranking all of them or
//     consulting the sub-schedule cache.
//
// Flow lower bounds are not cached: each is a small LP on the symmetry
// quotient, recomputed by every full pass that needs it.
//
// A cached value is immutable and shared: a store keeps the pointer it
// was given, and a hit, a persist promotion and a recipe hand that same
// pointer out, to any number of concurrent plans and to callers through
// core.Result (TestCachedValuesImmutable). Nothing in the pipeline
// writes to a sketch, a sub-schedule or a recipe once it has been made.
//
// Every cache answers only for the exact key it stored, and the
// sub-schedule cache holds solver outputs for isomorphism-class
// representatives only: a class member is always mapped from its
// representative inside the synthesis pass that needs it (§5.3,
// isomorph.Table), exactly as a cold run maps it. The engine runs no
// isomorphism search across requests, so a cached plan is the cold plan
// (TestPlanAnswerIndependentOfHistory).
//
// The caches plug into core.Options through the core.SolveCache and
// core.SketchCache interfaces (and the Recipe field), so core carries no
// engine dependency and core.Synthesize keeps working cache-free.
package engine

import (
	"context"
	"errors"
	"sync/atomic"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/isomorph"
	"syccl/internal/lru"
	"syccl/internal/obs"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// Options configures an Engine.
type Options struct {
	// SolveCacheEntries bounds the sub-schedule cache across its
	// solveCacheShards shards (default 4096). The recipe cache is bounded
	// off it, to SolveCacheEntries/recipeCellsPerEntry plan keys: a recipe
	// carries its winner's sub-schedules, so the two bounds size one
	// budget of solutions.
	SolveCacheEntries int
	// Persist optionally backs the sub-schedule cache with a disk tier
	// (internal/persist): LRU misses fall through to Persist.Load (the
	// hit is promoted into the memory tier), and each solve pass's
	// first-time stores are written through in one Persist.PutAll batch
	// (one pack file) before Plan returns. Solved sub-demands thereby
	// survive process restarts — a rebooted engine replays previously
	// synthesized plans bit-identically with zero solver calls. Nil
	// disables the tier.
	Persist PersistTier
	// Obs optionally receives the engine counters: engine.plans,
	// engine.cancelled, engine.cache.{hits,misses,evictions},
	// engine.sketch.{hits,misses}, engine.recipe.{hits,misses,stale}.
	// Nil disables recording; Stats() is always available.
	Obs *obs.Recorder
	// Metrics optionally receives labeled production metrics
	// (syccl_engine_plans_total{outcome},
	// syccl_engine_cache_lookups_total{cache,result},
	// syccl_engine_cache_evictions_total{cache}) for Prometheus
	// exposition. Nil disables them at zero cost.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SolveCacheEntries <= 0 {
		o.SolveCacheEntries = 4096
	}
	return o
}

// The fixed cache bounds: the sketch cache holds whole search results,
// and the sub-schedule cache is lock-striped over solveCacheShards shards
// by key.
const (
	sketchCacheEntries = 64
	solveCacheShards   = 16
)

// PersistTier is the disk tier behind the sub-schedule cache. Load
// returns the solution stored for exactly this demand and signature, or
// nil; PutAll stores subs[i] for ds[i], one solve pass's newly solved
// sub-schedules under one signature, as one batch, first write wins, and
// stores none of them on error, so a later PutAll may write them;
// InvalidateMatching drops every entry whose cache key
// (isomorph.CacheKey) starts with one of the prefixes and reports how
// many went — Replan extends selective invalidation to disk through it.
// Implementations must be safe for concurrent use.
// *persist.Store satisfies this interface.
type PersistTier interface {
	Load(d *solve.Demand, sig string) *solve.SubSchedule
	PutAll(ds []*solve.Demand, sig string, subs []*solve.SubSchedule) error
	InvalidateMatching(prefixes []string) int
}

// Stats is a snapshot of the engine's lifetime counters. The JSON field
// names are part of the serving API (`GET /statsz` in internal/serve
// embeds a Stats verbatim), so they are stable snake_case.
//
// Contract: every counter is marshaled explicitly, including zeros — no
// omitempty. Scrapers (and the bench ledger's /statsz deltas) subtract
// successive snapshots, which only works when every field is present in
// every scrape; a field that appears only once non-zero would read as a
// reset. New counters may be added, but existing fields are never
// renamed, retyped, or made omittable. TestStatsJSONGolden pins the
// exact zero-value shape.
type Stats struct {
	// Plans is the number of Plan calls accepted.
	Plans int64 `json:"plans"`
	// Cancelled counts plans cut short by their context (both anytime
	// Partial results and outright ctx errors).
	Cancelled int64 `json:"cancelled"`
	// SolveHits / SolveMisses count cross-request sub-schedule cache
	// lookups. Every hit is a verbatim replay, so ExactHits equals
	// SolveHits. IsoHits is always 0: the cross-request isomorphism
	// fallback it counted is gone, and the field stays only because this
	// JSON contract never removes one.
	SolveHits   int64 `json:"solve_hits"`
	SolveMisses int64 `json:"solve_misses"`
	ExactHits   int64 `json:"exact_hits"`
	IsoHits     int64 `json:"iso_hits"`
	// Evictions counts LRU evictions from the sub-schedule cache.
	Evictions int64 `json:"evictions"`
	// SketchHits / SketchMisses count sketch cache lookups.
	SketchHits   int64 `json:"sketch_hits"`
	SketchMisses int64 `json:"sketch_misses"`
	// BoundHits / BoundMisses / BoundsPruned / BoundsProved are always
	// 0: flow bounds are not cached and prune nothing, and the fields
	// stay only because this JSON contract never removes one (as
	// IsoHits).
	BoundHits    int64 `json:"bound_hits"`
	BoundMisses  int64 `json:"bound_misses"`
	BoundsPruned int64 `json:"bounds_pruned"`
	BoundsProved int64 `json:"bounds_proved"`
	// PersistHits / PersistMisses count disk-tier lookups (only demands
	// that already missed the memory tier reach the disk tier, so these
	// never double-count SolveHits).
	PersistHits   int64 `json:"persist_hits"`
	PersistMisses int64 `json:"persist_misses"`
	// Replans counts Replan calls (including failed ones); ReplanReused
	// aggregates the sub-demands those replans served from the
	// cross-request cache tiers, and ReplanInvalidated the cache entries
	// selective invalidation dropped as unreachable on the degraded
	// fabric.
	Replans           int64 `json:"replans"`
	ReplanReused      int64 `json:"replan_reused"`
	ReplanInvalidated int64 `json:"replan_invalidated"`
	// RecipeHits counts plans rebuilt from their winner recipe (one
	// candidate, no search), RecipeMisses plans that had none, and
	// RecipeStale plans whose recipe no longer replayed — its rebuild
	// failed or missed the self-check — and that fell back to the full
	// pass, which replaced it.
	RecipeHits   int64 `json:"recipe_hits"`
	RecipeMisses int64 `json:"recipe_misses"`
	RecipeStale  int64 `json:"recipe_stale"`
}

// Engine is a long-lived, concurrency-safe planner. The zero value is not
// usable; construct with New. An Engine may serve any number of
// concurrent Plan calls over arbitrary topologies and collectives; its
// caches are shared across all of them.
type Engine struct {
	opts     Options
	sketches *lru.Cache[[]*sketch.Sketch]
	solves   *lru.Cache[*solve.SubSchedule]
	recipes  *lru.Cache[*core.Recipe]
	// persistHit / persistMiss meter the disk tier behind solves;
	// recipeHit / recipeStale the two outcomes of a recipe that was found
	// (a lookup is a hit only once the replay held).
	persistHit, persistMiss *lru.Meter
	recipeHit, recipeStale  *lru.Meter

	plans     atomic.Int64
	cancelled atomic.Int64

	replans           atomic.Int64
	replanReused      atomic.Int64
	replanInvalidated atomic.Int64

	// Labeled metric children, resolved once at construction so each
	// update is a single nil-safe atomic add.
	mPlanOK, mPlanPartial, mPlanError       *obs.Counter
	mReplanOK, mReplanPartial, mReplanError *obs.Counter
	mReplanReuse                            *obs.Histogram
}

// New builds an Engine with the given options.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{opts: opts}
	// A nil registry hands out nil vectors and nil children, so every
	// metric update below stays a no-op when telemetry is off.
	rec := opts.Obs
	lookups := opts.Metrics.Counter("syccl_engine_cache_lookups_total",
		"Cross-request cache lookups by cache and result.", "cache", "result")
	evict := opts.Metrics.Counter("syccl_engine_cache_evictions_total",
		"LRU evictions by cache.", "cache")
	e.solves = lru.New[*solve.SubSchedule](opts.SolveCacheEntries, solveCacheShards, lru.Meters{
		Hit:   lru.NewMeter(rec, "engine.cache.hits", lookups.With("solve", "exact")),
		Miss:  lru.NewMeter(rec, "engine.cache.misses", lookups.With("solve", "miss")),
		Evict: lru.NewMeter(rec, "engine.cache.evictions", evict.With("solve")),
	})
	e.sketches = lru.New[[]*sketch.Sketch](sketchCacheEntries, 1, lru.Meters{
		Hit:   lru.NewMeter(rec, "engine.sketch.hits", lookups.With("sketch", "hit")),
		Miss:  lru.NewMeter(rec, "engine.sketch.misses", lookups.With("sketch", "miss")),
		Evict: lru.NewMeter(rec, "engine.cache.evictions", evict.With("sketch")),
	})
	e.recipes = lru.New[*core.Recipe](max(1, opts.SolveCacheEntries/recipeCellsPerEntry), 1, lru.Meters{
		Miss:  lru.NewMeter(rec, "engine.recipe.misses", lookups.With("recipe", "miss")),
		Evict: lru.NewMeter(rec, "engine.cache.evictions", evict.With("recipe")),
	})
	e.recipeHit = lru.NewMeter(rec, "engine.recipe.hits", lookups.With("recipe", "hit"))
	e.recipeStale = lru.NewMeter(rec, "engine.recipe.stale", lookups.With("recipe", "stale"))
	e.persistHit = lru.NewMeter(rec, "engine.persist.hits", lookups.With("persist", "hit"))
	e.persistMiss = lru.NewMeter(rec, "engine.persist.misses", lookups.With("persist", "miss"))

	plans := opts.Metrics.Counter("syccl_engine_plans_total",
		"Engine plan calls by outcome.", "outcome")
	e.mPlanOK = plans.With("ok")
	e.mPlanPartial = plans.With("partial")
	e.mPlanError = plans.With("error")
	replans := opts.Metrics.Counter("syccl_replan_total",
		"Fault-reactive replans by outcome.", "result")
	e.mReplanOK = replans.With("ok")
	e.mReplanPartial = replans.With("partial")
	e.mReplanError = replans.With("error")
	e.mReplanReuse = opts.Metrics.Histogram("syccl_replan_reuse_ratio",
		"Fraction of replanned sub-demands served from cache.",
		[]float64{0, 0.25, 0.5, 0.75, 0.9, 1}).With()
	return e
}

// Plan synthesizes a schedule for the collective on the topology, serving
// as much of the request as possible from the engine's caches and storing
// what it had to compute. Cancellation is cooperative and anytime: when
// ctx is cancelled or its deadline expires mid-synthesis, Plan returns
// promptly with the best fully-validated candidate found so far
// (Result.Partial=true) if at least one candidate completed the coarse
// pass, and ctx.Err() otherwise. Results from cancelled plans are never
// written into the caches.
//
// The engine installs its caches into opts; any caller-provided
// SolveCache/SketchCache/Recipe values are replaced. All other options
// pass through to the pipeline unchanged. The returned Result's
// Combination and Recipe may be shared with the engine's caches and
// with other plans' results: they are read-only.
//
// A plan whose key has a winner recipe (see core.Recipe) rebuilds that
// one candidate from the recipe instead of running the search; a recipe
// that no longer replays is dropped and the full pass runs in the same
// call, so the bytes returned never depend on which path served them.
//
// A non-nil opts.OnIncumbent makes the plan a live incumbent stream: it
// receives every improving, fully validated incumbent the pipeline
// publishes, in strictly decreasing Time order, and the returned Result
// is the final incumbent — byte-identical to the plan without a callback,
// since publication never influences candidate selection. No final
// stream event is emitted: the return value IS the final incumbent (its
// Time is ≤ the last streamed one), so callers that relay the stream
// append their own terminal event from the Result. On a recipe replay the
// stream is exactly one event, the winner, with the provenance it had
// when the full pass published it (and Bound 0: a replay computes no
// bounds); serving layers that cache whole results (the schedule store in
// internal/serve) short-circuit even that by emitting one immediate final
// event. The callback runs on synthesis worker goroutines with a pipeline
// lock held: it must be fast and non-blocking (hand events to a channel
// or buffer, don't do I/O inline). A cancelled stream still returns the
// best validated incumbent with Result.Partial set, and every event
// already streamed remains valid.
func (e *Engine) Plan(ctx context.Context, top *topology.Topology, col *collective.Collective, opts core.Options) (*core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.plans.Add(1)
	e.opts.Obs.Count("engine.plans", 1)
	opts.SolveCache = solveCacheAdapter{e}
	opts.SketchCache = sketchCacheAdapter{e}
	key := PlanKey(top, col, opts)
	kept, found := e.recipes.Get(key)
	if found {
		opts.Recipe = kept
	} else {
		e.recipes.Miss()
		opts.Recipe = nil
	}
	res, err := core.SynthesizeContext(ctx, top, col, opts)
	switch {
	case res == nil:
		// Failed or cancelled before any result: says nothing about the
		// recipe.
	case res.Stats.Replayed:
		e.recipeHit.Add(1)
	default:
		if found {
			// The full pass ran although a recipe was at hand, so the
			// replay gave up on it: drop it for the one recorded now.
			e.recipeStale.Add(1)
			e.recipes.RemoveIf(func(k string) bool { return k == key })
		}
		if res.Recipe != nil {
			e.recipes.Add(key, func() *core.Recipe { return res.Recipe })
		}
	}
	// The pipeline reads a deadline off the clock, so its error can come
	// before the context's timer fires.
	if (err != nil && (ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded))) || (res != nil && res.Partial) {
		e.cancelled.Add(1)
		e.opts.Obs.Count("engine.cancelled", 1)
	}
	switch {
	case err != nil:
		e.mPlanError.Inc()
	case res != nil && res.Partial:
		e.mPlanPartial.Inc()
	default:
		e.mPlanOK.Inc()
	}
	return res, err
}

// Stats returns a snapshot of the engine's lifetime counters.
func (e *Engine) Stats() Stats {
	sv, sk, rc := e.solves.Stats(), e.sketches.Stats(), e.recipes.Stats()
	return Stats{
		Plans:             e.plans.Load(),
		Cancelled:         e.cancelled.Load(),
		SolveHits:         sv.Hits,
		SolveMisses:       sv.Misses,
		ExactHits:         sv.Hits,
		Evictions:         sv.Evictions + sk.Evictions + rc.Evictions,
		SketchHits:        sk.Hits,
		SketchMisses:      sk.Misses,
		PersistHits:       e.persistHit.Load(),
		PersistMisses:     e.persistMiss.Load(),
		Replans:           e.replans.Load(),
		ReplanReused:      e.replanReused.Load(),
		ReplanInvalidated: e.replanInvalidated.Load(),
		RecipeHits:        e.recipeHit.Load(),
		RecipeMisses:      rc.Misses,
		RecipeStale:       e.recipeStale.Load(),
	}
}

// --- recipe cache ---

// recipeCellsPerEntry sizes the recipe cache against the sub-schedule
// cache by memory: a recipe carries one sub-schedule per cell of its
// winner, and the winners of the benchmark cases span 5 to 48 cells, so
// N/16 recipes hold about as many solutions as N cache entries.
const recipeCellsPerEntry = 16

// --- sub-schedule cache ---

// solveCacheAdapter implements core.SolveCache on the engine. A cached
// sub-schedule is the solver's own output, shared with every plan that
// hits it and never written once stored.
type solveCacheAdapter struct{ e *Engine }

func (a solveCacheAdapter) Lookup(d *solve.Demand, sig string) *solve.SubSchedule {
	e := a.e
	key := isomorph.CacheKey(d, sig)
	if hit, ok := e.solves.Get(key); ok {
		return hit
	}
	// Memory miss: consult the disk tier (outside any shard lock — disk
	// reads must not serialize unrelated lookups).
	if e.opts.Persist != nil {
		if sub := e.opts.Persist.Load(d, sig); sub != nil {
			e.persistHit.Add(1)
			// Promote into the memory tier. No write-back: the bytes just
			// came from disk.
			e.solves.Add(key, func() *solve.SubSchedule { return sub })
			return sub
		}
		e.persistMiss.Add(1)
	}
	e.solves.Miss()
	return nil
}

func (a solveCacheAdapter) Store(d *solve.Demand, sig string, sub *solve.SubSchedule) {
	a.StoreAll([]*solve.Demand{d}, sig, []*solve.SubSchedule{sub})
}

// StoreAll adds a pass's solutions to the memory tier and writes the
// ones whose Add won through to disk in one batch. The others lost to a
// first write in memory; the disk tier enforces the same rule, so they
// have nothing to write.
func (a solveCacheAdapter) StoreAll(ds []*solve.Demand, sig string, subs []*solve.SubSchedule) {
	e := a.e
	won := 0
	for i, d := range ds {
		sub := subs[i]
		if e.solves.Add(isomorph.CacheKey(d, sig), func() *solve.SubSchedule { return sub }) {
			ds[won], subs[won] = d, sub
			won++
		}
	}
	if e.opts.Persist != nil && won > 0 {
		// Write-through, outside the shard locks. A failed disk write
		// (full disk, permissions) degrades durability, never planning.
		_ = e.opts.Persist.PutAll(ds[:won], sig, subs[:won])
	}
}

// --- sketch cache ---

// sketchCacheAdapter implements core.SketchCache on the engine.
type sketchCacheAdapter struct{ e *Engine }

func (a sketchCacheAdapter) Lookup(key string) ([]*sketch.Sketch, bool) {
	cached, ok := a.e.sketches.Get(key)
	if !ok {
		a.e.sketches.Miss()
		return nil, false
	}
	return cached, true
}

func (a sketchCacheAdapter) Store(key string, sketches []*sketch.Sketch) {
	a.e.sketches.Add(key, func() []*sketch.Sketch { return sketches })
}

// Ensure the adapters satisfy core's interfaces.
var (
	_ core.BatchSolveCache = solveCacheAdapter{}
	_ core.SketchCache     = sketchCacheAdapter{}
)
