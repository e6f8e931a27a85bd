// Package lru is the one bounded cache behind every cross-request store
// in the planner: the engine's sub-schedule, sketch and recipe caches and
// the serving layer's schedule store.
//
// A Cache maps string keys to values under least-recently-used eviction,
// sharded by key. A lookup finds its exact key or nothing: a cached value
// is only ever served for the key it was stored under.
//
// The cache never copies values: a stored value is shared with every
// Get. The engine's values are immutable once made, so it stores and
// hands out pointers as they are; a caller whose value must be copied or
// built to be kept does so on its side of the call (Add takes the value
// as a function so that side only runs when the value is kept).
package lru

import "sync"

// Meters are the event counters a Cache feeds. Nil meters are skipped,
// so a caller wires only the events it reports.
type Meters struct {
	// Hit counts Get hits, Evict entries dropped by Add to stay within
	// capacity. Miss is fed by Cache.Miss alone.
	Hit, Miss, Evict *Meter
}

// Stats is a snapshot of a cache's Meters.
type Stats struct {
	Hits, Misses, Evictions int64
}

// Cache is a sharded, concurrency-safe LRU. Construct with New.
type Cache[V any] struct {
	shards []shard[V]
	mask   uint32
	m      Meters
}

// entry is one resident value, linked into its shard's recency ring.
type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

type shard[V any] struct {
	mu    sync.Mutex
	byKey map[string]*entry[V]
	// root is the sentinel of the recency ring: root.next is the most
	// recently used entry, root.prev the eviction victim.
	root entry[V]
	cap  int
}

// New builds a cache bounded to about `entries` values: shards is
// rounded up to a power of two and every shard holds at most
// ceil(entries/shards) (at least one).
func New[V any](entries, shards int, m Meters) *Cache[V] {
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (entries + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{shards: make([]shard[V], n), mask: uint32(n - 1), m: m}
	for i := range c.shards {
		s := &c.shards[i]
		s.byKey = make(map[string]*entry[V])
		s.root.prev, s.root.next = &s.root, &s.root
		s.cap = perShard
	}
	return c
}

// shardFor picks the shard by FNV-1a of the key.
func (c *Cache[V]) shardFor(key string) *shard[V] {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h&c.mask]
}

func (s *shard[V]) unlink(e *entry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev, e.next = &s.root, s.root.next
	e.prev.next, e.next.prev = e, e
}

func (s *shard[V]) touch(e *entry[V]) {
	s.unlink(e)
	s.pushFront(e)
}

// remove drops an entry from the recency ring and the key map.
func (s *shard[V]) remove(e *entry[V]) {
	s.unlink(e)
	delete(s.byKey, e.key)
}

// Get returns the value stored under key and marks it most recently
// used.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.byKey[key]
	if !ok {
		s.mu.Unlock()
		var zero V
		return zero, false
	}
	s.touch(e)
	v := e.val
	s.mu.Unlock()
	c.m.Hit.Add(1)
	return v, true
}

// Miss records a lookup that found nothing. The caller declares it — a
// lookup may span Get and a slower tier behind the cache, and is one
// miss only when both failed.
func (c *Cache[V]) Miss() { c.m.Miss.Add(1) }

// Add stores the value mint returns under key and evicts
// least-recently-used entries beyond the shard's capacity. The first
// write wins: when key is already resident the stored value is kept —
// replaying it must stay bit-identical under concurrent duplicate stores
// — the entry is marked most recently used, and Add reports false without
// calling mint. Duplicate stores are common (a plan re-stores what it
// replayed), so a caller that must clone what it stores pays for the
// clone only when it is kept. mint runs under the shard lock.
func (c *Cache[V]) Add(key string, mint func() V) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.byKey[key]; ok {
		s.touch(e)
		s.mu.Unlock()
		return false
	}
	e := &entry[V]{key: key, val: mint()}
	s.pushFront(e)
	s.byKey[key] = e
	evicted := int64(0)
	for len(s.byKey) > s.cap {
		s.remove(s.root.prev)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.m.Evict.Add(evicted)
	}
	return true
}

// RemoveIf drops every entry for which drop(key) is true and returns how
// many went. Removals are not evictions and are not metered.
func (c *Cache[V]) RemoveIf(drop func(key string) bool) int {
	removed := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.root.next; e != &s.root; {
			next := e.next
			if drop(e.key) {
				s.remove(e)
				removed++
			}
			e = next
		}
		s.mu.Unlock()
	}
	return removed
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.byKey)
		s.mu.Unlock()
	}
	return n
}

// Each calls fn on every resident entry, least recently used first
// within a shard (shards in index order), so re-adding the entries of a
// one-shard cache in visit order reproduces its recency order. fn runs
// under the shard lock and must not call back into the cache.
func (c *Cache[V]) Each(fn func(key string, v V)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.root.prev; e != &s.root; e = e.prev {
			fn(e.key, e.val)
		}
		s.mu.Unlock()
	}
}

// Stats snapshots the cache's meters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.m.Hit.Load(),
		Misses:    c.m.Miss.Load(),
		Evictions: c.m.Evict.Load(),
	}
}
