// Package lru is the one bounded cache behind every cross-request store
// in the planner: the engine's sub-schedule, flow-bound and sketch caches
// and the serving layer's schedule store.
//
// A Cache maps string keys to values under least-recently-used eviction.
// Each entry may also carry a class — for the engine, the isomorphism
// class of the cached demand — and the cache keeps, per class, the
// resident entries in insertion order, so a lookup that misses its exact
// key can fall back to any acceptable sibling. Entries are sharded by
// class, which keeps that fallback shard-local.
//
// The cache never copies values: callers that hand out or take in
// mutable values clone on their side of the call (Add takes the value
// as a function so that side only runs when the value is kept).
package lru

import "sync"

// Meters are the event counters a Cache feeds. Nil meters are skipped,
// so a caller wires only the events it reports.
type Meters struct {
	// Hit counts Get hits, ClassHit GetClass hits, Evict entries dropped
	// by Add to stay within capacity. Miss is fed by Cache.Miss alone.
	Hit, ClassHit, Miss, Evict *Meter
}

// Stats is a snapshot of a cache's Meters.
type Stats struct {
	Hits, ClassHits, Misses, Evictions int64
}

// Cache is a sharded, concurrency-safe LRU. Construct with New.
type Cache[V any] struct {
	shards []shard[V]
	mask   uint32
	m      Meters
}

// entry is one resident value, linked into its shard's recency ring.
type entry[V any] struct {
	key, class string
	val        V
	prev, next *entry[V]
}

type shard[V any] struct {
	mu      sync.Mutex
	byKey   map[string]*entry[V]
	byClass map[string][]*entry[V] // resident entries, insertion order
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
		s.byClass = make(map[string][]*entry[V])
		s.root.prev, s.root.next = &s.root, &s.root
		s.cap = perShard
	}
	return c
}

// shardFor picks the shard by FNV-1a of the class, or of the key for
// classless entries, so every member of a class shares a shard.
func (c *Cache[V]) shardFor(key, class string) *shard[V] {
	if class == "" {
		class = key
	}
	h := uint32(2166136261)
	for i := 0; i < len(class); i++ {
		h = (h ^ uint32(class[i])) * 16777619
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

// remove drops an entry from the recency ring, the key map and its class
// bucket.
func (s *shard[V]) remove(e *entry[V]) {
	s.unlink(e)
	delete(s.byKey, e.key)
	if e.class == "" {
		return
	}
	bucket := s.byClass[e.class]
	for i, v := range bucket {
		if v == e {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(s.byClass, e.class)
	} else {
		s.byClass[e.class] = bucket
	}
}

// Get returns the value stored under key and marks it most recently
// used. class must be the class the entry was added with ("" if none):
// it locates the shard.
func (c *Cache[V]) Get(key, class string) (V, bool) {
	s := c.shardFor(key, class)
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

// GetClass returns the first resident value of the class, in insertion
// order, that accept approves (a nil accept approves any), and marks it
// most recently used. accept runs under the shard lock. Entries added
// without a class belong to none.
func (c *Cache[V]) GetClass(class string, accept func(V) bool) (V, bool) {
	s := c.shardFor("", class)
	s.mu.Lock()
	for _, e := range s.byClass[class] {
		if accept == nil || accept(e.val) {
			s.touch(e)
			v := e.val
			s.mu.Unlock()
			c.m.ClassHit.Add(1)
			return v, true
		}
	}
	s.mu.Unlock()
	var zero V
	return zero, false
}

// Miss records a lookup that found nothing. The caller declares it — a
// lookup may span Get, GetClass and a slower tier behind the cache, and
// is one miss only when all of them failed.
func (c *Cache[V]) Miss() { c.m.Miss.Add(1) }

// Add stores the value mint returns under key (and class) and evicts
// least-recently-used entries beyond the shard's capacity. The first
// write wins: when key is already resident the stored value is kept —
// replaying it must stay bit-identical under concurrent duplicate stores
// — the entry is marked most recently used, and Add reports false without
// calling mint. Duplicate stores are the common case for the engine (a
// plan re-stores what it replayed), so a caller that must clone what it
// stores pays for the clone only when it is kept. mint runs under the
// shard lock.
func (c *Cache[V]) Add(key, class string, mint func() V) bool {
	s := c.shardFor(key, class)
	s.mu.Lock()
	if e, ok := s.byKey[key]; ok {
		s.touch(e)
		s.mu.Unlock()
		return false
	}
	e := &entry[V]{key: key, class: class, val: mint()}
	s.pushFront(e)
	s.byKey[key] = e
	if class != "" {
		s.byClass[class] = append(s.byClass[class], e)
	}
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

// RemoveIf drops every entry for which drop(key, class) is true and
// returns how many went. Removals are not evictions and are not metered.
func (c *Cache[V]) RemoveIf(drop func(key, class string) bool) int {
	removed := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.root.next; e != &s.root; {
			next := e.next
			if drop(e.key, e.class) {
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
		ClassHits: c.m.ClassHit.Load(),
		Misses:    c.m.Miss.Load(),
		Evictions: c.m.Evict.Load(),
	}
}
