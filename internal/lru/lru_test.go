package lru

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"syccl/internal/obs"
)

// model is the reference the cache is checked against: one slice per
// shard in recency order (front = most recent) and nothing clever —
// every operation is a linear scan.
type model struct {
	shards  [][]modelEntry
	cap     int
	evicted int64
}

type modelEntry struct {
	key string
	val int
}

func newModel(entries, shards int) *model {
	n := 1
	for n < shards {
		n <<= 1
	}
	return &model{shards: make([][]modelEntry, n), cap: max((entries+n-1)/n, 1)}
}

func (m *model) shard(key string) int {
	h := uint32(2166136261)
	for _, b := range []byte(key) {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h) & (len(m.shards) - 1)
}

func (m *model) touch(si, i int) {
	s := m.shards[si]
	e := s[i]
	copy(s[1:i+1], s[:i])
	s[0] = e
}

func (m *model) get(key string) (int, bool) {
	si := m.shard(key)
	for i, e := range m.shards[si] {
		if e.key == key {
			m.touch(si, i)
			return e.val, true
		}
	}
	return 0, false
}

func (m *model) add(key string, val int) bool {
	si := m.shard(key)
	for i, e := range m.shards[si] {
		if e.key == key {
			m.touch(si, i)
			return false
		}
	}
	s := append([]modelEntry{{key, val}}, m.shards[si]...)
	if len(s) > m.cap {
		m.evicted += int64(len(s) - m.cap)
		s = s[:m.cap]
	}
	m.shards[si] = s
	return true
}

func (m *model) removeIf(drop func(key string) bool) int {
	removed := 0
	for si, s := range m.shards {
		kept := s[:0:0]
		for _, e := range s {
			if drop(e.key) {
				removed++
			} else {
				kept = append(kept, e)
			}
		}
		m.shards[si] = kept
	}
	return removed
}

// each lists the resident keys the way Cache.Each visits them.
func (m *model) each() []string {
	var out []string
	for _, s := range m.shards {
		for i := len(s) - 1; i >= 0; i-- {
			out = append(out, fmt.Sprintf("%s=%d", s[i].key, s[i].val))
		}
	}
	return out
}

// runModel drives the cache and the model through the operations the
// byte string encodes and compares them after every one.
func runModel(t *testing.T, entries, shards int, ops []byte) {
	t.Helper()
	evict := NewMeter(nil, "", nil)
	c := New[int](entries, shards, Meters{Evict: evict})
	m := newModel(entries, shards)
	// Few keys, so hits, duplicates and evictions are all common. A
	// RemoveIf with an even argument also drops the key's group (its
	// prefix), so multi-entry removals occur too.
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%8, ops[i+1]
		k := int(arg) % 24
		group := fmt.Sprintf("g%d/", k%5)
		key := fmt.Sprintf("%sk%d", group, k)
		var what string
		switch {
		case op < 4:
			got, ok := c.Get(key)
			want, wok := m.get(key)
			what = fmt.Sprintf("Get(%s) = %d,%t want %d,%t", key, got, ok, want, wok)
			if got != want || ok != wok {
				t.Fatalf("op %d: %s", i/2, what)
			}
		case op < 7:
			got, want := c.Add(key, func() int { return i }), m.add(key, i)
			what = fmt.Sprintf("Add(%s) = %t want %t", key, got, want)
			if got != want {
				t.Fatalf("op %d: %s", i/2, what)
			}
		default:
			drop := func(dk string) bool { return dk == key || (arg%2 == 0 && strings.HasPrefix(dk, group)) }
			got, want := c.RemoveIf(drop), m.removeIf(drop)
			what = fmt.Sprintf("RemoveIf(%s,%d) = %d want %d", key, arg, got, want)
			if got != want {
				t.Fatalf("op %d: %s", i/2, what)
			}
		}
		var got []string
		c.Each(func(k string, v int) { got = append(got, fmt.Sprintf("%s=%d", k, v)) })
		want := m.each()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("op %d (%s): residency\n got %v\nwant %v", i/2, what, got, want)
		}
		if c.Len() != len(want) {
			t.Fatalf("op %d: Len %d, want %d", i/2, c.Len(), len(want))
		}
		if evict.Load() != m.evicted {
			t.Fatalf("op %d (%s): %d evictions, want %d", i/2, what, evict.Load(), m.evicted)
		}
	}
}

func TestLRUModel(t *testing.T) {
	for _, cfg := range []struct{ entries, shards int }{{1, 1}, {5, 1}, {8, 4}, {64, 16}, {3, 8}} {
		rng := rand.New(rand.NewSource(int64(cfg.entries*100 + cfg.shards)))
		ops := make([]byte, 4000)
		rng.Read(ops)
		runModel(t, cfg.entries, cfg.shards, ops)
	}
}

func FuzzLRUModel(f *testing.F) {
	f.Add(uint8(5), uint8(1), []byte{4, 1, 4, 2, 4, 3, 0, 1, 3, 2, 7, 1})
	f.Add(uint8(2), uint8(4), []byte{4, 1, 4, 6, 4, 11, 3, 1, 3, 6, 7, 6, 3, 11})
	f.Fuzz(func(t *testing.T, entries, shards uint8, ops []byte) {
		runModel(t, int(entries%32)+1, int(shards%8)+1, ops)
	})
}

// TestMeters checks every event reaches the meter's three sinks.
func TestMeters(t *testing.T) {
	rec := obs.NewRecorder()
	reg := obs.NewRegistry()
	vec := reg.Counter("lru_test_total", "", "event")
	c := New[int](1, 1, Meters{
		Hit:   NewMeter(rec, "t.hits", vec.With("hit")),
		Miss:  NewMeter(rec, "t.misses", vec.With("miss")),
		Evict: NewMeter(rec, "t.evictions", vec.With("evict")),
	})
	c.Add("a", func() int { return 1 })
	c.Get("a")
	c.Get("nope")
	c.Miss()
	c.Add("b", func() int { return 2 })
	if st, want := c.Stats(), (Stats{Hits: 1, Misses: 1, Evictions: 1}); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if rec.CounterValue("t.hits") != 1 || rec.CounterValue("t.misses") != 1 || rec.CounterValue("t.evictions") != 1 {
		t.Fatalf("recorder counters %v", rec.Counters())
	}
	for label, want := range map[string]float64{"hit": 1, "miss": 1, "evict": 1} {
		if got := vec.With(label).Value(); got != want {
			t.Errorf("registry child %q = %g, want %g", label, got, want)
		}
	}
}

// TestHitPathsDoNotAllocate guards the store-hit and warm-plan paths,
// whose allocation counts the benchmark gates: a Get, and a duplicate
// Add — which must not even mint the value it is not going to keep.
func TestHitPathsDoNotAllocate(t *testing.T) {
	c := New[*int](8, 2, Meters{Hit: NewMeter(nil, "", nil)})
	c.Add("key", func() *int { return new(int) })
	if n := testing.AllocsPerRun(100, func() { c.Get("key") }); n != 0 {
		t.Fatalf("Get allocates %v times per call", n)
	}
	src := 7
	if n := testing.AllocsPerRun(100, func() {
		if c.Add("key", func() *int { v := src; return &v }) {
			t.Fatal("duplicate Add reported a fresh insert")
		}
	}); n != 0 {
		t.Fatalf("duplicate Add allocates %v times per call", n)
	}
}

// TestConcurrentHammer is for the race detector: every operation from
// many goroutines over a small key space, then the bound is checked.
func TestConcurrentHammer(t *testing.T) {
	c := New[int](32, 4, Meters{Evict: NewMeter(nil, "", nil)})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				k := rng.Intn(96)
				key := fmt.Sprintf("k%d", k)
				switch rng.Intn(6) {
				case 0, 1, 2:
					c.Get(key)
				case 3, 4:
					c.Add(key, func() int { return i })
				default:
					if i%50 == 0 {
						c.RemoveIf(func(dk string) bool { return dk[len(dk)-1] == key[len(key)-1] })
					}
					c.Each(func(string, int) {})
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 32 {
		t.Fatalf("cache holds %d entries, bound 32", n)
	}
}
