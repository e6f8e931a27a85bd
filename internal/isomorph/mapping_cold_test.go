package isomorph_test

import (
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"syccl/internal/cli"
	"syccl/internal/core"
	"syccl/internal/isomorph"
	"syccl/internal/solve"
)

// synthColdCases are the cases of the benchmark's synth_cold workload.
var synthColdCases = []string{
	"server8:broadcast:64M",
	"a100x16:broadcast:1M",
	"a100x16:allgather:1M",
	"a100x16:reducescatter:64M",
	"a100x16:allreduce:64M",
	"a100x16:alltoall:64M",
	"h800small:allgather:1M",
	"h800x64:allgather:64M",
	"h800x64:alltoall:64M",
}

// TestFindFullMappingEquivalence synthesizes every synth_cold case and
// holds the mapping search to the pre-scratch reference on the cell
// demands the synthesis interned: every (representative, member) pair
// its Table.Classes searched, with the table's per-id colors and reused
// scratch, must have found the reference's full Mapping (GPUs and
// Pieces, nil where the reference finds none); so must FindFullMapping
// on its own, on those pairs and on each demand against the next one of
// its Key bucket. A table's demands live in the synthesis's workspace,
// reused once Synthesize returns, so the test checks copies taken while
// the synthesis runs (tableSnapshots).
func TestFindFullMappingEquivalence(t *testing.T) {
	snaps := &tableSnapshots{}
	isomorph.SetNewTableHook(snaps.add)
	defer isomorph.SetNewTableHook(nil)

	totalSearched := 0
	for _, spec := range synthColdCases {
		parts := strings.Split(spec, ":")
		topo, coll, size := parts[0], parts[1], parts[2]
		top, err := cli.ParseTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		bytes, err := cli.ParseSize(size)
		if err != nil {
			t.Fatal(err)
		}
		col, err := cli.BuildCollective(coll, top.NumGPUs(), bytes)
		if err != nil {
			t.Fatal(err)
		}
		snaps.tables, snaps.taken = nil, nil
		if _, err := core.Synthesize(top, col, core.Options{SolveCache: snaps}); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if len(snaps.tables) == 0 {
			t.Fatalf("%s: the synthesis made no demand table", spec)
		}
		searched, found, bucketPairs := 0, 0, 0
		for _, tab := range snaps.tables {
			snap := snaps.taken[tab]
			if snap == nil {
				t.Fatalf("%s: a table was never looked up from", spec)
			}
			pairs := make([][2]int, 0, len(snap.searched))
			for pair := range snap.searched {
				pairs = append(pairs, pair)
			}
			sort.Slice(pairs, func(x, y int) bool {
				return pairs[x][0] < pairs[y][0] || pairs[x][0] == pairs[y][0] && pairs[x][1] < pairs[y][1]
			})
			for _, pair := range pairs {
				a, b := snap.demands[pair[0]], snap.demands[pair[1]]
				want := isomorph.FindFullMappingReference(a, b)
				if got := snap.searched[pair]; !sameMapping(got, want) {
					t.Fatalf("%s: Classes mapped ids %v by %+v, reference %+v", spec, pair, got, want)
				}
				if got := isomorph.FindFullMapping(a, b); !sameMapping(got, want) {
					t.Fatalf("%s: FindFullMapping of ids %v: %+v, reference %+v", spec, pair, got, want)
				}
				searched++
				if want != nil {
					found++
				}
			}
			// Every ordered pair of distinct ids that share a Key.
			buckets := map[string][]int{}
			var keys []string
			for id := range snap.demands {
				k := isomorph.Key(snap.demands[id])
				if buckets[k] == nil {
					keys = append(keys, k)
				}
				buckets[k] = append(buckets[k], id)
			}
			for _, k := range keys {
				for _, x := range buckets[k] {
					for _, y := range buckets[k] {
						if x == y {
							continue
						}
						a, b := snap.demands[x], snap.demands[y]
						if got, want := isomorph.FindFullMapping(a, b), isomorph.FindFullMappingReference(a, b); !sameMapping(got, want) {
							t.Fatalf("%s: FindFullMapping of ids %d, %d: %+v, reference %+v", spec, x, y, got, want)
						}
						bucketPairs++
					}
				}
			}
		}
		t.Logf("%s: %d tables, %d searched pairs, %d isomorphic; %d pairs within Key buckets", spec, len(snaps.tables), searched, found, bucketPairs)
		totalSearched += searched
	}
	if totalSearched == 0 {
		t.Fatal("test premise: the cases search mappings")
	}
}

// sameMapping reports whether two answers are the same full mapping,
// nil where the other is nil.
func sameMapping(got, want *isomorph.Mapping) bool {
	if (got == nil) != (want == nil) {
		return false
	}
	return got == nil || reflect.DeepEqual(*got, *want)
}

// tableSnapshots sees, through the NewTable hook, every table a synthesis
// makes, and is the synthesis's SolveCache, which never has anything. A
// pass looks representatives up right after its Table.Classes, so at
// every lookup each table has interned every demand it will and searched
// every pair it has so far: a lookup that finds a table grown copies its
// demands and searched pairs.
type tableSnapshots struct {
	mu     sync.Mutex
	tables []*isomorph.Table
	taken  map[*isomorph.Table]*tableSnapshot
}

type tableSnapshot struct {
	demands  []*solve.Demand
	searched map[[2]int]*isomorph.Mapping
}

func (s *tableSnapshots) add(tab *isomorph.Table) {
	s.mu.Lock()
	s.tables = append(s.tables, tab)
	s.mu.Unlock()
}

func (s *tableSnapshots) Lookup(*solve.Demand, string) *solve.SubSchedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.taken == nil {
		s.taken = map[*isomorph.Table]*tableSnapshot{}
	}
	for _, tab := range s.tables {
		if old := s.taken[tab]; old != nil && len(old.demands) == tab.Len() && len(old.searched) == len(tab.Searched()) {
			continue
		}
		snap := &tableSnapshot{searched: maps.Clone(tab.Searched())}
		for id := 0; id < tab.Len(); id++ {
			d := *tab.Demand(id)
			d.Pieces = slices.Clone(d.Pieces)
			for i := range d.Pieces {
				d.Pieces[i].Srcs = slices.Clone(d.Pieces[i].Srcs)
				d.Pieces[i].Dsts = slices.Clone(d.Pieces[i].Dsts)
			}
			snap.demands = append(snap.demands, &d)
		}
		s.taken[tab] = snap
	}
	return nil
}

func (s *tableSnapshots) Store(*solve.Demand, string, *solve.SubSchedule) {}
