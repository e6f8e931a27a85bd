package isomorph_test

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"syccl/internal/cli"
	"syccl/internal/core"
	"syccl/internal/isomorph"
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
// its Key bucket.
func TestFindFullMappingEquivalence(t *testing.T) {
	var mu sync.Mutex
	var tables []*isomorph.Table
	isomorph.SetNewTableHook(func(tab *isomorph.Table) {
		mu.Lock()
		tables = append(tables, tab)
		mu.Unlock()
	})
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
		tables = tables[:0]
		if _, err := core.Synthesize(top, col, core.Options{}); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s: the synthesis made no demand table", spec)
		}
		searched, found, bucketPairs := 0, 0, 0
		for _, tab := range tables {
			pairs := make([][2]int, 0, len(tab.Searched()))
			for pair := range tab.Searched() {
				pairs = append(pairs, pair)
			}
			sort.Slice(pairs, func(x, y int) bool {
				return pairs[x][0] < pairs[y][0] || pairs[x][0] == pairs[y][0] && pairs[x][1] < pairs[y][1]
			})
			for _, pair := range pairs {
				a, b := tab.Demand(pair[0]), tab.Demand(pair[1])
				want := isomorph.FindFullMappingReference(a, b)
				if got := tab.Searched()[pair]; !sameMapping(got, want) {
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
			for id := 0; id < tab.Len(); id++ {
				k := isomorph.Key(tab.Demand(id))
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
						a, b := tab.Demand(x), tab.Demand(y)
						if got, want := isomorph.FindFullMapping(a, b), isomorph.FindFullMappingReference(a, b); !sameMapping(got, want) {
							t.Fatalf("%s: FindFullMapping of ids %d, %d: %+v, reference %+v", spec, x, y, got, want)
						}
						bucketPairs++
					}
				}
			}
		}
		t.Logf("%s: %d tables, %d searched pairs, %d isomorphic; %d pairs within Key buckets", spec, len(tables), searched, found, bucketPairs)
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
