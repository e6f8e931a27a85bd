package sketch

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"syccl/internal/topology"
)

// TestAutomorphismsReleasedWithTopology: replication memoizes the
// automorphism family it scans, and a long-running daemon builds a new
// topology for every request identity and every applied delta. The
// family must go when its topology does — a memo that outlives the
// topology keeps every one of them reachable.
func TestAutomorphismsReleasedWithTopology(t *testing.T) {
	collected := make(chan struct{})
	func() {
		top := topology.H800Rail(2)
		sk := SearchBroadcast(context.Background(), top, 0, SearchOptions{})[0]
		if combo := Replicate(top, sk, 0); len(combo.Sketches) < 2 {
			t.Fatalf("replication used no automorphism: %d sketches", len(combo.Sketches))
		}
		runtime.SetFinalizer(top, func(*topology.Topology) { close(collected) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped topology is still reachable after replication")
}

// TestAutomorphismsConcurrent: concurrent plans share topologies, so the
// family may first be asked for by several goroutines at once. Every
// caller must see the same family, and replication through it must
// return what it returns on an unshared topology.
func TestAutomorphismsConcurrent(t *testing.T) {
	describe := func(top *topology.Topology) string {
		sk := SearchBroadcast(context.Background(), top, 0, SearchOptions{})[0]
		return Replicate(top, sk, 0).DescribeCombination(top)
	}
	ref := topology.H800Rail(2)
	wantPerms, wantCombo := ref.Automorphisms(), describe(ref)

	shared := topology.H800Rail(2)
	var wg sync.WaitGroup
	perms := make([][][]int, 8)
	combos := make([]string, len(perms))
	for i := range perms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				perms[i] = shared.Automorphisms()
				combos[i] = describe(shared)
			} else {
				combos[i] = describe(shared)
				perms[i] = shared.Automorphisms()
			}
		}()
	}
	wg.Wait()
	for i := range perms {
		if !reflect.DeepEqual(perms[i], wantPerms) {
			t.Errorf("goroutine %d: %d automorphisms, want the unshared topology's %d", i, len(perms[i]), len(wantPerms))
		}
		if combos[i] != wantCombo {
			t.Errorf("goroutine %d: replication differs from the unshared topology's:\n%s\nwant\n%s", i, combos[i], wantCombo)
		}
	}
}
