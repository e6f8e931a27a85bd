package sketch

import (
	"context"
	"reflect"
	"testing"

	"syccl/internal/topology"
)

// TestSearchPreCancelled: a context cancelled before the search starts
// must yield no sketches — the searcher checks the context before
// expanding any node.
func TestSearchPreCancelled(t *testing.T) {
	top := topology.Fig3()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := SearchBroadcast(ctx, top, 0, SearchOptions{}); len(got) != 0 {
		t.Fatalf("cancelled broadcast search emitted %d sketches", len(got))
	}
	if got := SearchScatter(ctx, top, 0, SearchOptions{}); len(got) != 0 {
		t.Fatalf("cancelled scatter search emitted %d sketches", len(got))
	}
}

// TestSearchNilContextMatchesBackground: a nil context is tolerated and
// equivalent to context.Background().
func TestSearchNilContextMatchesBackground(t *testing.T) {
	top := topology.Fig3()
	want := SearchBroadcast(context.Background(), top, 0, SearchOptions{})
	got := SearchBroadcast(nil, top, 0, SearchOptions{}) //nolint:staticcheck — nil tolerance is the point
	if len(got) != len(want) {
		t.Fatalf("nil-ctx search found %d sketches, Background found %d", len(got), len(want))
	}
}

// pollCountingContext is a live context whose Err turns non-nil on the
// call after the first `after` calls; calls counts every Err call.
type pollCountingContext struct {
	context.Context
	after, calls int
}

func (c *pollCountingContext) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestSearchStopsWithinOneStage: the search polls its context once per
// stage it materializes, so once Err turns non-nil it builds no further
// stage — no later poll — and returns a prefix of the uncancelled output.
func TestSearchStopsWithinOneStage(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, top := range []*topology.Topology{topology.A100Clos(2), topology.H800Rail(64)} {
		for _, scatter := range []bool{false, true} {
			full := runSearch(context.Background(), top, 0, scatter, SearchOptions{})
			// Every emitted sketch was completed by a stage of its own, so a
			// search that polls once per stage polls at least len(full) times.
			counter := &pollCountingContext{Context: live, after: 1 << 30}
			runSearch(counter, top, 0, scatter, SearchOptions{})
			if counter.calls < len(full) {
				t.Errorf("%s scatter=%v: %d polls for %d sketches", top.Name, scatter, counter.calls, len(full))
			}
			for _, after := range []int{0, 1, 5, len(full) / 2} {
				if after >= len(full) {
					continue
				}
				ctx := &pollCountingContext{Context: live, after: after}
				got := runSearch(ctx, top, 0, scatter, SearchOptions{})
				if ctx.calls != after+1 {
					t.Errorf("%s scatter=%v: Err non-nil after %d polls, search polled %d times", top.Name, scatter, after, ctx.calls)
				}
				if len(got) > len(full) || (len(got) > 0 && !reflect.DeepEqual(got, full[:len(got)])) {
					t.Errorf("%s scatter=%v: cancelled after %d polls, %d sketches are not a prefix of the %d uncancelled",
						top.Name, scatter, after, len(got), len(full))
				}
			}
		}
	}
}
