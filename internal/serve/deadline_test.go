package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"syccl/internal/cli"
	"syccl/internal/engine"
	"syccl/internal/solve"
	"syccl/internal/verify"
)

// TestTinyDeadlinePartial206: a request whose deadline is a fraction of
// the cold synthesis time comes back as HTTP 206 with partial=true, and
// the anytime schedule it carries still passes the chunk-replay oracle.
// The deadline ladder adapts to machine speed: we first measure the cold
// time, then shrink the budget until the pipeline is genuinely cut short.
func TestTinyDeadlinePartial206(t *testing.T) {
	const workload = `"topology":"a100x16","collective":"allgather","size":"64M"`

	// Measure the full pipeline on a throwaway server.
	_, cold := newTestServer(t, Options{})
	start := time.Now()
	resp, raw := postJSON(t, cold.URL, fmt.Sprintf(`{%s}`, workload))
	coldTime := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d: %s", resp.StatusCode, raw)
	}

	for _, frac := range []int64{20, 10, 5, 3, 2} {
		budget := coldTime.Milliseconds() / frac
		if budget < 1 {
			budget = 1
		}
		// Fresh server+engine per attempt: the deadline must race the
		// full cold pipeline, not a warm cache.
		_, ts := newTestServer(t, Options{})
		body := fmt.Sprintf(`{%s,"timeout_ms":%d,"include_schedule":true}`, workload, budget)
		resp, raw := postJSON(t, ts.URL, body)
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			// Deadline fired before any candidate validated; try a
			// larger budget.
			continue
		case http.StatusPartialContent:
			var sr SynthesizeResponse
			if err := json.Unmarshal(raw, &sr); err != nil {
				t.Fatal(err)
			}
			if !sr.Partial {
				t.Fatalf("206 without partial=true: %s", raw)
			}
			if sr.ID != "" {
				t.Fatalf("partial result advertised a store id: %s", raw)
			}
			if sr.Schedule == nil {
				t.Fatal("partial response missing requested schedule")
			}
			sched, err := sr.Schedule.Schedule()
			if err != nil {
				t.Fatal(err)
			}
			top, _ := cli.ParseTopology("a100x16")
			col, err := cli.BuildCollective("allgather", top.NumGPUs(), 64<<20)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckSchedule(col, sched); err != nil {
				t.Fatalf("partial schedule fails the oracle: %v", err)
			}
			return
		case http.StatusOK:
			// Budget was generous enough to finish; shrink further.
			continue
		default:
			t.Fatalf("deadline run: unexpected status %d: %s", resp.StatusCode, raw)
		}
	}
	// Every budget either finished or died before the first candidate —
	// the anytime window never opened at this machine's speed. The
	// anytime mechanics themselves are pinned deterministically by
	// engine.TestPlanAnytimeInvariant; this wall-clock probe is best
	// effort on top.
	t.Skip("no deadline in the ladder produced a Partial result on this machine")
}

// TestPartialNotStored: a deadline-cut result must not poison the warm
// path — the same request with no deadline afterwards is a full 200 that
// does real work or hits engine caches, never the stored partial.
func TestPartialNotStored(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// Tiny budget: either 206 (partial) or 504 (nothing yet); in both
	// cases nothing may land in the store.
	resp, _ := postJSON(t, ts.URL, `{"topology":"a100x16","collective":"allgather","size":"64M","timeout_ms":1}`)
	if resp.StatusCode != http.StatusPartialContent && resp.StatusCode != http.StatusGatewayTimeout {
		if resp.StatusCode == http.StatusOK {
			t.Skip("1ms budget completed the pipeline; machine too fast for this probe")
		}
		t.Fatalf("unexpected status %d", resp.StatusCode)
	}
	resp, raw := postJSON(t, ts.URL, `{"topology":"a100x16","collective":"allgather","size":"64M"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up full run: %d: %s", resp.StatusCode, raw)
	}
	var sr SynthesizeResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cached || sr.Partial {
		t.Fatalf("full run after a partial was served from the store: %+v", sr)
	}
}

// heldTier is a disk tier with nothing on it whose Load blocks until
// release is closed, so a plan that reaches its sub-schedule cache stays
// mid-pass until then. The first Load closes entered.
type heldTier struct {
	entered, release chan struct{}
	once             sync.Once
}

func (h *heldTier) Load(*solve.Demand, string) *solve.SubSchedule {
	h.once.Do(func() { close(h.entered) })
	<-h.release
	return nil
}

func (*heldTier) Put(*solve.Demand, string, *solve.SubSchedule) error { return nil }
func (*heldTier) InvalidateMatching([]string) int                     { return 0 }

// TestCancelledClientNeverPopulatesCaches extends the engine's cancellation
// invariant to the HTTP layer: when the only client of a flight
// disconnects, the flight is cancelled, nothing is stored, and the
// engine caches stay cold — the next identical request has to solve
// from scratch. The plan is held in its first sub-schedule lookup until
// the server has cancelled the flight, so it cannot finish first.
func TestCancelledClientNeverPopulatesCaches(t *testing.T) {
	held := &heldTier{entered: make(chan struct{}), release: make(chan struct{})}
	s, ts := newTestServer(t, Options{Engine: engine.New(engine.Options{Persist: held})})
	body := `{"topology":"a100x16","collective":"allgather","size":"64M"}`

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/synthesize", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	select {
	case <-held.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the plan to reach the sub-schedule cache")
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled client request reported success")
	}
	waitFor(t, 30*time.Second, "flight cancellation", func() bool {
		s.flights.mu.Lock()
		defer s.flights.mu.Unlock()
		for _, f := range s.flights.flights {
			if f.ctx.Err() != nil {
				return true
			}
		}
		return false
	})
	close(held.release)
	// Wait for the abandoned flight to unwind.
	waitFor(t, 30*time.Second, "flight teardown", func() bool { return s.Stats().Server.Flights == 0 })

	if st := s.Engine().Stats(); st.Cancelled < 1 {
		t.Fatalf("engine never saw the cancellation: %+v", st)
	}
	if n := s.store.len(); n != 0 {
		t.Fatalf("cancelled request left %d stored schedules", n)
	}

	// The identical request must now be a genuinely cold solve: engine
	// invoked again, real solver work, no store hit.
	resp, raw := postJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up: %d: %s", resp.StatusCode, raw)
	}
	var sr SynthesizeResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cached {
		t.Fatal("follow-up request was served from the store after a cancelled flight")
	}
	if sr.SolverCalls == 0 {
		t.Fatal("follow-up request did zero solver work: the cancelled plan populated the engine caches")
	}
}
