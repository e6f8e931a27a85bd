package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"syccl/internal/cli"
	"syccl/internal/verify"
)

// postStream POSTs a streaming synthesis request and parses every NDJSON
// line through the strict decoder. A request that fails before anything
// was streamed keeps its real status and a plain JSON error body, which
// is no stream: it comes back with no events, for the caller's status
// check.
func postStream(t *testing.T, url, body string) (*http.Response, []*StreamEvent) {
	t.Helper()
	resp, err := http.Post(url+"/v1/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var events []*StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev, err := ParseStreamEvent(line)
		if err != nil {
			t.Fatalf("stream line %d: %v\n%s", len(events), err, line)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return resp, events
}

// checkStreamShape asserts the NDJSON protocol invariants: zero or more
// incumbent events with seq 1..N and strictly decreasing times, then
// exactly one terminal event.
func checkStreamShape(t *testing.T, events []*StreamEvent) *StreamEvent {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty stream")
	}
	last := events[len(events)-1]
	if last.Event != StreamEventFinal && last.Event != StreamEventError {
		t.Fatalf("stream does not end with a terminal event: %+v", last)
	}
	prev := 0.0
	for i, ev := range events[:len(events)-1] {
		if ev.Event != StreamEventIncumbent {
			t.Fatalf("non-terminal event %d has kind %q", i, ev.Event)
		}
		if ev.Seq != i+1 {
			t.Fatalf("incumbent %d has seq %d", i, ev.Seq)
		}
		if i > 0 && ev.TimeS >= prev {
			t.Fatalf("incumbent stream not strictly improving: event %d time %g after %g", i, ev.TimeS, prev)
		}
		prev = ev.TimeS
	}
	return last
}

// TestStreamColdEndToEnd is the streaming acceptance check: a cold,
// deadline-bound stream:true request yields at least two incumbent
// events before the final event, the final response is byte-identical
// to what a non-streaming request for the same PlanKey returns from a
// fresh engine, and the schedule passes the chunk-replay oracle.
func TestStreamColdEndToEnd(t *testing.T) {
	const workload = `"topology":"a100x16","collective":"allgather","size":"64M","include_schedule":true,"timeout_ms":120000`

	_, ts := newTestServer(t, Options{})
	resp, events := postStream(t, ts.URL, `{`+workload+`,"stream":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != NDJSONContentType {
		t.Fatalf("stream Content-Type %q, want %q", ct, NDJSONContentType)
	}
	final := checkStreamShape(t, events)
	if final.Event != StreamEventFinal {
		t.Fatalf("terminal event is %q: %+v", final.Event, final.Error)
	}
	if n := len(events) - 1; n < 2 {
		t.Fatalf("cold stream published %d incumbent events, want >= 2", n)
	}
	if final.Partial || final.Response.Partial {
		t.Fatalf("generous deadline produced a partial final: %+v", final)
	}
	if final.Response.Schedule == nil {
		t.Fatal("final event missing requested schedule")
	}
	// The last incumbent must be the final response's time.
	if lastInc := events[len(events)-2]; lastInc.TimeS != final.Response.PredictedTimeS {
		t.Fatalf("final time %g != last incumbent %g", final.Response.PredictedTimeS, lastInc.TimeS)
	}

	sched, err := final.Response.Schedule.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	top, err := cli.ParseTopology("a100x16")
	if err != nil {
		t.Fatal(err)
	}
	col, err := cli.BuildCollective("allgather", top.NumGPUs(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckSchedule(col, sched); err != nil {
		t.Fatalf("streamed schedule fails the oracle: %v", err)
	}

	// Byte-identity with the non-streaming path: a fresh server (fresh
	// engine, same PlanKey) must return exactly the same response body
	// modulo the stream framing.
	_, plain := newTestServer(t, Options{})
	presp, praw := postJSON(t, plain.URL, `{`+workload+`}`)
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("plain status %d: %s", presp.StatusCode, praw)
	}
	streamed, err := json.Marshal(final.Response)
	if err != nil {
		t.Fatal(err)
	}
	var plainResp SynthesizeResponse
	if err := json.Unmarshal(praw, &plainResp); err != nil {
		t.Fatal(err)
	}
	plainBytes, err := json.Marshal(&plainResp)
	if err != nil {
		t.Fatal(err)
	}
	if string(streamed) != string(plainBytes) {
		t.Fatalf("streamed final differs from non-streaming response:\nstream: %s\nplain:  %s", streamed, plainBytes)
	}
}

// TestStreamWarmSingleFinal: a repeat stream request is served from the
// schedule store as exactly one final event, cached=true, no incumbents.
func TestStreamWarmSingleFinal(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body := `{"topology":"dgx4","collective":"allgather","size":"1M"}`
	if resp, raw := postJSON(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: %d: %s", resp.StatusCode, raw)
	}
	plans := s.Engine().Stats().Plans

	resp, events := postStream(t, ts.URL, `{"topology":"dgx4","collective":"allgather","size":"1M","stream":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm stream status %d", resp.StatusCode)
	}
	if len(events) != 1 {
		t.Fatalf("warm stream has %d events, want exactly 1 final", len(events))
	}
	final := checkStreamShape(t, events)
	if final.Event != StreamEventFinal || final.Response == nil || !final.Response.Cached {
		t.Fatalf("warm stream final not cached: %+v", final)
	}
	if got := s.Engine().Stats().Plans; got != plans {
		t.Fatalf("warm stream invoked the engine (%d -> %d plans)", plans, got)
	}
}

// TestStreamDeadlinePartialFinal: a stream cut short by its deadline
// still terminates with a final event carrying the best streamed
// incumbent (partial=true), not an error — the streaming upgrade of the
// 206 path. Deadline ladder mirrors TestTinyDeadlinePartial206.
func TestStreamDeadlinePartialFinal(t *testing.T) {
	const workload = `"topology":"a100x16","collective":"allgather","size":"64M"`
	_, cold := newTestServer(t, Options{})
	start := time.Now()
	resp, raw := postJSON(t, cold.URL, `{`+workload+`}`)
	coldTime := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d: %s", resp.StatusCode, raw)
	}
	for _, frac := range []int64{20, 10, 5, 3, 2} {
		budget := coldTime.Milliseconds() / frac
		if budget < 1 {
			budget = 1
		}
		_, ts := newTestServer(t, Options{})
		resp, events := postStream(t, ts.URL,
			fmt.Sprintf(`{%s,"stream":true,"include_schedule":true,"timeout_ms":%d}`, workload, budget))
		if resp.StatusCode == http.StatusGatewayTimeout {
			// Deadline fired before the first incumbent, so nothing was
			// streamed and the 504 stands; larger budget.
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status %d", resp.StatusCode)
		}
		final := checkStreamShape(t, events)
		switch {
		case final.Event == StreamEventError:
			// Deadline fired before any candidate; larger budget.
			continue
		case final.Partial:
			if final.Response == nil || !final.Response.Partial {
				t.Fatalf("partial final without partial response: %+v", final)
			}
			if final.Response.ID != "" {
				t.Fatalf("partial streamed result advertised a store id: %+v", final.Response)
			}
			if len(events) < 2 {
				t.Fatal("partial final with no streamed incumbents")
			}
			if final.Response.Schedule == nil {
				t.Fatal("partial final missing requested schedule")
			}
			sched, err := final.Response.Schedule.Schedule()
			if err != nil {
				t.Fatal(err)
			}
			top, _ := cli.ParseTopology("a100x16")
			col, err := cli.BuildCollective("allgather", top.NumGPUs(), 64<<20)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckSchedule(col, sched); err != nil {
				t.Fatalf("partial streamed schedule fails the oracle: %v", err)
			}
			return
		default:
			// Finished inside the budget; shrink further.
			continue
		}
	}
	t.Skip("no deadline in the ladder produced a partial stream on this machine")
}

// TestRetryAfterHint pins the load-derived 429 hint: the base interval
// scales with queued flights per solve slot, floors at one second, and
// admission.load reports the channel occupancy it is derived from.
func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		base   time.Duration
		queued int
		conc   int
		want   int
	}{
		{time.Second, 0, 4, 1},
		{time.Second, 4, 4, 2},
		{time.Second, 6, 4, 3}, // ceil(1 * 2.5)
		{time.Second, 40, 4, 11},
		{500 * time.Millisecond, 0, 4, 1}, // floor
		{2 * time.Second, 3, 2, 5},        // ceil(2 * 2.5)
		{time.Second, 5, 0, 6},            // conc clamped to 1
	}
	for _, c := range cases {
		if got := retryAfterHint(c.base, c.queued, c.conc); got != c.want {
			t.Errorf("retryAfterHint(%v, %d, %d) = %d, want %d", c.base, c.queued, c.conc, got, c.want)
		}
	}

	a := newAdmission(2, 4)
	if r, q := a.load(); r != 0 || q != 0 {
		t.Fatalf("fresh admission load = (%d,%d)", r, q)
	}
	ctx := t.Context()
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if r, _ := a.load(); r != 2 {
		t.Fatalf("running = %d, want 2", r)
	}
	a.release()
	a.release()
	if r, q := a.load(); r != 0 || q != 0 {
		t.Fatalf("drained admission load = (%d,%d)", r, q)
	}
	if r, q := newAdmission(0, 0).load(); r != 0 || q != 0 {
		t.Fatalf("disabled admission load = (%d,%d)", r, q)
	}
}
