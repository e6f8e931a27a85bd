package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
)

// NDJSONContentType is the Content-Type of streaming synthesis
// responses: one JSON object per line, flushed as events happen.
const NDJSONContentType = "application/x-ndjson"

// Stream event kinds. Every streaming response is a sequence of zero or
// more "incumbent" events terminated by exactly one "final" or "error"
// event.
const (
	StreamEventIncumbent = "incumbent"
	StreamEventFinal     = "final"
	StreamEventError     = "error"
)

// StreamEvent is one NDJSON line of a streaming synthesis response
// (Request.Stream). Incumbent events carry the improving schedule's
// predicted time, the best known flow lower bound, and provenance;
// the final event carries the full SynthesizeResponse (with the
// schedule id, and partial=true when a deadline cut synthesis short —
// the response is still the best streamed incumbent, never nothing).
// Error events carry the same structured error a non-streaming request
// would have received as its body.
type StreamEvent struct {
	Event string `json:"event"`
	// Seq numbers incumbent events from 1 within the stream.
	Seq int `json:"seq,omitempty"`
	// TimeS is the incumbent's simulator-predicted completion time.
	TimeS float64 `json:"time_s,omitempty"`
	// BoundS is the flow lower bound known when the incumbent was
	// published (0 before bounds are computed).
	BoundS float64 `json:"bound_s,omitempty"`
	// Source is the pipeline stage: "direct", "coarse", "ring", "fine".
	Source string `json:"source,omitempty"`
	// Engine is the sub-demand engine of the producing pass.
	Engine string `json:"engine,omitempty"`
	// ElapsedMS is milliseconds from solve start to this event.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Partial marks a final event whose response was cut short by the
	// deadline (mirrors SynthesizeResponse.Partial).
	Partial bool `json:"partial,omitempty"`
	// Response is the terminal payload of a final event.
	Response *SynthesizeResponse `json:"response,omitempty"`
	// Error is the terminal payload of an error event.
	Error *APIError `json:"error,omitempty"`
}

// ParseStreamEvent decodes and validates one NDJSON line. It is strict —
// unknown fields, trailing data, unknown event kinds, and terminal
// events missing their payload are errors — and never panics on
// arbitrary input (FuzzDecodeStream).
func ParseStreamEvent(line []byte) (*StreamEvent, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	ev := &StreamEvent{}
	if err := dec.Decode(ev); err != nil {
		return nil, fmt.Errorf("serve: malformed stream event: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("serve: trailing data after stream event")
	}
	switch ev.Event {
	case StreamEventIncumbent:
		if ev.Seq < 1 {
			return nil, fmt.Errorf("serve: incumbent event without a positive seq")
		}
		if ev.TimeS <= 0 {
			return nil, fmt.Errorf("serve: incumbent event with non-positive time_s")
		}
	case StreamEventFinal:
		if ev.Response == nil {
			return nil, fmt.Errorf("serve: final event without a response")
		}
	case StreamEventError:
		if ev.Error == nil {
			return nil, fmt.Errorf("serve: error event without an error")
		}
	default:
		return nil, fmt.Errorf("serve: unknown stream event %q", ev.Event)
	}
	return ev, nil
}

// responder writes one synthesis response in either of its two shapes
// behind the same two calls: event relays an incumbent, finish ends the
// response. One-shot, finish writes the single JSON body (event is never
// called: nothing subscribes). Streaming, every call is one NDJSON line,
// flushed immediately so clients see incumbents as they are found, not
// when the response buffer happens to fill.
type responder struct {
	s       *Server
	w       http.ResponseWriter
	stream  bool
	started bool
	enc     *json.Encoder
}

// event writes one NDJSON line. The first commits the 200 status and the
// NDJSON content type — streaming responses are always HTTP 200;
// failures after that point arrive as a terminal error event.
func (rw *responder) event(ev StreamEvent) {
	if !rw.started {
		rw.started = true
		rw.w.Header().Set("Content-Type", NDJSONContentType)
		rw.w.WriteHeader(http.StatusOK)
		rw.enc = json.NewEncoder(rw.w)
	}
	// Encode appends the newline that delimits NDJSON records.
	_ = rw.enc.Encode(ev)
	if f, ok := rw.w.(http.Flusher); ok {
		f.Flush()
	}
}

// finish ends the response with the outcome: its error, or its base
// response dressed with this request's flags and, if asked, the
// schedule. An error before anything was streamed keeps its real status.
//
// A one-shot store hit that is nobody's follower is the same bytes every
// time, so it is written from the entry's encoded body. A stream final
// wraps the response in an event and a follower says coalesced:true:
// neither is those bytes, and both take the encoder below, as every cold
// outcome does.
func (rw *responder) finish(o *outcome, includeSchedule, coalesced bool) {
	if o.apiErr != nil {
		if rw.started {
			rw.event(StreamEvent{Event: StreamEventError, Error: o.apiErr})
		} else {
			rw.s.writeError(rw.w, o.apiErr)
		}
		return
	}
	if o.ent != nil && !rw.stream && !coalesced {
		if body := o.ent.body(includeSchedule); body != nil {
			writeBody(rw.w, o.status, body)
			return
		}
	}
	resp := o.resp
	resp.Coalesced = coalesced
	if includeSchedule {
		resp.Schedule = ToScheduleJSON(o.sched)
	}
	if rw.stream {
		rw.event(StreamEvent{Event: StreamEventFinal, TimeS: resp.PredictedTimeS, Partial: resp.Partial, Response: &resp})
	} else {
		writeJSON(rw.w, o.status, &resp)
	}
}
