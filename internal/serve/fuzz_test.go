package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"syccl/internal/sketch"
)

// FuzzDecodeRequest hammers the request decoder with arbitrary bodies
// (alongside internal/verify's FuzzValidate/FuzzSimParity). Properties:
// the decoder never panics, every rejection is a well-formed structured
// error with a sensible status, and every accepted request re-encodes
// and re-decodes to itself (the wire form is a fixed point).
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		// Valid: minimal, fully specified, with optional knobs.
		`{"topology":"dgx4","collective":"allgather","size":"1M"}`,
		`{"topology":"a100x16","collective":"alltoall","size":"64M","timeout_ms":500,"e1":3.0,"e2":0.5,"workers":4,"seed":7,"include_schedule":true}`,
		`{"topology":"server8","collective":"allreduce","size":"1G","seed":-1}`,
		`  {"topology":"h800x64","collective":"reducescatter","size":"4K"}  `,
		// Streaming + sketch-hint knobs.
		`{"topology":"dgx4","collective":"allgather","size":"1M","stream":true}`,
		`{"topology":"dgx4","collective":"allgather","size":"1M","sketch_hint":"dims=1,0;sizes=4,2;family=tree","stop_within_pct":5}`,
		`{"topology":"a100x16","collective":"allgather","size":"64M","sketch_hint":"family=flat","stream":true,"stop_within_pct":0.5}`,
		// Bad hints and out-of-range stop_within_pct.
		`{"topology":"dgx4","collective":"allgather","size":"1M","sketch_hint":"dims=1,0;dims=0"}`,
		`{"topology":"dgx4","collective":"allgather","size":"1M","sketch_hint":"family=ring"}`,
		`{"topology":"dgx4","collective":"allgather","size":"1M","sketch_hint":";;;"}`,
		`{"topology":"dgx4","collective":"allgather","size":"1M","stop_within_pct":101}`,
		`{"topology":"dgx4","collective":"allgather","size":"1M","stop_within_pct":-1}`,
		// Non-finite sizes decode; resolve refuses them as bad_size.
		`{"topology":"dgx4","collective":"allgather","size":"NaN"}`,
		`{"topology":"dgx4","collective":"allgather","size":"infM"}`,
		// Truncated at various depths.
		`{"topology":"dgx4","collective":"allgather","si`,
		`{"topology":"dgx4",`,
		`{`,
		``,
		// Wrong shapes and junk.
		`[]`,
		`"just a string"`,
		`{"topology":42,"collective":true,"size":[]}`,
		`{"topology":"dgx4","collective":"allgather","size":"1M","unknown_field":1}`,
		`{"topology":"dgx4","collective":"allgather","size":"1M","bypass_store":true}`,
		`{"topology":"dgx4","collective":"allgather","size":"1M"}{"trailing":1}`,
		`{"timeout_ms":-9223372036854775808}`,
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, aerr := DecodeRequest(bytes.NewReader(body), 1<<16)
		if aerr != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			switch aerr.Status {
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("decoder error with status %d", aerr.Status)
			}
			if aerr.Code == "" || aerr.Message == "" {
				t.Fatalf("unstructured decode error: %+v", aerr)
			}
			return
		}
		// Accepted requests satisfy the documented invariants...
		if strings.TrimSpace(req.Topology) == "" || strings.TrimSpace(req.Collective) == "" || strings.TrimSpace(req.Size) == "" {
			t.Fatalf("decoder accepted a request with missing fields: %+v", req)
		}
		if req.TimeoutMS < 0 || req.Workers < 0 || req.Workers > 4096 || req.E1 < 0 || req.E2 < 0 {
			t.Fatalf("decoder accepted out-of-range values: %+v", req)
		}
		if req.StopWithinPct < 0 || req.StopWithinPct > 100 {
			t.Fatalf("decoder accepted out-of-range stop_within_pct: %+v", req)
		}
		if _, err := sketch.ParseHint(req.SketchHint); err != nil {
			t.Fatalf("decoder accepted an unparseable sketch_hint %q: %v", req.SketchHint, err)
		}
		// ...and are a fixed point of encode→decode.
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, aerr := DecodeRequest(bytes.NewReader(enc), 1<<16)
		if aerr != nil {
			t.Fatalf("re-decode rejected %s: %v", enc, aerr)
		}
		if *again != *req {
			t.Fatalf("decode not idempotent: %+v vs %+v", req, again)
		}
	})
}

// FuzzDecodeStream hammers the NDJSON stream-event decoder with
// arbitrary lines. Properties: never panics, every rejection is an
// error (not a half-validated event), and every accepted event is a
// fixed point of encode→decode.
func FuzzDecodeStream(f *testing.F) {
	seeds := []string{
		// Valid events of each kind.
		`{"event":"incumbent","seq":1,"time_s":0.0012,"bound_s":0.001,"source":"coarse","engine":"greedy","elapsed_ms":14.2}`,
		`{"event":"incumbent","seq":3,"time_s":7.3e-06,"source":"ring"}`,
		`{"event":"final","time_s":0.001,"response":{"topology":"dgx4","collective":"AllGather","num_gpus":4,"size_bytes":1048576,"predicted_time_s":0.001,"busbw_gbps":100,"transfers":12,"solver_calls":3,"partial":false,"coalesced":false,"cached":false}}`,
		`{"event":"final","partial":true,"response":{"topology":"a100x16","collective":"AllGather","num_gpus":16,"size_bytes":1,"predicted_time_s":1,"busbw_gbps":1,"transfers":1,"solver_calls":0,"partial":true,"coalesced":false,"cached":false}}`,
		`{"event":"error","error":{"status":504,"code":"deadline","message":"deadline expired"}}`,
		// Invalid: wrong kinds, missing payloads, bad seq/time, junk.
		`{"event":"incumbent"}`,
		`{"event":"incumbent","seq":0,"time_s":1}`,
		`{"event":"incumbent","seq":1,"time_s":0}`,
		`{"event":"final"}`,
		`{"event":"error"}`,
		`{"event":"heartbeat"}`,
		`{"event":"incumbent","seq":1,"time_s":1,"extra":true}`,
		`{"event":"incumbent","seq":1,"time_s":1}{"event":"final"}`,
		`{`,
		``,
		"\x00\xff",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := ParseStreamEvent(line)
		if err != nil {
			if ev != nil {
				t.Fatal("error with non-nil event")
			}
			return
		}
		switch ev.Event {
		case StreamEventIncumbent, StreamEventFinal, StreamEventError:
		default:
			t.Fatalf("accepted unknown event kind %q", ev.Event)
		}
		enc, merr := json.Marshal(ev)
		if merr != nil {
			t.Fatalf("re-encode: %v", merr)
		}
		again, err := ParseStreamEvent(enc)
		if err != nil {
			t.Fatalf("re-decode rejected %s: %v", enc, err)
		}
		if again.Event != ev.Event || again.Seq != ev.Seq || again.TimeS != ev.TimeS || again.Partial != ev.Partial {
			t.Fatalf("decode not idempotent: %+v vs %+v", ev, again)
		}
	})
}
