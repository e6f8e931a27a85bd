package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// hitCases are the store-hit benchmark table: the smallest fabric and the
// largest one the perf ledger's serve_hit reads, each without and with
// the schedule (a 1 KB … 508 KB body).
var hitCases = []struct{ name, body string }{
	{"dgx4/plain", `{"topology":"dgx4","collective":"allgather","size":"1M"}`},
	{"dgx4/include_schedule", `{"topology":"dgx4","collective":"allgather","size":"1M","include_schedule":true}`},
	{"a100x32/plain", `{"topology":"a100x32","collective":"allgather","size":"64M"}`},
	{"a100x32/include_schedule", `{"topology":"a100x32","collective":"allgather","size":"64M","include_schedule":true}`},
}

// benchHits runs hit once per iteration on every case of the table,
// against one server primed with each case's cold solve, and checks the
// timed region never reached the engine.
func benchHits(b *testing.B, s *Server, hit func(b *testing.B, body []byte)) {
	for _, tc := range hitCases {
		serveOnce(s, http.MethodPost, "/v1/synthesize", tc.body)
	}
	plans := s.Engine().Stats().Plans
	for _, tc := range hitCases {
		body := []byte(tc.body)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hit(b, body)
			}
		})
	}
	if got := s.Engine().Stats().Plans; got != plans {
		b.Fatalf("hit benchmark invoked the engine (%d -> %d plans)", plans, got)
	}
}

// BenchmarkWarmRequest measures the microsecond path the daemon exists
// for: a duplicate request served end-to-end (HTTP included) from the
// schedule store without touching the engine.
func BenchmarkWarmRequest(b *testing.B) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	benchHits(b, s, func(b *testing.B, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("warm: %d", resp.StatusCode)
		}
	})
}

// BenchmarkStoreHitHandler is the same hit without TCP: ServeHTTP into a
// recorder, so the handler's share of BenchmarkWarmRequest is visible
// (and profilable: scripts/pprof.sh bench BenchmarkStoreHitHandler
// ./internal/serve/).
func BenchmarkStoreHitHandler(b *testing.B) {
	s := New(Options{})
	benchHits(b, s, func(b *testing.B, body []byte) {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			b.Fatalf("hit: %d", rr.Code)
		}
	})
}

// BenchmarkDecodeRequest isolates the request decoder.
func BenchmarkDecodeRequest(b *testing.B) {
	body := []byte(`{"topology":"a100x16","collective":"alltoall","size":"64M","timeout_ms":500,"workers":4,"seed":7}`)
	for i := 0; i < b.N; i++ {
		if _, aerr := DecodeRequest(bytes.NewReader(body), DefaultMaxBodyBytes); aerr != nil {
			b.Fatal(aerr)
		}
	}
}
