package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkWarmRequest measures the microsecond path the daemon exists
// for: a duplicate request served end-to-end (HTTP included) from the
// schedule store without touching the engine.
func BenchmarkWarmRequest(b *testing.B) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := []byte(`{"topology":"dgx4","collective":"allgather","size":"1M"}`)

	// Prime the store with the one cold solve.
	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("prime: %d", resp.StatusCode)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("warm: %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	if plans := s.Engine().Stats().Plans; plans != 1 {
		b.Fatalf("warm benchmark invoked the engine %d times", plans)
	}
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
