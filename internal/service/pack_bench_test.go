package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"apbcc/internal/workloads"
)

// BenchmarkPackPost prices one POST /v1/pack through Handler(), without
// the network: assemble, train, pack and verify, rotating over the
// generated programs and the five codecs the pack-write benchmark
// workload posts with. It is the build path's end-to-end entry in the
// tracked benchmark set.
func BenchmarkPackPost(b *testing.B) {
	s, err := New(Config{TraceRing: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	srcs := workloads.GeneratedAssembly(1, 256)
	codecs := []string{"dict", "bdi", "cpack", "lzss", "huffman"}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		req := httptest.NewRequest(http.MethodPost, "/v1/pack?name=gen&codec="+codecs[i%len(codecs)],
			strings.NewReader(srcs[i%len(srcs)]))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		i++
	}
}
