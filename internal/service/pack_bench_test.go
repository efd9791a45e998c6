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

// rewindBody is a request body a test rewinds between requests.
type rewindBody struct{ *strings.Reader }

func (rewindBody) Close() error { return nil }

// TestPackPostAllocBudget pins the allocations of one untraced POST
// /v1/pack through Handler() over generated programs and the five
// codecs the pack-write benchmark workload posts with: read the body
// once and assemble it in place, build the container (pack.Build) and
// verify it with the full Unpack. dict, which allocates most, makes 54
// to 57; the budget keeps one spare. A -race build drops sync.Pool
// entries at random, so the pin is skipped there.
func TestPackPostAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets count on warm sync.Pool entries, which -race drops")
	}
	s, err := New(Config{TraceRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	w := &discardWriter{h: http.Header{}}
	const budget = 58
	for _, codec := range []string{"dict", "bdi", "cpack", "lzss", "huffman"} {
		for i, src := range workloads.GeneratedAssembly(1, 16) {
			body := rewindBody{strings.NewReader(src)}
			req := httptest.NewRequest(http.MethodPost, "/v1/pack?name=gen&codec="+codec, body)
			req.ContentLength = int64(len(src))
			post := func() {
				body.Reset(src)
				clear(w.h)
				h.ServeHTTP(w, req)
			}
			post() // warm the pools
			if w.h.Get("Content-Length") == "" {
				t.Fatalf("%s program %d: no container (headers %v)", codec, i, w.h)
			}
			if allocs := testing.AllocsPerRun(20, post); allocs > budget {
				t.Errorf("%s program %d: POST /v1/pack allocates %.0f times, budget %d", codec, i, allocs, budget)
			}
		}
	}
}
