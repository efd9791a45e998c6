package service

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/isa"
	"apbcc/internal/pack"
	"apbcc/internal/workloads"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerConfig(t, Config{Workers: 4, QueueDepth: 64})
}

func newTestServerConfig(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func get(t *testing.T, client *http.Client, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, body, resp.Header
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	code, body, _ := get(t, ts.Client(), ts.URL+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

func TestPackEndpointRoundTrips(t *testing.T) {
	_, ts := newTestServer(t)
	for _, codec := range []string{"dict", "lzss", "huffman", "identity", "cpack", "bdi"} {
		code, body, hdr := get(t, ts.Client(), ts.URL+"/v1/pack/crc32?codec="+codec)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", codec, code, body)
		}
		if got := hdr.Get(HeaderCodec); got != codec {
			t.Errorf("%s: codec header = %q", codec, got)
		}
		p, c, _, err := pack.Unpack("crc32", body)
		if err != nil {
			t.Fatalf("%s: served container fails Unpack: %v", codec, err)
		}
		if c.Name() != codec {
			t.Errorf("unpacked codec = %q, want %q", c.Name(), codec)
		}
		wl, err := workloads.ByName("crc32")
		if err != nil {
			t.Fatal(err)
		}
		if p.Graph.NumBlocks() != wl.Program.Graph.NumBlocks() {
			t.Errorf("%s: blocks = %d, want %d", codec, p.Graph.NumBlocks(), wl.Program.Graph.NumBlocks())
		}
	}
}

func TestPackAsmEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	src := `
		start:
			addi r1, r0, 10
		loop:
			addi r1, r1, -1
			bne  r1, r0, loop
			halt
	`
	resp, err := ts.Client().Post(ts.URL+"/v1/pack?name=countdown&codec=lzss", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	p, _, _, err := pack.Unpack("countdown", body)
	if err != nil {
		t.Fatalf("posted container fails Unpack: %v", err)
	}
	if p.Name != "countdown" {
		t.Errorf("name = %q", p.Name)
	}

	// Garbage assembly must be rejected, not packed.
	resp, err = ts.Client().Post(ts.URL+"/v1/pack", "text/plain", strings.NewReader("frobnicate r99"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad asm: status %d, want 400", resp.StatusCode)
	}
}

func TestBlockEndpointServesVerifiableBlocks(t *testing.T) {
	_, ts := newTestServer(t)
	code, body, _ := get(t, ts.Client(), ts.URL+"/v1/pack/fir?codec=dict")
	if code != http.StatusOK {
		t.Fatalf("pack: %d", code)
	}
	prog, codec, _, err := pack.Unpack("fir", body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.AllBlockBytes()
	if err != nil {
		t.Fatal(err)
	}
	for id := range want {
		url := fmt.Sprintf("%s/v1/block/fir/%d?codec=dict", ts.URL, id)
		code, payload, hdr := get(t, ts.Client(), url)
		if code != http.StatusOK {
			t.Fatalf("block %d: status %d", id, code)
		}
		if err := verifyBlock(codec, payload, hdr, want[id]); err != nil {
			t.Fatalf("block %d: %v", id, err)
		}
		words, _ := strconv.Atoi(hdr.Get(HeaderWords))
		if words*4 != len(want[id]) {
			t.Errorf("block %d: words header %d, want %d", id, words, len(want[id])/4)
		}
	}
}

// TestBlockResponsesMatchUnpack pins the single block path: for every
// suite program under every codec, each block response through
// Handler() is exactly that block's payload slice of the container
// /v1/pack serves, its CRC, word count and codec headers match the
// images pack.Unpack rebuilds, and no X-Apcc-Cache header is sent.
func TestBlockResponsesMatchUnpack(t *testing.T) {
	s, err := New(Config{TraceRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	serve := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}
	for _, name := range workloads.Names() {
		for _, codec := range compress.Names() {
			rec := serve("/v1/pack/" + name + "?codec=" + codec)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s/%s: pack status %d", name, codec, rec.Code)
			}
			container := rec.Body.Bytes()
			idx, err := pack.ParseIndex(container)
			if err != nil {
				t.Fatal(err)
			}
			prog, _, _, err := pack.Unpack(name, container)
			if err != nil {
				t.Fatal(err)
			}
			want, err := prog.AllBlockBytes()
			if err != nil {
				t.Fatal(err)
			}
			for id, e := range idx.Blocks {
				rec := serve(fmt.Sprintf("/v1/block/%s/%d?codec=%s", name, id, codec))
				payload := container[idx.PayloadBase+e.Off : idx.PayloadBase+e.Off+e.Len]
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), payload) {
					t.Fatalf("%s/%s block %d: status %d, payload slice equal %v",
						name, codec, id, rec.Code, bytes.Equal(rec.Body.Bytes(), payload))
				}
				hdr := rec.Header()
				if got, wantCRC := hdr.Get(HeaderCRC), fmt.Sprintf("%08x", crc32.ChecksumIEEE(want[id])); got != wantCRC {
					t.Fatalf("%s/%s block %d: %s %s, want %s", name, codec, id, HeaderCRC, got, wantCRC)
				}
				if got := hdr.Get(HeaderWords); got != strconv.Itoa(len(want[id])/isa.WordSize) {
					t.Fatalf("%s/%s block %d: %s %s, want %d", name, codec, id, HeaderWords, got, len(want[id])/isa.WordSize)
				}
				if got := hdr.Get(HeaderCodec); got != codec {
					t.Fatalf("%s/%s block %d: %s %s", name, codec, id, HeaderCodec, got)
				}
				if got, ok := hdr["X-Apcc-Cache"]; ok {
					t.Fatalf("%s/%s block %d: X-Apcc-Cache %q; the header is gone", name, codec, id, got)
				}
			}
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		url  string
		want int
	}{
		{"/v1/pack/nosuch", http.StatusNotFound},
		{"/v1/pack/fir?codec=nosuch", http.StatusBadRequest},
		// The workload is checked before the codec.
		{"/v1/pack/nosuch?codec=nosuch", http.StatusNotFound},
		{"/v1/block/nosuch/0", http.StatusNotFound},
		{"/v1/block/fir/9999", http.StatusNotFound},
		{"/v1/block/fir/banana", http.StatusNotFound},
		{"/nosuch", http.StatusNotFound},
	}
	for _, c := range cases {
		code, _, _ := get(t, ts.Client(), ts.URL+c.url)
		if code != c.want {
			t.Errorf("%s: status %d, want %d", c.url, code, c.want)
		}
	}
}

func TestFailedBuildsAreNotCached(t *testing.T) {
	s, ts := newTestServer(t)
	for i := 0; i < 20; i++ {
		code, _, _ := get(t, ts.Client(), fmt.Sprintf("%s/v1/pack/bogus-%d", ts.URL, i))
		if code != http.StatusNotFound {
			t.Fatalf("bogus workload: status %d", code)
		}
	}
	s.mu.Lock()
	n := len(s.entries)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d failed entries retained, want 0", n)
	}
	// A good request after failures must still work.
	if code, _, _ := get(t, ts.Client(), ts.URL+"/v1/pack/fir?codec=lzss"); code != http.StatusOK {
		t.Fatalf("good request after failures: status %d", code)
	}
}

// metricsCSV fetches /metrics?format=csv and returns series -> value
// for the metrics table's two-column rows.
func metricsCSV(t *testing.T, client *http.Client, base string) map[string]string {
	t.Helper()
	code, body, _ := get(t, client, base+"/metrics?format=csv")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	out := make(map[string]string)
	for _, tbl := range strings.Split(string(body), "\n\n") {
		r := csv.NewReader(strings.NewReader(tbl))
		r.FieldsPerRecord = -1
		recs, err := r.ReadAll()
		if err != nil {
			t.Fatalf("metrics csv: %v", err)
		}
		for _, rec := range recs {
			if len(rec) == 2 && rec[0] != "series" {
				out[rec[0]] = rec[1]
			}
		}
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// Generate traffic: two block fetches and one error.
	get(t, ts.Client(), ts.URL+"/v1/block/sha/0?codec=lzss")
	get(t, ts.Client(), ts.URL+"/v1/block/sha/0?codec=lzss")
	get(t, ts.Client(), ts.URL+"/v1/pack/nosuch") // one error

	m := metricsCSV(t, ts.Client(), ts.URL)
	checks := []struct {
		key string
		ok  func(float64) bool
	}{
		{"apcc_http_requests_total", func(v float64) bool { return v >= 3 }},
		{"apcc_http_errors_total", func(v float64) bool { return v >= 1 }},
		{"apcc_blocks_served_total", func(v float64) bool { return v == 2 }},
	}
	for _, c := range checks {
		raw, ok := m[c.key]
		if !ok {
			t.Errorf("metrics missing %q (have %v)", c.key, m)
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || !c.ok(v) {
			t.Errorf("%s = %q, predicate failed", c.key, raw)
		}
	}

	// The aligned-text rendering must carry the lzss latency and entry
	// memory rows, and no block cache.
	code, body, _ := get(t, ts.Client(), ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), `apcc_block_serve_seconds{codec="lzss"}`) ||
		!strings.Contains(string(body), `apcc_entry_resident_bytes{codec="lzss"}`) || !strings.Contains(string(body), "lzss") ||
		strings.Contains(string(body), "block cache") {
		t.Errorf("text metrics tables wrong:\n%s", body)
	}
}

func TestListEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	code, body, _ := get(t, ts.Client(), ts.URL+"/v1/workloads")
	if code != http.StatusOK || !strings.Contains(string(body), "crc32") {
		t.Fatalf("workloads: %d\n%s", code, body)
	}
	code, body, _ = get(t, ts.Client(), ts.URL+"/v1/codecs")
	if code != http.StatusOK || !strings.Contains(string(body), "dict") {
		t.Fatalf("codecs: %d\n%s", code, body)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	if numBuckets != len(histBounds)+1 {
		t.Fatalf("numBuckets = %d, want len(histBounds)+1 = %d", numBuckets, len(histBounds)+1)
	}
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 0; i < 90; i++ {
		h.Observe(histBounds[0] / 2) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(histBounds[len(histBounds)-1] * 3) // overflow bucket
	}
	// Interpolated p50: rank ceil(0.5*100)=50 lands in the first bucket
	// [0, histBounds[0]] holding 90 observations, 50/90 of the way up.
	wantP50 := time.Duration(float64(50) / 90 * float64(histBounds[0]))
	if got := h.Quantile(0.5); got != wantP50 {
		t.Errorf("p50 = %v, want interpolated %v", got, wantP50)
	}
	// The raw bucket upper bound would overstate it by a full bucket.
	if got := h.Quantile(0.5); got >= histBounds[0] {
		t.Errorf("p50 = %v not interpolated below bucket bound %v", got, histBounds[0])
	}
	// A quantile landing in the overflow bucket must report the largest
	// overflow observation actually seen — clamping to the last bound
	// (1s) would silently understate a 3s tail.
	slow := histBounds[len(histBounds)-1] * 3
	if got := h.Quantile(0.99); got != slow {
		t.Errorf("p99 = %v, want overflow max %v", got, slow)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}

	// Small-n boundary: 9 fast + 1 slow, the p99 observation IS the
	// slow one (rank must be ceil(q*n), not floor).
	var h2 Histogram
	for i := 0; i < 9; i++ {
		h2.Observe(histBounds[0] / 2)
	}
	h2.Observe(slow)
	if got := h2.Quantile(0.99); got != slow {
		t.Errorf("small-n p99 = %v, want overflow max %v", got, slow)
	}
	// The overflow max tracks the largest observation, not the latest.
	h2.Observe(2 * time.Second)
	if got := h2.Quantile(0.999); got != slow {
		t.Errorf("p99.9 after smaller overflow = %v, want %v", got, slow)
	}

	// Interior bucket interpolation: 4 observations land in the
	// 25µs..50µs bucket; p50 rank 2 sits 2/4 through its 25µs width.
	var h3 Histogram
	for i := 0; i < 4; i++ {
		h3.Observe(30 * time.Microsecond)
	}
	want := 25*time.Microsecond + time.Duration(0.5*float64(25*time.Microsecond))
	if got := h3.Quantile(0.5); got != want {
		t.Errorf("interior p50 = %v, want %v", got, want)
	}
}

// discardWriter is a ResponseWriter that keeps its headers and drops
// the body, so a request served through Handler() in process costs
// only the server's own work.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestBlockGetAllocs pins the allocations of an untraced block GET
// through Handler(): the handler parses the query once for both the
// codec and the word check, and sends four headers, the CRC formatted
// without fmt.
func TestBlockGetAllocs(t *testing.T) {
	s, err := New(Config{TraceRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/block/crc32/1?codec=dict", nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // build the entry
	if got := w.h.Get(HeaderCodec); got != "dict" {
		t.Fatalf("%s = %q, want dict", HeaderCodec, got)
	}
	allocs := testing.AllocsPerRun(200, func() {
		clear(w.h)
		h.ServeHTTP(w, req)
	})
	// 12 with one parse; each extra r.URL.Query() call costs 3 more.
	if allocs > 12 {
		t.Errorf("block GET makes %v allocations, want at most 12", allocs)
	}
}

// TestWordGetAllocs pins the allocations of an untraced word GET
// through Handler(), beside TestBlockGetAllocs: a two-word span
// of fft block 3 under each group-decoding codec, decoded from the
// resident container into a scratch buffer sized to the word groups
// it decodes.
func TestWordGetAllocs(t *testing.T) {
	s, err := New(Config{TraceRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, codec := range []string{"dict", "bdi", "cpack"} {
		req := httptest.NewRequest(http.MethodGet, "/v1/block/fft/3?codec="+codec+"&word=1&words=2", nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, req) // build the entry
		if got := w.h.Get(HeaderWords); got != "2" {
			t.Fatalf("%s: %s = %q, want 2", codec, HeaderWords, got)
		}
		allocs := testing.AllocsPerRun(200, func() {
			clear(w.h)
			h.ServeHTTP(w, req)
		})
		// The decode allocates only its scratch buffer: it fills it
		// with the decoder the first read built.
		if allocs > 16 {
			t.Errorf("%s word GET makes %v allocations, want at most 16", codec, allocs)
		}
	}
}

// TestContainerResponsesDeclareLength: GET /v1/pack/{workload} and POST
// /v1/pack declare their container's length, so a container over
// net/http's 2 KiB response buffer is not sent chunked.
func TestContainerResponsesDeclareLength(t *testing.T) {
	_, ts := newTestServer(t)
	longest := 0
	check := func(what string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", what, resp.StatusCode, err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d and transfer encoding %v for a %d-byte container",
				what, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		longest = max(longest, len(body))
	}
	for _, name := range workloads.Names() {
		resp, err := ts.Client().Get(ts.URL + "/v1/pack/" + name + "?codec=identity")
		check("GET "+name, resp, err)
	}
	for i, src := range workloads.GeneratedAssembly(1, 4) {
		resp, err := ts.Client().Post(ts.URL+"/v1/pack?codec=identity", "text/plain", strings.NewReader(src))
		check(fmt.Sprintf("POST gen%d", i), resp, err)
	}
	if longest <= 2048 {
		t.Fatalf("the longest container is %d bytes: none would have been chunked", longest)
	}
}
