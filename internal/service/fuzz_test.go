package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// fuzzAsm is the body of every fuzzed POST: a valid program, so only
// the query decides the outcome.
const fuzzAsm = "start: addi r1, r0, 10\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n"

// surfaceRequest builds a request by hand, because httptest.NewRequest
// panics on a target it cannot parse and a fuzzed raw query often is
// one. The path segments arrive escaped, as on the wire, and the mux
// unescapes them.
func surfaceRequest(method, path, rawPath, query, body string) *http.Request {
	return &http.Request{
		Method:        method,
		URL:           &url.URL{Path: path, RawPath: rawPath, RawQuery: query},
		Header:        http.Header{},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
	}
}

// FuzzRequestSurface drives the request surface a client controls: the
// workload and block id path values and the raw query (codec, word,
// words, name) of a block GET, a container GET and an assembly POST,
// all through Handler. Bad input must get a 4xx, never a panic or a
// 5xx.
func FuzzRequestSurface(f *testing.F) {
	for _, seed := range [][3]string{
		{"fft", "3", "codec=dict"},
		{"crc32", "1", "codec=bdi&word=1&words=2"},
		{"fft", "0", "codec=rl%65"}, // the deleted rle codec, percent-encoded
		{"sha", "0", "codec=cpack&word=0&words=99999999999999999999"},
		{"fft", "0", "codec=lzss&word=1&words=2"},
		{"fft", "-1", "codec=dict"},
		{"fft", "007", "codec=identity&word=-3&words=1"},
		{"fft", "18446744073709551617", "codec=huffman&word=1"},
		{"nosuch", "0", "codec=dict&name=%zz;x"},
		{"../fft", "0/1", "codec=&codec=dict"},
		{"", "", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	s, err := New(Config{Workers: 2, QueueDepth: 64})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, workload, id, query string) {
		block := "/v1/block/" + workload + "/" + id
		container := "/v1/pack/" + workload
		for _, r := range []*http.Request{
			surfaceRequest("GET", block, "/v1/block/"+url.PathEscape(workload)+"/"+url.PathEscape(id), query, ""),
			surfaceRequest("GET", container, "/v1/pack/"+url.PathEscape(workload), query, ""),
			surfaceRequest("POST", "/v1/pack", "", query, fuzzAsm),
		} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code >= 500 {
				t.Fatalf("%s %s?%s: status %d: %s", r.Method, r.URL.EscapedPath(), query, w.Code, w.Body)
			}
		}
	})
}
