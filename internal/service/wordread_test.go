package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"apbcc/internal/faults"
	"apbcc/internal/isa"
	"apbcc/internal/pack"
	"apbcc/internal/store"
)

// wordURL builds a word-read request URL.
func wordURL(base, workload string, id int, codec string, word, nwords int) string {
	return fmt.Sprintf("%s/v1/block/%s/%d?codec=%s&word=%d&words=%d", base, workload, id, codec, word, nwords)
}

// TestWordReadServesSpan is the serving-path acceptance pin: with the
// disk tier attached, ?word=W&words=N must return exactly the plain
// span's bytes, marked as served through the store's group directory,
// and the l2-word-read stage must reach the Prometheus exposition.
func TestWordReadServesSpan(t *testing.T) {
	s, ts := newTestServerConfig(t, storeConfig(t.TempDir()))
	code, container, _ := get(t, ts.Client(), ts.URL+"/v1/pack/fft?codec=dict")
	if code != http.StatusOK {
		t.Fatalf("pack: status %d", code)
	}
	s.persistWG.Wait() // the store object attaches after the async persist

	prog, _, _, err := pack.Unpack("fft", container)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.AllBlockBytes()
	if err != nil {
		t.Fatal(err)
	}
	for id := range want {
		blockWords := len(want[id]) / isa.WordSize
		for _, span := range [][2]int{{0, 1}, {blockWords / 2, 1}, {blockWords - 1, 1}, {0, blockWords}, {1, blockWords - 1}} {
			word, nwords := span[0], span[1]
			if word < 0 || nwords < 1 || word+nwords > blockWords {
				continue
			}
			code, body, hdr := get(t, ts.Client(), wordURL(ts.URL, "fft", id, "dict", word, nwords))
			if code != http.StatusOK {
				t.Fatalf("block %d word %d+%d: status %d", id, word, nwords, code)
			}
			wantSpan := want[id][word*isa.WordSize : (word+nwords)*isa.WordSize]
			if !bytes.Equal(body, wantSpan) {
				t.Fatalf("block %d word %d+%d: span bytes differ", id, word, nwords)
			}
			if got := hdr.Get(HeaderSource); got != "store" {
				t.Fatalf("block %d word %d+%d: source %q, want store", id, word, nwords, got)
			}
			if got := hdr.Get(HeaderCRC); got != fmt.Sprintf("%08x", crc32.ChecksumIEEE(wantSpan)) {
				t.Fatalf("block %d word %d+%d: CRC header %q mismatch", id, word, nwords, got)
			}
			if got := hdr.Get(HeaderCache); got != "bypass" {
				t.Fatalf("word read cache header %q, want bypass", got)
			}
		}
	}
	if got := s.Metrics().StoreWordReads.Load(); got == 0 {
		t.Fatal("no word reads went through the store path")
	}
	if got := s.Metrics().WordFallbacks.Load(); got != 0 {
		t.Fatalf("word fallbacks = %d, want 0 (object attached, codec group-capable)", got)
	}
	if st := s.Store().Stats(); st.WordReads == 0 || st.WordReadBytes == 0 {
		t.Fatalf("store word-read counters not advanced: %+v", st)
	}

	// The trace stage and the counters must surface in the exposition.
	code, prom, _ := get(t, ts.Client(), ts.URL+"/metrics/prom")
	if code != http.StatusOK {
		t.Fatalf("/metrics/prom: status %d", code)
	}
	for _, needle := range []string{`stage="l2-word-read"`, "apcc_store_word_reads_total", `apcc_word_reads_total{source="store"}`} {
		if !bytes.Contains(prom, []byte(needle)) {
			t.Errorf("/metrics/prom missing %q", needle)
		}
	}
}

// TestWordReadDoesNotTouchL1 pins the cache-admission rule: word reads
// must neither admit to nor read from the L1 block cache — a
// word-scanning client must not evict the full-block working set.
func TestWordReadDoesNotTouchL1(t *testing.T) {
	s, ts := newTestServerConfig(t, storeConfig(t.TempDir()))
	code, _, _ := get(t, ts.Client(), ts.URL+"/v1/pack/fft?codec=dict")
	if code != http.StatusOK {
		t.Fatalf("pack: status %d", code)
	}
	s.persistWG.Wait()
	before := s.CacheStats()
	s.mu.Lock()
	nblocks := len(s.entries[store.RefName("fft", "dict")].blocks)
	s.mu.Unlock()
	for id := 0; id < nblocks; id++ {
		if code, _, _ := get(t, ts.Client(), wordURL(ts.URL, "fft", id, "dict", 0, 1)); code != http.StatusOK {
			t.Fatalf("block %d: status %d", id, code)
		}
	}
	if after := s.CacheStats(); after != before {
		t.Fatalf("word reads touched the L1 cache: before %+v, after %+v", before, after)
	}
}

// TestWordReadMemoryFallback: entropy codecs have no group directory,
// so word reads serve from the entry's in-memory image — still correct,
// marked "memory", and counted as fallbacks.
func TestWordReadMemoryFallback(t *testing.T) {
	s, ts := newTestServerConfig(t, storeConfig(t.TempDir()))
	code, container, _ := get(t, ts.Client(), ts.URL+"/v1/pack/fft?codec=huffman")
	if code != http.StatusOK {
		t.Fatalf("pack: status %d", code)
	}
	s.persistWG.Wait()
	prog, _, _, err := pack.Unpack("fft", container)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.AllBlockBytes()
	if err != nil {
		t.Fatal(err)
	}
	code, body, hdr := get(t, ts.Client(), wordURL(ts.URL, "fft", 0, "huffman", 2, 3))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !bytes.Equal(body, want[0][2*isa.WordSize:5*isa.WordSize]) {
		t.Fatal("fallback span bytes differ")
	}
	if got := hdr.Get(HeaderSource); got != "memory" {
		t.Fatalf("source %q, want memory", got)
	}
	if got := s.Metrics().WordFallbacks.Load(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
	if got := s.Metrics().StoreWordReads.Load(); got != 0 {
		t.Fatalf("store word reads = %d, want 0 for an entropy codec", got)
	}
}

// TestWordReadBadRange: malformed or out-of-bounds word parameters are
// client errors, not server faults.
func TestWordReadBadRange(t *testing.T) {
	_, ts := newTestServerConfig(t, Config{CacheShards: 2, CacheBytes: 1 << 20, Workers: 2, QueueDepth: 16, MaxBatch: 4})
	for _, q := range []string{
		"word=abc", "word=-1", "word=0&words=0", "word=0&words=-2",
		"word=0&words=999999", "word=999999", "word=0&words=abc",
	} {
		code, _, _ := get(t, ts.Client(), ts.URL+"/v1/block/fft/0?codec=dict&"+q)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
}

// TestRunLoadWordReadScenario drives the loadgen wordread mix end to
// end: a store-backed server, half the fetches as zipf word reads, all
// verified client-side, and every JSONL row of a word read carrying
// its requested span.
func TestRunLoadWordReadScenario(t *testing.T) {
	s, ts := newTestServerConfig(t, storeConfig(t.TempDir()))
	if code, _, _ := get(t, ts.Client(), ts.URL+"/v1/pack/fft?codec=dict"); code != http.StatusOK {
		t.Fatalf("pack: status %d", code)
	}
	s.persistWG.Wait() // attach the store object before the run
	var jsonl bytes.Buffer
	stats, err := RunLoad(context.Background(), LoadConfig{
		BaseURL: ts.URL, Workload: "fft", Codec: "dict",
		Clients: 2, Steps: 60, Seed: 3, WordFrac: 0.5,
		Client: ts.Client(), TraceOut: &jsonl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 {
		t.Fatalf("wordread run saw %d errors; first: %v", stats.Errors, stats.FirstError)
	}
	if stats.WordReads == 0 || stats.WordReads == stats.Requests {
		t.Fatalf("word reads = %d of %d requests, want a mix", stats.WordReads, stats.Requests)
	}
	if got := s.Metrics().StoreWordReads.Load(); got == 0 {
		t.Fatal("no word read went through the store's group directory")
	}
	var wordRows, spanStages int
	for dec := json.NewDecoder(&jsonl); dec.More(); {
		var rec FetchRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.Words > 0 {
			wordRows++
			if _, ok := rec.Stages["l2-word-read"]; ok {
				spanStages++
			}
		}
	}
	if int64(wordRows) != stats.WordReads {
		t.Fatalf("JSONL word rows = %d, stats.WordReads = %d", wordRows, stats.WordReads)
	}
	if spanStages == 0 {
		t.Fatal("no word-read row carried the l2-word-read stage")
	}
}

// TestWordReadTransientErrorNoQuarantine is the regression for the
// word path's error triage: a transient store hiccup must cost the
// request the store path (fall back to the in-memory image), never
// the entry its healthy object — only corrupt bytes quarantine, the
// same taxonomy the block path follows.
func TestWordReadTransientErrorNoQuarantine(t *testing.T) {
	resetFaults(t)
	s, ts := newTestServerConfig(t, storeConfig(t.TempDir()))
	if code, _, _ := get(t, ts.Client(), ts.URL+"/v1/pack/fft?codec=dict"); code != http.StatusOK {
		t.Fatalf("pack: status %d", code)
	}
	s.persistWG.Wait()
	if err := faults.Set("store.read-at:p=1,err,n=1"); err != nil {
		t.Fatal(err)
	}
	code, _, hdr := get(t, ts.Client(), wordURL(ts.URL, "fft", 0, "dict", 0, 1))
	if code != http.StatusOK {
		t.Fatalf("word read under transient fault: status %d", code)
	}
	if got := hdr.Get(HeaderSource); got != "memory" {
		t.Fatalf("source %q, want memory fallback", got)
	}
	if got := s.Store().Stats().Quarantined; got != 0 {
		t.Fatalf("quarantined = %d, want 0 — transient is not corrupt", got)
	}
	// The object stayed attached: with the n=1 fault spent, the next
	// word read goes through the store's group directory again.
	if _, _, hdr = get(t, ts.Client(), wordURL(ts.URL, "fft", 0, "dict", 0, 1)); hdr.Get(HeaderSource) != "store" {
		t.Fatalf("source after fault spent = %q, want store (object still attached)", hdr.Get(HeaderSource))
	}
}

// TestWordReadCrossCheckQuarantines: when the on-disk object rots, the
// word path's cross-check against the entry's image must catch it,
// quarantine the object, and serve the correct bytes from memory.
func TestWordReadCrossCheckQuarantines(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServerConfig(t, storeConfig(dir))
	code, container, _ := get(t, ts.Client(), ts.URL+"/v1/pack/crc32?codec=dict")
	if code != http.StatusOK {
		t.Fatalf("pack: status %d", code)
	}
	s.persistWG.Wait()
	key, ok := s.Store().Ref(store.RefName("crc32", "dict"))
	if !ok {
		t.Fatal("no ref after persist")
	}
	path := filepath.Join(dir, "objects", key[:2], key)
	mut := bytes.Clone(container)
	mut[len(mut)-1] ^= 0xff // last block's payload bytes
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	prog, _, _, err := pack.Unpack("crc32", container)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.AllBlockBytes()
	if err != nil {
		t.Fatal(err)
	}
	last := len(want) - 1
	nwords := len(want[last]) / isa.WordSize
	code, body, hdr := get(t, ts.Client(), wordURL(ts.URL, "crc32", last, "dict", 0, nwords))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !bytes.Equal(body, want[last]) {
		t.Fatal("corrupt store leaked wrong bytes to a word read")
	}
	if got := hdr.Get(HeaderSource); got != "memory" {
		t.Fatalf("source %q, want memory after quarantine", got)
	}
	if st := s.Store().Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	// The detached object stays detached: later word reads fall back.
	if _, _, hdr = get(t, ts.Client(), wordURL(ts.URL, "crc32", last, "dict", 0, 1)); hdr.Get(HeaderSource) != "memory" {
		t.Fatal("quarantined object served a later word read")
	}
}
