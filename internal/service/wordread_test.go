package service

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/faults"
	"apbcc/internal/isa"
	"apbcc/internal/pack"
	"apbcc/internal/program"
	"apbcc/internal/store"
	"apbcc/internal/workloads"
)

// wordURL builds a word-read request URL.
func wordURL(base, workload string, id int, codec string, word, nwords int) string {
	return fmt.Sprintf("%s/v1/block/%s/%d?codec=%s&word=%d&words=%d", base, workload, id, codec, word, nwords)
}

// bigBlockProgram synthesizes a straight-line program whose blocks have
// the given word counts: 4096 words makes a production-sized 16 KiB
// block, far above the suite's.
func bigBlockProgram(tb testing.TB, blockWords ...int) *program.Program {
	tb.Helper()
	g := cfg.New()
	ids := make([]cfg.BlockID, len(blockWords))
	for i, words := range blockWords {
		ids[i] = g.AddBlock(fmt.Sprintf("b%d", i), words)
	}
	if err := g.SetEntry(ids[0]); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i+1 < len(ids); i++ {
		g.MustAddEdge(ids[i], ids[i+1], cfg.EdgeJump, 1)
	}
	prog, err := program.Synthesize("bigblocks", g, 42)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// addEntry packs prog under codecName and installs the verified
// container as the server's (prog.Name, codecName) entry, the way a
// build does, returning the entry, its unpacked block images and codec.
func addEntry(tb testing.TB, s *Server, prog *program.Program, codecName string) (*entry, [][]byte, compress.Codec) {
	tb.Helper()
	code, err := prog.CodeBytes()
	if err != nil {
		tb.Fatal(err)
	}
	c, err := compress.New(codecName, code)
	if err != nil {
		tb.Fatal(err)
	}
	container, err := pack.Pack(prog, c)
	if err != nil {
		tb.Fatal(err)
	}
	up, codec, info, err := pack.Unpack(prog.Name, container)
	if err != nil {
		tb.Fatal(err)
	}
	ent := &entry{ready: make(chan struct{})}
	s.finishEntry(ent, container, info)
	close(ent.ready)
	s.mu.Lock()
	s.entries[store.RefName(prog.Name, codecName)] = ent
	s.mu.Unlock()
	want, err := up.AllBlockBytes()
	if err != nil {
		tb.Fatal(err)
	}
	return ent, want, codec
}

// TestWordReadServesSpan is the serving-path acceptance pin:
// ?word=W&words=N must return exactly the plain span's bytes, decoded
// from the resident container even with a store configured, and the
// decode stage and the word counters must reach the Prometheus
// exposition.
func TestWordReadServesSpan(t *testing.T) {
	s, ts := newTestServerConfig(t, storeConfig(t.TempDir()))
	want, _ := unpackedBlocks(t, ts, "fft", "dict")
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
			if got := hdr.Get(HeaderCRC); got != fmt.Sprintf("%08x", crc32.ChecksumIEEE(wantSpan)) {
				t.Fatalf("block %d word %d+%d: CRC header %q mismatch", id, word, nwords, got)
			}
			for _, gone := range []string{"X-Apcc-Cache", "X-Apcc-Source"} {
				if got, ok := hdr[gone]; ok {
					t.Fatalf("word read carries %s %q; the header is gone", gone, got)
				}
			}
		}
	}
	if got := s.Metrics().WordReads.Load(); got == 0 {
		t.Fatal("no word read counted")
	}
	if st := s.Store().Stats(); st.Gets != 0 || st.BlockReads != 0 {
		t.Fatalf("word reads read the store: %+v", st)
	}

	code, prom, _ := get(t, ts.Client(), ts.URL+"/metrics/prom")
	if code != http.StatusOK {
		t.Fatalf("/metrics/prom: status %d", code)
	}
	for _, needle := range []string{`stage="decode"`, "apcc_word_reads_total ",
		"apcc_word_groups_decoded_total ", "apcc_word_decoded_bytes_total "} {
		if !bytes.Contains(prom, []byte(needle)) {
			t.Errorf("/metrics/prom missing %q", needle)
		}
	}
	for _, gone := range []string{`stage="l2-word-read"`, "apcc_store_word_read", `source="`} {
		if bytes.Contains(prom, []byte(gone)) {
			t.Errorf("/metrics/prom still carries %q", gone)
		}
	}
}

// TestWordReadMemoryFallback: entropy codecs have no group directory,
// so a word read decodes the entry's whole resident block — still
// correct, and counted as the block's whole payload with no groups.
func TestWordReadMemoryFallback(t *testing.T) {
	s, ts := newTestServerConfig(t, storeConfig(t.TempDir()))
	code, container, _ := get(t, ts.Client(), ts.URL+"/v1/pack/fft?codec=huffman")
	if code != http.StatusOK {
		t.Fatalf("pack: status %d", code)
	}
	idx, err := pack.ParseIndex(container)
	if err != nil {
		t.Fatal(err)
	}
	if idx.HasGroupIndex() {
		t.Fatal("huffman container carries a group directory")
	}
	prog, _, _, err := pack.Unpack("fft", container)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.AllBlockBytes()
	if err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, ts.Client(), wordURL(ts.URL, "fft", 0, "huffman", 2, 3))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !bytes.Equal(body, want[0][2*isa.WordSize:5*isa.WordSize]) {
		t.Fatal("whole-block decode span bytes differ")
	}
	m := s.Metrics()
	if groups, decoded := m.WordGroups.Load(), m.WordDecodedBytes.Load(); groups != 0 || decoded != idx.Blocks[0].Len {
		t.Fatalf("groups %d, decoded bytes %d; want 0 and block 0's %d payload bytes", groups, decoded, idx.Blocks[0].Len)
	}
}

// TestWordReadBadRange: malformed or out-of-bounds word parameters are
// client errors, not server faults.
func TestWordReadBadRange(t *testing.T) {
	_, ts := newTestServerConfig(t, Config{Workers: 2, QueueDepth: 16})
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

// TestWordReadTransientErrorNoQuarantine: an injected compress.decode
// fault reaches every word read, on the group path and the whole-block
// path alike, as a 503 the client may retry. Block reads decode nothing
// and keep serving the right bytes, nothing is quarantined, and once
// the fault clears the same word reads return the pack.Unpack bytes.
func TestWordReadTransientErrorNoQuarantine(t *testing.T) {
	resetFaults(t)
	s, ts := newTestServerConfig(t, storeConfig(t.TempDir()))
	codecs := []string{"dict", "lzss"}
	want := map[string][][]byte{}
	oracle := map[string]compress.Codec{}
	for _, c := range codecs {
		want[c], oracle[c] = unpackedBlocks(t, ts, "fft", c)
	}
	if err := faults.Set("compress.decode:p=1,err"); err != nil {
		t.Fatal(err)
	}
	for _, c := range codecs {
		code, body, _ := get(t, ts.Client(), wordURL(ts.URL, "fft", 3, c, 1, 2))
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s word read under a decode fault: %d %s, want 503", c, code, body)
		}
		code, body, hdr := get(t, ts.Client(), fmt.Sprintf("%s/v1/block/fft/3?codec=%s", ts.URL, c))
		if code != http.StatusOK {
			t.Fatalf("%s block read under a decode fault: %d %s", c, code, body)
		}
		if err := verifyBlock(oracle[c], body, hdr, want[c][3]); err != nil {
			t.Fatalf("%s block read under a decode fault: %v", c, err)
		}
	}
	if got := faults.InjectedTotal(faults.KindTransient); got != int64(len(codecs)) {
		t.Fatalf("transient faults injected = %d, want one per word read", got)
	}
	if got := s.Store().Stats().Quarantined; got != 0 {
		t.Fatalf("quarantined = %d, want 0 — transient is not corrupt", got)
	}
	faults.Reset()
	for _, c := range codecs {
		code, body, _ := get(t, ts.Client(), wordURL(ts.URL, "fft", 3, c, 1, 2))
		if code != http.StatusOK || !bytes.Equal(body, want[c][3][isa.WordSize:3*isa.WordSize]) {
			t.Fatalf("%s word read after the fault cleared: status %d, bytes equal %v",
				c, code, bytes.Equal(body, want[c][3][isa.WordSize:3*isa.WordSize]))
		}
	}
}

// TestWordDecodeCounters: word reads advance the decode counters by
// exactly what they decode — the covering groups' compressed span per
// the container's own group directory, or the whole payload for a codec
// without one — and the store's word counters by the same spans and
// bytes.
func TestWordDecodeCounters(t *testing.T) {
	s, ts := newTestServerConfig(t, storeConfig(t.TempDir()))
	var wantReads, wantGroups, wantBytes int64
	for _, c := range []string{"dict", "bdi", "cpack", "lzss"} {
		code, container, _ := get(t, ts.Client(), ts.URL+"/v1/pack/fft?codec="+c)
		if code != http.StatusOK {
			t.Fatalf("%s: pack status %d", c, code)
		}
		idx, err := pack.ParseIndex(container)
		if err != nil {
			t.Fatal(err)
		}
		if grouped := c != "lzss"; idx.HasGroupIndex() != grouped {
			t.Fatalf("%s: group directory %v, want %v", c, idx.HasGroupIndex(), grouped)
		}
		for id, e := range idx.Blocks {
			for _, span := range [][2]int{{0, 1}, {e.Words / 2, 2}, {e.Words - 1, 1}, {0, e.Words}} {
				word, nwords := span[0], min(span[1], e.Words-span[0])
				if code, _, _ := get(t, ts.Client(), wordURL(ts.URL, "fft", id, c, word, nwords)); code != http.StatusOK {
					t.Fatalf("%s block %d word %d+%d: status %d", c, id, word, nwords, code)
				}
				wantReads++
				if !idx.HasGroupIndex() {
					wantBytes += e.Len
					continue
				}
				start, end := idx.WordGroupSpan(id, word, nwords)
				wantBytes += end - start
				wantGroups += int64((word+nwords-1)/idx.GroupWords - word/idx.GroupWords + 1)
			}
		}
	}
	m := s.Metrics()
	if got := m.WordGroups.Load(); got != wantGroups {
		t.Errorf("word groups decoded = %d, want %d", got, wantGroups)
	}
	if got := m.WordDecodedBytes.Load(); got != wantBytes {
		t.Errorf("word decoded bytes = %d, want %d", got, wantBytes)
	}
	if got := m.WordReads.Load(); got != wantReads {
		t.Errorf("word reads = %d, want %d", got, wantReads)
	}
	if st := s.Store().Stats(); st.WordReads != wantReads || st.WordReadBytes != wantBytes {
		t.Errorf("store word counters: reads %d, bytes %d; want %d, %d", st.WordReads, st.WordReadBytes, wantReads, wantBytes)
	}
	csv := metricsCSV(t, ts.Client(), ts.URL)
	if csv["apcc_word_groups_decoded_total"] != fmt.Sprint(wantGroups) || csv["apcc_word_decoded_bytes_total"] != fmt.Sprint(wantBytes) {
		t.Errorf("/metrics rows: groups %q, bytes %q; want %d, %d",
			csv["apcc_word_groups_decoded_total"], csv["apcc_word_decoded_bytes_total"], wantGroups, wantBytes)
	}
	_, prom, _ := get(t, ts.Client(), ts.URL+"/metrics/prom")
	for _, line := range []string{
		fmt.Sprintf("apcc_word_groups_decoded_total %d\n", wantGroups),
		fmt.Sprintf("apcc_word_decoded_bytes_total %d\n", wantBytes),
	} {
		if !bytes.Contains(prom, []byte(line)) {
			t.Errorf("/metrics/prom lacks %q", strings.TrimSpace(line))
		}
	}
}

// TestWordSpansMatchUnpack pins that no word span's bytes change with
// the path that decodes them: through Handler(), every suite program
// under every codec, every block, every start word and 1..4 words
// (clipped to the block) must equal the same slice of the pack.Unpack
// image, with that slice's CRC in X-Apcc-Crc32. A program of 16 KiB
// blocks, the last one short, adds spans at every word-group edge of
// the group codecs: a group's first and last word, the whole group,
// and spans crossing one and two group boundaries.
func TestWordSpansMatchUnpack(t *testing.T) {
	s, err := New(Config{Workers: 2, TraceRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	check := func(workload, codec string, id, word, nwords int, img []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, wordURL("", workload, id, codec, word, nwords), nil))
		span := img[word*isa.WordSize : (word+nwords)*isa.WordSize]
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), span) {
			t.Fatalf("%s/%s block %d word %d+%d: status %d, bytes equal %v",
				workload, codec, id, word, nwords, rec.Code, bytes.Equal(rec.Body.Bytes(), span))
		}
		if got, want := rec.Header().Get(HeaderCRC), fmt.Sprintf("%08x", crc32.ChecksumIEEE(span)); got != want {
			t.Fatalf("%s/%s block %d word %d+%d: %s %s, want %s", workload, codec, id, word, nwords, HeaderCRC, got, want)
		}
	}
	for _, name := range workloads.Names() {
		for _, codec := range compress.Names() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/pack/"+name+"?codec="+codec, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s/%s: pack status %d", name, codec, rec.Code)
			}
			prog, _, _, err := pack.Unpack(name, rec.Body.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			want, err := prog.AllBlockBytes()
			if err != nil {
				t.Fatal(err)
			}
			for id, img := range want {
				words := len(img) / isa.WordSize
				for word := 0; word < words; word++ {
					for nwords := 1; nwords <= 4 && word+nwords <= words; nwords++ {
						check(name, codec, id, word, nwords, img)
					}
				}
			}
		}
	}

	big := bigBlockProgram(t, 4096, 4096, 4093)
	for _, codec := range []string{"dict", "bdi", "cpack", "identity"} {
		_, want, c := addEntry(t, s, big, codec)
		gc, ok := compress.AsGroupCodec(c)
		if !ok {
			t.Fatalf("%s decodes no groups", codec)
		}
		gw := gc.GroupWords()
		for id, img := range want {
			words := len(img) / isa.WordSize
			for first := 0; first < words; first += gw {
				last := min(first+gw, words) - 1
				for _, span := range [][2]int{
					{first, 1}, {last, 1}, {first, last - first + 1},
					{last, 2}, {last, gw + 2},
				} {
					if nwords := min(span[1], words-span[0]); nwords > 0 {
						check(big.Name, codec, id, span[0], nwords, img)
					}
				}
			}
		}
	}
}

// TestBlockGetsBuildNoDecoder: only a word read decodes, so only a word
// read builds an entry's decoder. After GET /v1/pack and a GET of every
// block under every codec, no entry holds one.
func TestBlockGetsBuildNoDecoder(t *testing.T) {
	s, ts := newTestServer(t)
	for _, codec := range compress.Names() {
		want, _ := unpackedBlocks(t, ts, "fft", codec)
		for id := range want {
			if code, _, _ := get(t, ts.Client(), fmt.Sprintf("%s/v1/block/fft/%d?codec=%s", ts.URL, id, codec)); code != http.StatusOK {
				t.Fatalf("%s block %d: status %d", codec, id, code)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) != len(compress.Names()) {
		t.Fatalf("%d entries, want one per codec", len(s.entries))
	}
	for key, ent := range s.entries {
		if ent.dec.Load() != nil {
			t.Errorf("entry %q holds a decoder without a word read", key)
		}
	}
}

// TestFirstWordReadRace: eight goroutines make the first word reads of
// a fresh entry at once, whole-block (huffman) and group path (cpack)
// alike. Each builds a decoder or takes the one stored first, and
// every response carries the pack.Unpack span.
func TestFirstWordReadRace(t *testing.T) {
	s, err := New(Config{Workers: 2, TraceRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, codec := range []string{"huffman", "cpack"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/pack/fft?codec="+codec, nil))
		prog, _, _, err := pack.Unpack("fft", rec.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		want, err := prog.AllBlockBytes()
		if err != nil {
			t.Fatal(err)
		}
		const readers = 8
		recs := make([]*httptest.ResponseRecorder, readers)
		var wg sync.WaitGroup
		for i := range recs {
			recs[i] = httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, wordURL("", "fft", i%len(want), codec, 0, 2), nil)
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.ServeHTTP(recs[i], req)
			}()
		}
		wg.Wait()
		for i, rec := range recs {
			if span := want[i%len(want)][:2*isa.WordSize]; rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), span) {
				t.Errorf("%s reader %d: status %d, bytes equal %v", codec, i, rec.Code, bytes.Equal(rec.Body.Bytes(), span))
			}
		}
		s.mu.Lock()
		ent := s.entries[store.RefName("fft", codec)]
		s.mu.Unlock()
		if ent.dec.Load() == nil {
			t.Errorf("%s: no decoder after the first word reads", codec)
		}
	}
}

// TestFirstDecoderBuildAllocs pins what a fresh entry's first decoder
// build allocates: it parses only the container's header, whose model
// aliases the container and whose codec name is the registry's, so the
// cost is the codec FromModel rebuilds (at most two allocations:
// huffman's struct and symbols, or dict's struct and words) and the
// slot's value, never the block index.
func TestFirstDecoderBuildAllocs(t *testing.T) {
	s, ts := newTestServer(t)
	for _, codec := range compress.Names() {
		if code, _, _ := get(t, ts.Client(), ts.URL+"/v1/pack/fft?codec="+codec); code != http.StatusOK {
			t.Fatalf("%s: pack status %d", codec, code)
		}
		s.mu.Lock()
		ent := s.entries[store.RefName("fft", codec)]
		s.mu.Unlock()
		allocs := testing.AllocsPerRun(20, func() {
			ent.dec.Store(nil) // fresh: no word read has built one
			if _, err := ent.decoder(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("%s: a first decoder build allocates %v times, want at most 3", codec, allocs)
		}
	}
}
