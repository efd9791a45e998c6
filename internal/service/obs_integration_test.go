package service

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/obs"
	"apbcc/internal/pack"
	"apbcc/internal/store"
	"apbcc/internal/workloads"
)

// promFamilies extracts the "# TYPE name typ" declarations from an
// exposition body, name -> type.
func promFamilies(body string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			out[fields[2]] = fields[3]
		}
	}
	return out
}

// TestPromEndpointValid: after real traffic (including the disk-store
// tier), /metrics/prom passes the exposition linter and carries every
// counter family /metrics shows as tables, plus the per-stage
// attribution histograms.
func TestPromEndpointValid(t *testing.T) {
	_, ts := newTestServerConfig(t, Config{
		Workers: 4, StoreDir: t.TempDir(),
	})
	get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=lzss")
	get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=lzss")
	get(t, ts.Client(), ts.URL+"/v1/pack/nosuch") // error

	code, body, hdr := get(t, ts.Client(), ts.URL+"/metrics/prom")
	if code != http.StatusOK {
		t.Fatalf("prom endpoint: %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	samples, err := obs.LintProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	if samples == 0 {
		t.Fatal("no samples")
	}

	fams := promFamilies(string(body))
	for _, want := range []string{
		"apcc_uptime_seconds", "apcc_http_requests_total", "apcc_http_errors_total",
		"apcc_http_in_flight", "apcc_packs_built_total", "apcc_blocks_served_total",
		"apcc_payload_bytes_total", "apcc_word_reads_total", "apcc_word_groups_decoded_total",
		"apcc_word_decoded_bytes_total", "apcc_entry_resident_bytes", "apcc_entry_plain_bytes",
		"apcc_pool_workers", "apcc_pool_jobs_total", "apcc_pool_in_flight",
		"apcc_verify_unpacks_total", "apcc_verify_unpack_seconds_total",
		"apcc_trace_records_total", "apcc_trace_truncated_total",
		"apcc_store_objects", "apcc_store_refs", "apcc_store_quarantined_total",
		"apcc_block_serve_seconds", "apcc_block_stage_seconds",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	for name, typ := range fams {
		if strings.HasPrefix(name, "apcc_cache_") {
			t.Errorf("block-cache family %s still exposed", name)
		}
		if name == "apcc_block_stage_seconds" && typ != "histogram" {
			t.Errorf("apcc_block_stage_seconds type = %q", typ)
		}
	}
	// The traffic above must have produced stage attribution series.
	for _, want := range []string{
		`apcc_block_stage_seconds_bucket{stage="route",codec="lzss",outcome="ok"`,
		`apcc_block_stage_seconds_bucket{stage="write",codec="lzss",outcome="ok"`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if strings.Contains(string(body), `stage="l1"`) {
		t.Error("exposition carries an l1 stage series")
	}
}

// TestEntryMemoryGauges: /metrics/prom and /metrics report, by codec,
// the memory the built entries hold (container capacity, 16 B per
// layout row, 4 B per group offset, the fixed cost and key of each
// entry, and the decoder of each entry a word read has reached) and the
// plain bytes their containers encode, which must add up to the block
// images pack.Unpack rebuilds from the served containers. A built
// container is held at its exact size.
func TestEntryMemoryGauges(t *testing.T) {
	s, ts := newTestServer(t)
	resident, plain := map[string]int64{}, map[string]int64{}
	for _, codec := range []string{"dict", "huffman"} {
		for _, name := range []string{"fft", "crc32"} {
			code, container, _ := get(t, ts.Client(), ts.URL+"/v1/pack/"+name+"?codec="+codec)
			if code != http.StatusOK {
				t.Fatalf("%s/%s: pack status %d", name, codec, code)
			}
			prog, decoder, _, err := pack.Unpack(name, container)
			if err != nil {
				t.Fatal(err)
			}
			images, err := prog.AllBlockBytes()
			if err != nil {
				t.Fatal(err)
			}
			for _, img := range images {
				plain[codec] += int64(len(img))
			}
			key := store.RefName(name, codec)
			s.mu.Lock()
			ent := s.entries[key]
			s.mu.Unlock()
			if cap(ent.container) != len(container) {
				t.Errorf("%s/%s: entry holds a %d-byte container in %d bytes of capacity", name, codec, len(container), cap(ent.container))
			}
			resident[codec] += entryFixedBytes + int64(len(key)+len(container)+16*len(ent.layout.Blocks)+4*len(ent.layout.Groups))
			if name == "fft" {
				if code, _, _ := get(t, ts.Client(), wordURL(ts.URL, name, 0, codec, 0, 1)); code != http.StatusOK {
					t.Fatalf("%s/%s: word read status %d", name, codec, code)
				}
				resident[codec] += decoderSlotBytes + compress.DecoderBytes(decoder)
			}
		}
	}

	_, body, _ := get(t, ts.Client(), ts.URL+"/metrics/prom")
	tables := metricsCSV(t, ts.Client(), ts.URL)
	if _, ok := tables[`apcc_entry_resident_bytes{codec="dict"}`]; !ok {
		t.Fatalf("/metrics lacks the entry memory rows:\n%v", tables)
	}
	for codec := range resident {
		for family, want := range map[string]int64{
			"apcc_entry_resident_bytes": resident[codec], "apcc_entry_plain_bytes": plain[codec],
		} {
			series := fmt.Sprintf("%s{codec=%q} %d\n", family, codec, want)
			if !bytes.Contains(body, []byte(series)) {
				t.Errorf("exposition lacks %q", series)
			}
			row := fmt.Sprintf("%s{codec=%q}", family, codec)
			if got := tables[row]; got != fmt.Sprint(want) {
				t.Errorf("/metrics row %s = %q, want %d", row, got, want)
			}
		}
	}
}

// TestEntryResidentMatchesHeap: apcc_entry_resident_bytes accounts for
// what the entries hold. Building the l2-miss entry set (every suite
// program under dict, bdi, cpack, lzss and huffman) on a fresh
// untraced server, whose codec histograms already exist, grows the live
// heap by the summed gauge within 10%, both before any word read and
// after one word read per entry has built its decoder.
func TestEntryResidentMatchesHeap(t *testing.T) {
	codecs := []string{"dict", "bdi", "cpack", "lzss", "huffman"}
	newServer := func() *Server {
		s, err := New(Config{TraceRing: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		for _, c := range codecs {
			s.metrics.CodecHist(c)
		}
		return s
	}
	build := func(s *Server, names []string) []*entry {
		var ents []*entry
		for _, name := range names {
			for _, c := range codecs {
				ent, _, err := s.entryFor(context.Background(), name, c)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, c, err)
				}
				ents = append(ents, ent)
			}
		}
		return ents
	}
	buf := make([]byte, 0, 1<<16)
	readWords := func(ents []*entry) {
		for _, ent := range ents {
			if _, _, _, err := ent.decodeWords(buf, 0, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() int64 {
		// Two cycles: the first moves sync.Pool contents to the victim
		// cache, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// State built once per process (CRC tables, lazily filled package
	// tables) belongs to no entry: a throwaway server builds it first.
	readWords(build(newServer(), workloads.Names()[:1]))

	s := newServer()
	base := liveHeap()
	ents := build(s, workloads.Names())
	for _, when := range []string{"built", "after one word read each"} {
		if when != "built" {
			readWords(ents)
		}
		grew := liveHeap() - base
		var gauge int64
		for _, m := range s.memoryByCodec() {
			gauge += m.resident
		}
		if d := gauge - grew; d > grew/10 || -d > grew/10 {
			t.Errorf("%s: resident gauge sums to %d B, live heap grew %d B: off by more than 10%%", when, gauge, grew)
		}
	}
}

// TestMetricsCSVDialect: every table /metrics?format=csv emits parses
// with encoding/csv — rectangular, properly quoted, header first.
func TestMetricsCSVDialect(t *testing.T) {
	_, ts := newTestServerConfig(t, Config{Workers: 2, StoreDir: t.TempDir()})
	get(t, ts.Client(), ts.URL+"/v1/block/sha/0?codec=dict")
	_, body, _ := get(t, ts.Client(), ts.URL+"/metrics?format=csv")

	tables := 0
	for _, chunk := range strings.Split(string(body), "\n\n") {
		chunk = strings.TrimSpace(chunk)
		if chunk == "" {
			continue
		}
		tables++
		r := csv.NewReader(strings.NewReader(chunk))
		recs, err := r.ReadAll()
		if err != nil {
			t.Fatalf("table %d not valid CSV: %v\n%s", tables, err, chunk)
		}
		if len(recs) < 2 {
			t.Errorf("table %d has no data rows:\n%s", tables, chunk)
		}
		for i, rec := range recs[1:] {
			if len(rec) != len(recs[0]) {
				t.Errorf("table %d row %d: %d fields, header has %d", tables, i+1, len(rec), len(recs[0]))
			}
		}
	}
	// metrics and latency.
	if tables != 2 {
		t.Errorf("got %d CSV tables, want 2", tables)
	}
}

// TestMetricsFormatsAgree: /metrics?format=csv and /metrics/prom are
// rendered from one declaration, so they name the same series. Every
// metrics row is a sample line and every latency row a histogram
// series, read from its _count line, with nothing left over on either
// side. Values agree wherever the scrapes themselves do not move them.
func TestMetricsFormatsAgree(t *testing.T) {
	s, ts := newTestServerConfig(t, Config{Workers: 2, StoreDir: t.TempDir()})
	get(t, ts.Client(), ts.URL+"/v1/block/sha/0?codec=dict")
	get(t, ts.Client(), ts.URL+"/v1/block/sha/1?codec=dict&word=0&words=1")
	get(t, ts.Client(), ts.URL+"/v1/block/fft/0?codec=lzss")
	get(t, ts.Client(), ts.URL+"/v1/pack/nosuch") // error
	s.persistWG.Wait()                            // no persist lands between the scrapes
	_, body, _ := get(t, ts.Client(), ts.URL+"/metrics?format=csv")
	_, prom, _ := get(t, ts.Client(), ts.URL+"/metrics/prom")

	rows := map[bool]map[string]string{false: {}, true: {}} // latency table? -> series -> value or count
	for _, chunk := range strings.Split(strings.TrimSpace(string(body)), "\n\n") {
		recs, err := csv.NewReader(strings.NewReader(chunk)).ReadAll()
		if err != nil {
			t.Fatalf("csv: %v\n%s", err, chunk)
		}
		for _, rec := range recs[1:] {
			rows[len(recs[0]) > 2][rec[0]] = rec[1]
		}
	}
	histograms := map[string]bool{}
	for name, typ := range promFamilies(string(prom)) {
		histograms[name] = typ == "histogram"
	}
	scraped := map[bool]map[string]string{false: {}, true: {}}
	for _, line := range strings.Split(strings.TrimSpace(string(prom)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		series, value := line[:i], line[i+1:]
		name, labels, _ := strings.Cut(series, "{")
		if labels != "" {
			labels = "{" + labels
		}
		if histograms[name] {
			t.Fatalf("histogram %s has a bare sample line %q", name, line)
		}
		if base, ok := strings.CutSuffix(name, "_count"); ok && histograms[base] {
			scraped[true][base+labels] = value
		} else if !histograms[strings.TrimSuffix(name, "_bucket")] && !histograms[strings.TrimSuffix(name, "_sum")] {
			scraped[false][series] = value
		}
	}
	if len(rows[true]) == 0 || len(rows[false]) == 0 {
		t.Fatalf("empty tables:\n%s", body)
	}
	moving := func(series string) bool {
		return series == "apcc_uptime_seconds" || series == "apcc_payload_bytes_total" ||
			strings.HasPrefix(series, "apcc_http_")
	}
	for _, latency := range []bool{false, true} {
		table, exposed := rows[latency], scraped[latency]
		for series, v := range table {
			pv, ok := exposed[series]
			if !ok {
				t.Errorf("/metrics row %s (latency table %v) has no series in /metrics/prom", series, latency)
				continue
			}
			a, errA := strconv.ParseFloat(v, 64)
			b, errB := strconv.ParseFloat(pv, 64)
			if errA != nil || errB != nil || (a != b && !moving(series)) {
				t.Errorf("%s: /metrics %q, /metrics/prom %q", series, v, pv)
			}
		}
		for series := range exposed {
			if _, ok := table[series]; !ok {
				t.Errorf("/metrics/prom series %s (histogram %v) has no /metrics row", series, latency)
			}
		}
	}
}

// TestPromNamesStableAcrossRestarts: the family name set a scrape
// config binds to survives a server restart against the same store.
func TestPromNamesStableAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	scrape := func() []string {
		_, ts := newTestServerConfig(t, Config{Workers: 2, StoreDir: dir})
		get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=dict")
		_, body, _ := get(t, ts.Client(), ts.URL+"/metrics/prom")
		fams := promFamilies(string(body))
		names := make([]string, 0, len(fams))
		for name := range fams {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	first, second := scrape(), scrape()
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("family names changed across restart:\n first: %v\nsecond: %v", first, second)
	}
}

// TestTraceTilesThroughHandler: on a fresh traced server, a block GET
// that builds its entry, a GET whose build fails and a word GET each
// record back-to-back tiles in /debug/trace, charged to the stages
// they ran in, and a failed build's error lands on its build tile.
func TestTraceTilesThroughHandler(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	serve := func(path string, wantCode int) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != wantCode {
			t.Fatalf("GET %s: %d, want %d: %s", path, w.Code, wantCode, w.Body)
		}
		return w
	}
	var stages []string
	for _, part := range strings.Split(serve("/v1/block/crc32/1?codec=dict", http.StatusOK).Header().Get(HeaderStages), ";") {
		stage, _, _ := strings.Cut(part, ":")
		stages = append(stages, stage)
	}
	if got := strings.Join(stages, ","); got != "route,build,route" {
		t.Errorf("cold %s names %s, want route,build,route", HeaderStages, got)
	}
	serve("/v1/block/crc32/1?codec=nosuch", http.StatusBadRequest)
	serve("/v1/block/crc32/1?codec=dict&word=1&words=2", http.StatusOK)

	// The lint checks that each trace's tiles run back to back from 0
	// to its total.
	dump := serve("/debug/trace?n=10", http.StatusOK).Body.Bytes()
	if _, _, err := obs.LintTraceDump(bytes.NewReader(dump)); err != nil {
		t.Fatalf("trace dump invalid: %v", err)
	}
	var d obs.Dump
	if err := json.Unmarshal(dump, &d); err != nil {
		t.Fatal(err)
	}
	want := []string{ // newest first
		"route/ok decode/ok write/ok",
		"route/ok build/error",
		"route/ok build/ok route/ok write/ok",
	}
	if len(d.Traces) != len(want) {
		t.Fatalf("got %d traces, want %d", len(d.Traces), len(want))
	}
	for i, rec := range d.Traces {
		var tiles []string
		for _, sp := range rec.Spans {
			tiles = append(tiles, sp.Stage+"/"+sp.Outcome)
		}
		if got := strings.Join(tiles, " "); got != want[i] {
			t.Errorf("trace %d tiles %s, want %s", rec.ID, got, want[i])
		}
	}

	series := `apcc_block_stage_seconds_count{stage="build",codec="unknown",outcome="error"} 1` + "\n"
	if !strings.Contains(serve("/metrics/prom", http.StatusOK).Body.String(), series) {
		t.Errorf("exposition lacks %q", series)
	}
}

// TestTracingDisabled: with TraceRing < 0 the endpoint is gone and
// responses carry no trace headers.
func TestTracingDisabled(t *testing.T) {
	_, ts := newTestServerConfig(t, Config{Workers: 2, TraceRing: -1})
	_, _, hdr := get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=dict")
	if hdr.Get(HeaderTrace) != "" || hdr.Get(HeaderStages) != "" {
		t.Errorf("trace headers present with tracing disabled: %q %q",
			hdr.Get(HeaderTrace), hdr.Get(HeaderStages))
	}
	code, _, _ := get(t, ts.Client(), ts.URL+"/debug/trace")
	if code != http.StatusNotFound {
		t.Errorf("/debug/trace with tracing disabled: %d, want 404", code)
	}
	// The exposition stays valid with zeroed trace counters.
	_, body, _ := get(t, ts.Client(), ts.URL+"/metrics/prom")
	if _, err := obs.LintProm(bytes.NewReader(body)); err != nil {
		t.Errorf("exposition invalid with tracing disabled: %v", err)
	}
}

// TestTraceHeadersOnHit: a block GET of a built entry advertises its
// trace id and stage breakdown, and the breakdown names the route
// stage alone.
func TestTraceHeadersOnHit(t *testing.T) {
	_, ts := newTestServer(t)
	get(t, ts.Client(), ts.URL+"/v1/block/crc32/1?codec=dict")
	_, _, hdr := get(t, ts.Client(), ts.URL+"/v1/block/crc32/1?codec=dict")
	if hdr.Get(HeaderTrace) == "" {
		t.Fatal("no trace id header")
	}
	stages := parseStagesHeader(hdr.Get(HeaderStages))
	if _, ok := stages[obs.StageRoute]; !ok || len(stages) != 1 {
		t.Errorf("stages header %q, want the route stage alone", hdr.Get(HeaderStages))
	}
	if _, ok := stages[obs.StageWrite]; ok {
		t.Error("write stage leaked into the header (still open when rendered)")
	}
}

// TestMetricsLookupAllocFree pins the RWMutex fast path: resident
// codec and stage histogram lookups allocate nothing (satellite for
// the old per-serve mutex + map-write behavior).
func TestMetricsLookupAllocFree(t *testing.T) {
	m := NewMetrics()
	m.CodecHist("dict")
	m.StageHist(obs.StageRoute, "dict", obs.OutcomeOK)
	allocs := testing.AllocsPerRun(200, func() {
		m.CodecHist("dict").Observe(time.Microsecond)
		m.StageHist(obs.StageRoute, "dict", obs.OutcomeOK).Observe(30 * time.Microsecond)
	})
	if allocs != 0 {
		t.Errorf("resident histogram lookup allocates %v/op, want 0", allocs)
	}
}

// TestHistogramSnapshotCumulative: snapshot returns cumulative counts
// whose final entry equals the observation count — the invariant the
// +Inf bucket and _count share in the exposition.
func TestHistogramSnapshotCumulative(t *testing.T) {
	var h Histogram
	h.Observe(30 * time.Microsecond)
	h.Observe(30 * time.Microsecond)
	h.Observe(3 * time.Second) // overflow
	cum, sumNS := h.snapshot()
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("snapshot not cumulative at %d: %v", i, cum)
		}
	}
	if cum[numBuckets-1] != 3 {
		t.Errorf("final cumulative = %d, want 3", cum[numBuckets-1])
	}
	if want := int64(2*30*time.Microsecond + 3*time.Second); sumNS != want {
		t.Errorf("sumNS = %d, want %d", sumNS, want)
	}
}
