package loadgen

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/obs"
	"apbcc/internal/service"
)

func newTestServer(t *testing.T) (*service.Server, *httptest.Server) {
	t.Helper()
	return newTestServerConfig(t, service.Config{Workers: 4, QueueDepth: 64})
}

func newTestServerConfig(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// storeConfig is the test config with the disk tier enabled.
func storeConfig(dir string) service.Config {
	return service.Config{Workers: 2, QueueDepth: 32, StoreDir: dir}
}

func httpGet(t *testing.T, client *http.Client, url string) (int, []byte, http.Header) {
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

// metricsCSV fetches /metrics?format=csv and returns series -> value
// for the metrics table's two-column rows.
func metricsCSV(t *testing.T, client *http.Client, base string) map[string]string {
	t.Helper()
	code, body, _ := httpGet(t, client, base+"/metrics?format=csv")
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

// lockedWriter serializes concurrent writes in tests (the sink already
// locks, but the bytes.Buffer itself must not be raced by Read later).
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestLoadgenE2E is the acceptance run: ≥32 concurrent clients replay a
// workload trace over HTTP with zero errors, /metrics counts every
// fetch as a block served, and (inside Run) every container
// round-trips through pack.Unpack. Run under -race this doubles as the
// subsystem's concurrency test.
func TestLoadgenE2E(t *testing.T) {
	_, ts := newTestServer(t)
	stats, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Workload: "fft",
		Codec:    "dict",
		Clients:  32,
		Steps:    100,
		Seed:     7,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 {
		t.Fatalf("loadgen errors = %d, first: %v", stats.Errors, stats.FirstError)
	}
	if want := int64(32 * 100); stats.Requests != want {
		t.Fatalf("requests = %d, want %d", stats.Requests, want)
	}
	m := metricsCSV(t, ts.Client(), ts.URL)
	if got := m["apcc_blocks_served_total"]; got != strconv.FormatInt(stats.Requests, 10) {
		t.Fatalf("/metrics apcc_blocks_served_total = %q, want %d", got, stats.Requests)
	}
}

// TestRunLoadClosesOwnTransport: a Run that builds its own
// transport (Config.Client nil) closes its connections when it
// returns, so the server sees every connection close.
func TestRunLoadClosesOwnTransport(t *testing.T) {
	s, err := service.New(service.Config{Workers: 4, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	var open atomic.Int64
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	ts.Start()
	t.Cleanup(func() { ts.Close(); s.Close() })

	stats, err := Run(context.Background(), Config{
		BaseURL: ts.URL, Workload: "fft", Codec: "dict", Clients: 4, Steps: 20, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 {
		t.Fatalf("loadgen errors = %d, first: %v", stats.Errors, stats.FirstError)
	}
	deadline := time.Now().Add(2 * time.Second)
	for open.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d server connections still open after Run returned", open.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLoadgenMixedWorkloads hammers several (workload, codec) pairs at
// once so entry building, serving and the pool all race.
func TestLoadgenMixedWorkloads(t *testing.T) {
	_, ts := newTestServer(t)
	type run struct {
		workload, codec string
	}
	runs := []run{{"crc32", "dict"}, {"fft", "lzss"}, {"sha", "huffman"}, {"fir", "identity"}}
	errc := make(chan error, len(runs))
	for _, r := range runs {
		go func(r run) {
			stats, err := Run(context.Background(), Config{
				BaseURL: ts.URL, Workload: r.workload, Codec: r.codec,
				Clients: 8, Steps: 50, Client: ts.Client(),
			})
			if err == nil && stats.Errors > 0 {
				err = fmt.Errorf("%s/%s: %d errors, first: %v", r.workload, r.codec, stats.Errors, stats.FirstError)
			}
			errc <- err
		}(r)
	}
	for range runs {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}

// TestLoadgenScenarioList replays a comma-separated scenario list: the
// clients split round-robin across the named workloads (including the
// skewed/phase scenarios added for policy comparison) with no errors.
func TestLoadgenScenarioList(t *testing.T) {
	_, ts := newTestServer(t)
	stats, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Workload: "crc32, zipf,loopphase",
		Codec:    "dict",
		Clients:  6,
		Steps:    40,
		Seed:     3,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 {
		t.Fatalf("loadgen errors = %d, first: %v", stats.Errors, stats.FirstError)
	}
	if want := int64(6 * 40); stats.Requests != want {
		t.Fatalf("requests = %d, want %d", stats.Requests, want)
	}

	// An empty list is rejected, not silently idle.
	if _, err := Run(context.Background(), Config{
		BaseURL: ts.URL, Workload: " , ", Clients: 1, Steps: 1, Client: ts.Client(),
	}); err == nil {
		t.Fatal("empty scenario list accepted")
	}
}

// TestRunLoadWordReadScenario drives the loadgen wordread mix end to
// end: half the fetches as zipf word reads, all verified client-side,
// and every JSONL row of a word read carrying its requested span and
// its decode stage.
func TestRunLoadWordReadScenario(t *testing.T) {
	s, ts := newTestServerConfig(t, service.Config{Workers: 2})
	var jsonl bytes.Buffer
	stats, err := Run(context.Background(), Config{
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
	if got := s.Metrics().WordReads.Load(); got != stats.WordReads {
		t.Fatalf("server counted %d word reads, clients issued %d", got, stats.WordReads)
	}
	if got := s.Metrics().WordGroups.Load(); got < stats.WordReads {
		t.Fatalf("%d word groups decoded for %d dict word reads, want at least one each", got, stats.WordReads)
	}
	var wordRows, decodeStages int
	for dec := json.NewDecoder(&jsonl); dec.More(); {
		var rec FetchRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.Words > 0 {
			wordRows++
			if _, ok := rec.Stages["decode"]; ok {
				decodeStages++
			}
		}
	}
	if int64(wordRows) != stats.WordReads {
		t.Fatalf("JSONL word rows = %d, stats.WordReads = %d", wordRows, stats.WordReads)
	}
	if decodeStages != wordRows {
		t.Fatalf("%d of %d word-read rows carried the decode stage", decodeStages, wordRows)
	}
}

// TestRunColdWarmScenario drives the loadgen restart scenario end to
// end: the warm phase must not pack and must see zero errors. A second
// run on the same store starts warm, so its cold phase restores both
// containers (fft and crc32 under dict) and packs none.
func TestRunColdWarmScenario(t *testing.T) {
	cfg := storeConfig(t.TempDir())
	lcfg := Config{
		Workload: "fft,crc32",
		Codec:    "dict",
		Clients:  4,
		Steps:    30,
		Seed:     7,
	}
	stats, err := RunColdWarm(context.Background(), cfg, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ColdPacks == 0 || stats.ColdRestores != 0 {
		t.Errorf("cold phase on an empty store: packs %d, restores %d; want > 0, 0", stats.ColdPacks, stats.ColdRestores)
	}
	if stats.WarmPacks != 0 {
		t.Errorf("warm phase packed %d containers, want 0", stats.WarmPacks)
	}
	if stats.WarmRestores == 0 {
		t.Error("warm phase restored nothing from the store")
	}
	if stats.Cold.Errors != 0 || stats.Warm.Errors != 0 {
		t.Errorf("errors: cold=%d warm=%d (first: %v, %v)",
			stats.Cold.Errors, stats.Warm.Errors, stats.Cold.FirstError, stats.Warm.FirstError)
	}
	if stats.ColdFirst <= 0 || stats.WarmFirst <= 0 {
		t.Errorf("first-container latencies not measured: %v, %v", stats.ColdFirst, stats.WarmFirst)
	}

	again, err := RunColdWarm(context.Background(), cfg, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.ColdPacks != 0 || again.ColdRestores != 2 {
		t.Errorf("cold phase on a warm store: packs %d, restores %d; want 0, 2", again.ColdPacks, again.ColdRestores)
	}
}

// TestCodecMixPopulatesPromLabels drives the codecmix scenario end to
// end against one server and asserts the Prometheus exposition then
// carries per-stage decode attribution for every registered codec —
// in particular the word-pattern codecs, whose serving path (pack,
// verify, route, write) must be exercised by the mix, not just by
// unit tests.
func TestCodecMixPopulatesPromLabels(t *testing.T) {
	_, ts := newTestServerConfig(t, service.Config{Workers: 4, StoreDir: t.TempDir()})
	mix, err := RunCodecMix(context.Background(), Config{
		BaseURL:  ts.URL,
		Workload: "crc32",
		Clients:  2,
		Steps:    40,
		Seed:     7,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(compress.Names()); len(mix) != want {
		t.Fatalf("mix legs = %d, want %d", len(mix), want)
	}
	for _, leg := range mix {
		if leg.Stats.Errors != 0 {
			t.Errorf("%s: %d errors, first: %v", leg.Codec, leg.Stats.Errors, leg.Stats.FirstError)
		}
		if leg.Stats.Requests == 0 {
			t.Errorf("%s: no fetches", leg.Codec)
		}
	}
	_, body, _ := httpGet(t, ts.Client(), ts.URL+"/metrics/prom")
	if _, err := obs.LintProm(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid after mix: %v", err)
	}
	for _, codec := range compress.Names() {
		series := fmt.Sprintf(`apcc_block_stage_seconds_bucket{stage="route",codec=%q`, codec)
		if !strings.Contains(string(body), series) {
			t.Errorf("exposition missing stage series for codec %s", codec)
		}
	}
}

// TestDebugTraceAndStageSum is the tracing acceptance test: a loadgen
// run against a traced server yields (a) a /debug/trace dump that
// passes the tiling lint, (b) per-request stage attribution in the
// X-Apcc-Stages headers collected via TraceOut, and (c) per-stage
// times that sum exactly to the end-to-end totals.
func TestDebugTraceAndStageSum(t *testing.T) {
	_, ts := newTestServerConfig(t, service.Config{Workers: 4, TraceRing: 1024})
	var traceOut bytes.Buffer
	var mu sync.Mutex
	stats, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Workload: "fft",
		Codec:    "dict",
		Clients:  8,
		Steps:    50,
		Seed:     11,
		Client:   ts.Client(),
		TraceOut: lockedWriter{&mu, &traceOut},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 {
		t.Fatalf("loadgen errors: %d, first: %v", stats.Errors, stats.FirstError)
	}

	// (a) the dump endpoint.
	code, body, _ := httpGet(t, ts.Client(), ts.URL+"/debug/trace?n=500")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace: %d", code)
	}
	traces, spans, err := obs.LintTraceDump(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("trace dump invalid: %v", err)
	}
	if traces == 0 || spans == 0 {
		t.Fatalf("empty trace dump: %d traces, %d spans", traces, spans)
	}

	// (c) stage attribution accounts for the end-to-end latency: over
	// the dump, summed tile time equals summed totals.
	var d obs.Dump
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	var excl, total int64
	for _, rec := range d.Traces {
		total += rec.TotalNS
		for i, sp := range rec.Spans {
			if sp.ExclNS < 0 {
				t.Fatalf("trace %d span %d (%s): negative exclusive %d", rec.ID, i, sp.Stage, sp.ExclNS)
			}
			excl += sp.ExclNS
		}
	}
	if excl != total {
		t.Errorf("stage times sum to %d ns, end-to-end totals to %d ns", excl, total)
	}

	// (b) the loadgen joined server attribution into its records.
	recs := 0
	withStages := 0
	dec := json.NewDecoder(bytes.NewReader(traceOut.Bytes()))
	for dec.More() {
		var rec FetchRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("trace-out line %d: %v", recs, err)
		}
		recs++
		if rec.TraceID > 0 && len(rec.Stages) > 0 {
			withStages++
			if _, ok := rec.Stages[obs.StageRoute]; !ok {
				t.Fatalf("record missing route stage: %+v", rec)
			}
		}
	}
	if int64(recs) != stats.Requests {
		t.Errorf("trace-out has %d records, loadgen made %d requests", recs, stats.Requests)
	}
	if withStages == 0 {
		t.Error("no trace-out record carried stage attribution")
	}
}

// dropCRC passes a response through without its X-Apcc-Crc32 header.
type dropCRC struct{ http.ResponseWriter }

func (d dropCRC) WriteHeader(code int) {
	d.Header().Del(service.HeaderCRC)
	d.ResponseWriter.WriteHeader(code)
}

func (d dropCRC) Write(b []byte) (int, error) {
	d.Header().Del(service.HeaderCRC)
	return d.ResponseWriter.Write(b)
}

// TestMissingCRCHeaderFailsCheck: the real handler behind a wrapper
// that drops X-Apcc-Crc32 serves right bytes that no device can check
// against their CRC, so every block and word response counts as a
// verify error.
func TestMissingCRCHeaderFailsCheck(t *testing.T) {
	s, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(dropCRC{w}, r)
	}))
	t.Cleanup(func() { ts.Close(); s.Close() })
	stats, err := Run(context.Background(), Config{
		BaseURL: ts.URL, Workload: "fft", Codec: "dict",
		Clients: 2, Steps: 40, Seed: 3, WordFrac: 0.5, Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WordReads == 0 || stats.WordReads == stats.Requests {
		t.Fatalf("word reads = %d of %d requests, want a mix", stats.WordReads, stats.Requests)
	}
	if stats.VerifyErrors != stats.Requests || stats.Errors != stats.Requests {
		t.Fatalf("%d verify errors and %d errors over %d requests without a CRC header, want every request",
			stats.VerifyErrors, stats.Errors, stats.Requests)
	}
}
