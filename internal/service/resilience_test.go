package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/faults"
	"apbcc/internal/isa"
	"apbcc/internal/pack"
)

// resetFaults clears the process-global fault layer before and after a
// test that configures it. Tests using it must not run in parallel.
func resetFaults(t *testing.T) {
	t.Helper()
	faults.Reset()
	t.Cleanup(faults.Reset)
}

// buildAttached builds (workload, codec) through the HTTP API and
// waits until the persisted container's store object is attached to
// the entry — the precondition for every store fault test below.
// persistAsync bumps StorePersists only after the attach.
func buildAttached(t *testing.T, s *Server, ts *httptest.Server, workload, codec string) {
	t.Helper()
	p0 := s.Metrics().StorePersists.Load()
	code, body, _ := get(t, ts.Client(), ts.URL+"/v1/pack/"+workload+"?codec="+codec)
	if code != http.StatusOK {
		t.Fatalf("build %s/%s: %d %s", workload, codec, code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().StorePersists.Load() <= p0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s/%s container never persisted", workload, codec)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCorruptReadQuarantinedNeverRetried: a bit flip on the store read
// path must not change any block response — blocks never leave memory —
// and the word path's cross-check must catch it on the spot:
// quarantine, answer from memory, and never read the object again.
func TestCorruptReadQuarantinedNeverRetried(t *testing.T) {
	resetFaults(t)
	s, ts := newTestServerConfig(t, Config{Workers: 2, StoreDir: t.TempDir()})
	buildAttached(t, s, ts, "crc32", "dict")
	want, codec := unpackedBlocks(t, ts, "crc32", "dict")
	if err := faults.Set("store.read-at:p=1,bitflip"); err != nil {
		t.Fatal(err)
	}
	code, body, hdr := get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=dict")
	if code != http.StatusOK {
		t.Fatalf("block fetch under bit flips: %d %s", code, body)
	}
	if _, err := verifyBlock(codec, body, hdr, want[0], nil); err != nil {
		t.Fatalf("block fetch under bit flips: %v", err)
	}
	if got := s.Store().Stats().Quarantined; got != 0 {
		t.Fatalf("quarantined = %d after a block fetch, want 0 (blocks never read the store)", got)
	}
	nwords := len(want[0]) / isa.WordSize
	code, body, hdr = get(t, ts.Client(), wordURL(ts.URL, "crc32", 0, "dict", 0, nwords))
	if code != http.StatusOK || !bytes.Equal(body, want[0]) {
		t.Fatalf("word read under bit flips: status %d, bytes equal %v", code, bytes.Equal(body, want[0]))
	}
	if got := hdr.Get(HeaderSource); got != "memory" {
		t.Fatalf("source %q, want memory after the cross-check failed", got)
	}
	if got := s.Store().Stats().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	// The object is detached: the next word read skips the store
	// entirely, so no further bit flip fires and nothing is quarantined.
	flips := faults.InjectedTotal(faults.KindBitFlip)
	get(t, ts.Client(), wordURL(ts.URL, "crc32", 0, "dict", 0, 1))
	if got := faults.InjectedTotal(faults.KindBitFlip); got != flips {
		t.Fatalf("bit flips %d -> %d: the detached object was read again", flips, got)
	}
	if got := s.Store().Stats().Quarantined; got != 1 {
		t.Fatalf("quarantined after detach = %d, want still 1", got)
	}
}

// unpackedBlocks fetches the (workload, codec) container and returns
// its unpacked block images and codec: the client-side oracle.
func unpackedBlocks(t *testing.T, ts *httptest.Server, workload, codec string) ([][]byte, compress.Codec) {
	t.Helper()
	code, container, _ := get(t, ts.Client(), ts.URL+"/v1/pack/"+workload+"?codec="+codec)
	if code != http.StatusOK {
		t.Fatalf("pack %s/%s: status %d", workload, codec, code)
	}
	prog, c, _, err := pack.Unpack(workload, container)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.AllBlockBytes()
	if err != nil {
		t.Fatal(err)
	}
	return want, c
}

// TestShedsWith429 fills the worker pool's backlog and checks the
// admission controller sheds /v1/ requests with 429 + Retry-After
// while health and metrics endpoints keep answering.
func TestShedsWith429(t *testing.T) {
	s, ts := newTestServerConfig(t, Config{
		Workers: 1, QueueDepth: 4, ShedDepth: 1, TraceRing: -1,
	})
	// Wedge the single worker and queue one more job so the backlog
	// (in-flight minus workers) reaches the shed depth.
	gate := make(chan struct{})
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			done <- s.pool.Do(context.Background(), func() error { <-gate; return nil })
		}()
	}
	defer func() {
		close(gate)
		<-done
		<-done
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.Backlog() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never reached 1 (= %d)", s.pool.Backlog())
		}
		time.Sleep(time.Millisecond)
	}

	code, body, hdr := get(t, ts.Client(), ts.URL+"/v1/codecs")
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated /v1/ request: %d %s, want 429", code, body)
	}
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if got := s.Metrics().Shed.Load(); got == 0 {
		t.Fatal("shed counter did not move")
	}
	// Operators keep their endpoints during overload.
	if code, _, _ := get(t, ts.Client(), ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz shed with %d — never shed health checks", code)
	}
	if code, _, _ := get(t, ts.Client(), ts.URL+"/metrics"); code != http.StatusOK {
		t.Fatalf("metrics shed with %d — never shed metrics", code)
	}
}

// TestDrainFlipsHealthz: BeginDrain must flip /healthz to 503 (so load
// balancers stop routing here) while the serving path keeps answering
// in-flight and new requests.
func TestDrainFlipsHealthz(t *testing.T) {
	s, ts := newTestServer(t)
	if code, _, _ := get(t, ts.Client(), ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}
	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	code, body, _ := get(t, ts.Client(), ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || strings.TrimSpace(string(body)) != "draining" {
		t.Fatalf("healthz during drain: %d %q, want 503 draining", code, body)
	}
	if code, _, _ := get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=dict"); code != http.StatusOK {
		t.Fatalf("serving path during drain: %d, want 200", code)
	}
	s.BeginDrain() // idempotent
}

// TestRequestDeadline504: a request that outlives Config.RequestTimeout
// must come back 504, not hang on the slow compute.
func TestRequestDeadline504(t *testing.T) {
	resetFaults(t)
	_, ts := newTestServerConfig(t, Config{
		Workers: 2, RequestTimeout: 50 * time.Millisecond,
	})
	// Warm the entry first so the build is not what the deadline hits.
	if code, _, _ := get(t, ts.Client(), ts.URL+"/v1/pack/crc32?codec=dict"); code != http.StatusOK {
		t.Fatal("warmup build failed")
	}
	if err := faults.Set("service.cache-compute:p=1,lat=200ms,n=1"); err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=dict")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("slow compute: %d %s, want 504", code, body)
	}
	// The fault was n=1-limited: the same block must now serve fine and
	// the singleflight key must not be poisoned.
	code, _, _ = get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=dict")
	if code != http.StatusOK {
		t.Fatalf("fetch after deadline miss: %d, want 200", code)
	}
}

// TestClientDisconnectMidRebuild is the regression for the coalesced
// waiter path: a client that disconnects while the singleflight leader
// is still computing the block must unblock immediately with its
// context error, while
// the leader still completes, caches the value, and serves everyone
// after — no wedged key, no poisoned flight.
func TestClientDisconnectMidRebuild(t *testing.T) {
	resetFaults(t)
	s, ts := newTestServerConfig(t, Config{Workers: 2})
	if code, _, _ := get(t, ts.Client(), ts.URL+"/v1/pack/crc32?codec=dict"); code != http.StatusOK {
		t.Fatal("warmup build failed")
	}
	// The leader's compute stalls 300ms; the waiter's client gives up
	// after 30ms.
	if err := faults.Set("service.cache-compute:p=1,lat=300ms,n=1"); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/block/crc32/0?codec=dict"
	leaderDone := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Get(url)
		if err != nil {
			leaderDone <- 0
			return
		}
		resp.Body.Close()
		leaderDone <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // let the leader enter the compute
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	t0 := time.Now()
	_, err := ts.Client().Do(req)
	if err == nil {
		t.Fatal("disconnected waiter got a response, want context error")
	}
	if waited := time.Since(t0); waited > 150*time.Millisecond {
		t.Fatalf("waiter blocked %v after disconnect — not context-aware", waited)
	}
	if code := <-leaderDone; code != http.StatusOK {
		t.Fatalf("leader finished %d, want 200 (waiter cancellation must not poison the flight)", code)
	}
	// The flight completed and cached: the block now serves as a hit.
	code, _, hdr := get(t, ts.Client(), url)
	if code != http.StatusOK || hdr.Get(HeaderCache) != "hit" {
		t.Fatalf("post-disconnect fetch: %d cache=%q, want 200 hit", code, hdr.Get(HeaderCache))
	}
	if s.CacheStats().Coalesced != 0 {
		// The cancelled waiter must not be counted coalesced-as-hit.
		t.Fatalf("coalesced = %d, want 0", s.CacheStats().Coalesced)
	}
	if got := s.CacheStats().WaitAborts; got != 1 {
		// Nor as a miss: the disconnect is a wait abort, full stop.
		t.Fatalf("wait aborts = %d, want 1 (the disconnected waiter)", got)
	}
}

// TestFaultsEndpointGated: the /debug/faults control endpoint mutates
// process-global fault state (one POST can fail every store read and
// quarantine healthy objects), so the serving mux must not expose it
// unless Config.DebugFaults explicitly opts in.
func TestFaultsEndpointGated(t *testing.T) {
	resetFaults(t)
	_, ts := newTestServerConfig(t, Config{Workers: 2})
	if code, _, _ := get(t, ts.Client(), ts.URL+"/debug/faults"); code != http.StatusNotFound {
		t.Fatalf("GET /debug/faults on a default server: %d, want 404", code)
	}
	resp, err := ts.Client().Post(ts.URL+"/debug/faults?spec=store.read-at:p=1,err", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /debug/faults on a default server: %d, want 404", resp.StatusCode)
	}

	_, armed := newTestServerConfig(t, Config{Workers: 2, DebugFaults: true})
	if code, _, _ := get(t, armed.Client(), armed.URL+"/debug/faults"); code != http.StatusOK {
		t.Fatalf("GET /debug/faults with DebugFaults: %d, want 200", code)
	}
}

// TestChaosScenario runs the full three-phase chaos harness with a
// fixed seed: injected latency, transient errors and bit flips during a
// block and word load, word reads degraded to memory while every store
// read fails, and a healed return to the store — with zero wrong bytes
// end to end.
func TestChaosScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenario is seconds-long")
	}
	resetFaults(t)
	cfg := Config{
		CacheShards: 4, CacheBytes: 1 << 20, Workers: 2, QueueDepth: 32,
		StoreDir: t.TempDir(), TraceRing: -1,
	}
	lcfg := LoadConfig{
		Workload: "sha", Codec: "dict", Clients: 4, Steps: 60, Seed: 7,
	}
	profile := "store.read-at:p=0.2,lat=1ms;store.read-at:p=0.05,err;store.read-at:p=0.02,bitflip"
	st, err := RunChaos(context.Background(), cfg, lcfg, profile, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if st.WrongBytes != 0 {
		t.Fatalf("wrong bytes = %d, want 0", st.WrongBytes)
	}
	if st.Injected[faults.KindTransient] == 0 {
		t.Fatal("no transient faults injected — the run exercised nothing")
	}
	if st.Load.WordReads == 0 {
		t.Fatal("phase 1 issued no word reads — the store path never ran")
	}
	if st.DegradedFetches == 0 || !st.Recovered {
		t.Fatalf("degraded fetches = %d, recovered = %v; want > 0 and true", st.DegradedFetches, st.Recovered)
	}
	var sb strings.Builder
	if err := st.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wrong_bytes") {
		t.Fatalf("report missing wrong_bytes row:\n%s", sb.String())
	}
}
