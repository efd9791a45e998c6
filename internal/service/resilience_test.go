package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/faults"
	"apbcc/internal/isa"
	"apbcc/internal/pack"
	"apbcc/internal/store"
)

// resetFaults clears the process-global fault layer before and after a
// test that configures it. Tests using it must not run in parallel.
func resetFaults(t *testing.T) {
	t.Helper()
	faults.Reset()
	t.Cleanup(faults.Reset)
}

// buildPersisted builds (workload, codec) through the HTTP API and
// waits until the entry's own ref is in the store — the precondition
// for every restore fault test below.
func buildPersisted(t *testing.T, s *Server, ts *httptest.Server, workload, codec string) {
	t.Helper()
	code, body, _ := get(t, ts.Client(), ts.URL+"/v1/pack/"+workload+"?codec="+codec)
	if code != http.StatusOK {
		t.Fatalf("build %s/%s: %d %s", workload, codec, code, body)
	}
	name := store.RefName(workload, codec)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if _, ok := s.Store().Ref(name); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never persisted", name)
		}
	}
}

// checkServes fetches every block and every whole-block word span of
// (workload, codec) and compares each with the oracle images.
func checkServes(t *testing.T, ts *httptest.Server, workload, codecName string, want [][]byte, codec compress.Codec) {
	t.Helper()
	for id, img := range want {
		code, body, hdr := get(t, ts.Client(), fmt.Sprintf("%s/v1/block/%s/%d?codec=%s", ts.URL, workload, id, codecName))
		if code != http.StatusOK {
			t.Fatalf("block %d: %d %s", id, code, body)
		}
		if err := verifyBlock(codec, body, hdr, img); err != nil {
			t.Fatalf("block %d: %v", id, err)
		}
		code, body, _ = get(t, ts.Client(), wordURL(ts.URL, workload, id, codecName, 0, len(img)/isa.WordSize))
		if code != http.StatusOK || !bytes.Equal(body, img) {
			t.Fatalf("block %d word read: status %d, bytes equal %v", id, code, bytes.Equal(body, img))
		}
	}
}

// TestCorruptReadQuarantinedNeverRetried: a bit flip on the store read
// path reaches no response. A live server never reads the store, so no
// flip fires on its block or word reads. A restart's warm restore that
// reads the rotten bytes fails the content hash, quarantines the
// object and rebuilds the entry cold with the same bytes, and the
// quarantined object is never read again.
func TestCorruptReadQuarantinedNeverRetried(t *testing.T) {
	resetFaults(t)
	dir := t.TempDir()
	s, ts := newTestServerConfig(t, Config{Workers: 2, StoreDir: dir})
	buildPersisted(t, s, ts, "crc32", "dict")
	want, codec := unpackedBlocks(t, ts, "crc32", "dict")
	if err := faults.Set("store.read-at:p=1,bitflip"); err != nil {
		t.Fatal(err)
	}
	checkServes(t, ts, "crc32", "dict", want, codec)
	if got := faults.InjectedTotal(faults.KindBitFlip); got != 0 {
		t.Fatalf("%d bit flips on a live server, want 0 (no request reads the store)", got)
	}
	ts.Close()
	s.Close()

	s2, ts2 := newTestServerConfig(t, Config{Workers: 2, StoreDir: dir})
	if code, _, _ := get(t, ts2.Client(), ts2.URL+"/v1/pack/crc32?codec=dict"); code != http.StatusOK {
		t.Fatalf("restart build under bit flips: status %d", code)
	}
	if got := faults.InjectedTotal(faults.KindBitFlip); got != 1 {
		t.Fatalf("bit flips = %d, want 1 (the warm restore's read)", got)
	}
	m := s2.Metrics()
	if warm, packs, q := m.StoreWarm.Load(), m.Packs.Load(), s2.Store().Stats().Quarantined; warm != 0 || packs != 1 || q != 1 {
		t.Fatalf("warm restores %d, packs %d, quarantined %d; want 0, 1, 1", warm, packs, q)
	}
	checkServes(t, ts2, "crc32", "dict", want, codec)
	if got := faults.InjectedTotal(faults.KindBitFlip); got != 1 {
		t.Fatalf("bit flips %d after serving: the quarantined object was read again", got)
	}
	if got := s2.Store().Stats().Quarantined; got != 1 {
		t.Fatalf("quarantined after serving = %d, want still 1", got)
	}
}

// TestRestoreTransientFaultKeepsObject: a transient decode fault during
// a warm restore's verification falls back to a cold build and
// quarantines nothing, because the stored bytes are not known to be
// bad; the next restart restores the same object warm.
func TestRestoreTransientFaultKeepsObject(t *testing.T) {
	resetFaults(t)
	dir := t.TempDir()
	s, ts := newTestServerConfig(t, Config{Workers: 2, StoreDir: dir})
	buildPersisted(t, s, ts, "crc32", "dict")
	want, codec := unpackedBlocks(t, ts, "crc32", "dict")
	key, _ := s.Store().Ref(store.RefName("crc32", "dict"))
	ts.Close()
	s.Close()

	if err := faults.Set("compress.decode:p=1,err,n=1"); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServerConfig(t, Config{Workers: 2, StoreDir: dir})
	if code, _, _ := get(t, ts2.Client(), ts2.URL+"/v1/pack/crc32?codec=dict"); code != http.StatusOK {
		t.Fatalf("restart build under a decode fault: status %d", code)
	}
	if got := faults.InjectedTotal(faults.KindTransient); got != 1 {
		t.Fatalf("transient faults injected = %d, want 1 (the warm restore's verification)", got)
	}
	m := s2.Metrics()
	if warm, packs, q := m.StoreWarm.Load(), m.Packs.Load(), s2.Store().Stats().Quarantined; warm != 0 || packs != 1 || q != 0 {
		t.Fatalf("warm restores %d, packs %d, quarantined %d; want 0, 1, 0", warm, packs, q)
	}
	if !s2.Store().Has(key) {
		t.Fatal("the object left the store after a transient restore failure")
	}
	checkServes(t, ts2, "crc32", "dict", want, codec)
	ts2.Close()
	s2.Close()

	s3, ts3 := newTestServerConfig(t, Config{Workers: 2, StoreDir: dir})
	if code, _, _ := get(t, ts3.Client(), ts3.URL+"/v1/pack/crc32?codec=dict"); code != http.StatusOK {
		t.Fatalf("second restart: status %d", code)
	}
	if warm, packs := s3.Metrics().StoreWarm.Load(), s3.Metrics().Packs.Load(); warm != 1 || packs != 0 {
		t.Fatalf("second restart: warm restores %d, packs %d; want 1, 0", warm, packs)
	}
	checkServes(t, ts3, "crc32", "dict", want, codec)
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

// TestShedsWith429 fills the pool's backlog and checks the admission
// controller sheds /v1/ requests with 429 + Retry-After while health
// and metrics endpoints keep answering.
func TestShedsWith429(t *testing.T) {
	s, ts := newTestServerConfig(t, Config{
		Workers: 1, QueueDepth: 1, TraceRing: -1,
	})
	// Wedge the single slot and make one more job wait for it so the
	// backlog (in-flight minus slots) reaches QueueDepth.
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
	if !s.draining.Load() {
		t.Fatal("not draining after BeginDrain")
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

// TestRequestDeadline504: a block GET that outlives
// Config.RequestTimeout must come back 504, not be served late.
func TestRequestDeadline504(t *testing.T) {
	resetFaults(t)
	_, ts := newTestServerConfig(t, Config{
		Workers: 2, RequestTimeout: 50 * time.Millisecond,
	})
	// Warm the entry first so the build is not what the deadline hits.
	if code, _, _ := get(t, ts.Client(), ts.URL+"/v1/pack/crc32?codec=dict"); code != http.StatusOK {
		t.Fatal("warmup build failed")
	}
	if err := faults.Set("service.block:p=1,lat=200ms,n=1"); err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=dict")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("slow block GET: %d %s, want 504", code, body)
	}
	// The fault was n=1-limited: the same block must now serve fine.
	code, _, _ = get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=dict")
	if code != http.StatusOK {
		t.Fatalf("fetch after deadline miss: %d, want 200", code)
	}
}

// TestClientDisconnectMidRebuild: a client that disconnects while
// another request is still building the entry it waits on must unblock
// at once with its context error, while the build completes and serves
// that request and everyone after it.
func TestClientDisconnectMidRebuild(t *testing.T) {
	resetFaults(t)
	s, ts := newTestServerConfig(t, Config{Workers: 2})
	// The cold build stalls 300ms at the pool; the waiter's client gives
	// up after 30ms.
	if err := faults.Set("service.pool-submit:p=1,lat=300ms,n=1"); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/block/crc32/0?codec=dict"
	firstDone := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Get(url)
		if err != nil {
			firstDone <- 0
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // let the first request start the build
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
	// The waiter's handler must end too while the build is still
	// stalled, leaving only the building request in flight.
	for deadline := time.Now().Add(150 * time.Millisecond); s.Metrics().InFlight.Load() > 1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests in flight 150ms after the disconnect, want 1 (the build)", s.Metrics().InFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("building request finished %d, want 200 (a waiter's cancellation must not fail the build)", code)
	}
	if code, _, _ := get(t, ts.Client(), url); code != http.StatusOK {
		t.Fatalf("post-disconnect fetch: %d, want 200", code)
	}
	if packs := s.Metrics().Packs.Load(); packs != 1 {
		t.Fatalf("packs = %d, want 1: the build ran once for every request", packs)
	}
}

// TestInjectedTransientAnswers503: an injected transient fault answers
// 503, which the client may retry, on the two request paths it can
// reach besides the word read: a block GET (service.block) and a
// POST /v1/pack waiting for a pool slot (service.pool-submit). Each
// fault fires once, so the retry succeeds with the right bytes.
func TestInjectedTransientAnswers503(t *testing.T) {
	resetFaults(t)
	_, ts := newTestServerConfig(t, Config{Workers: 2})
	want, codec := unpackedBlocks(t, ts, "crc32", "dict")
	if err := faults.Set("service.block:p=1,err,n=1"); err != nil {
		t.Fatal(err)
	}
	for i, status := range []int{http.StatusServiceUnavailable, http.StatusOK} {
		code, body, hdr := get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=dict")
		if code != status {
			t.Fatalf("block GET %d under service.block:p=1,err,n=1: %d %s, want %d", i, code, body, status)
		}
		if code == http.StatusOK {
			if err := verifyBlock(codec, body, hdr, want[0]); err != nil {
				t.Fatalf("block GET after the fault: %v", err)
			}
		}
	}

	if err := faults.Set("service.pool-submit:p=1,err,n=1"); err != nil {
		t.Fatal(err)
	}
	for i, status := range []int{http.StatusServiceUnavailable, http.StatusOK} {
		resp, err := ts.Client().Post(ts.URL+"/v1/pack?name=countdown&codec=dict", "text/plain",
			strings.NewReader("start: addi r1, r0, 10\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n"))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != status {
			t.Fatalf("POST /v1/pack %d under service.pool-submit:p=1,err,n=1: %d %s, want %d", i, resp.StatusCode, body, status)
		}
		if resp.StatusCode == http.StatusOK {
			if _, _, _, err := pack.Unpack("countdown", body); err != nil {
				t.Fatalf("POST /v1/pack after the fault: container fails Unpack: %v", err)
			}
		}
	}
	if got := faults.InjectedTotal(faults.KindTransient); got != 2 {
		t.Fatalf("transient faults injected = %d, want 2 (one per site)", got)
	}
}
