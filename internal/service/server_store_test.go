package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"apbcc/internal/compress"
	"apbcc/internal/isa"
	"apbcc/internal/pack"
	"apbcc/internal/store"
	"apbcc/internal/workloads"
)

// storeConfig is the test config with the disk tier enabled.
func storeConfig(dir string) Config {
	return Config{CacheShards: 4, CacheBytes: 8 << 20, Workers: 2, QueueDepth: 32, MaxBatch: 4, StoreDir: dir}
}

// TestWarmRestartServesWithoutPacking is the acceptance pin for the
// disk tier: a restarted server against a warm store must serve a
// previously-built (workload, codec) container and its blocks without
// invoking the packer, byte-identical to the original.
func TestWarmRestartServesWithoutPacking(t *testing.T) {
	dir := t.TempDir()

	// Cold server: builds, serves, and (asynchronously) persists.
	s1, ts1 := newTestServerConfig(t, storeConfig(dir))
	code, cold, _ := get(t, ts1.Client(), ts1.URL+"/v1/pack/fft?codec=dict")
	if code != http.StatusOK {
		t.Fatalf("cold pack: status %d", code)
	}
	if got := s1.Metrics().Packs.Load(); got != 1 {
		t.Fatalf("cold packs = %d, want 1", got)
	}
	ts1.Close()
	s1.Close() // waits for the async persist to land

	if st := s1.Store().Stats(); st.Objects != 1 || st.Refs != 1 {
		t.Fatalf("store after cold run = %+v, want 1 object / 1 ref", st)
	}

	// Warm server on the same directory.
	s2, ts2 := newTestServerConfig(t, storeConfig(dir))
	code, warm, _ := get(t, ts2.Client(), ts2.URL+"/v1/pack/fft?codec=dict")
	if code != http.StatusOK {
		t.Fatalf("warm pack: status %d", code)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm container differs from the cold build")
	}
	if got := s2.Metrics().Packs.Load(); got != 0 {
		t.Fatalf("warm restart invoked the packer %d times", got)
	}
	if got := s2.Metrics().StoreWarm.Load(); got != 1 {
		t.Fatalf("warm restores = %d, want 1", got)
	}

	// Every block the warm server hands out must be byte- and
	// CRC-identical to the same block from a full client-side Unpack.
	prog, codec, _, err := pack.Unpack("fft", warm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.AllBlockBytes()
	if err != nil {
		t.Fatal(err)
	}
	for id := range want {
		code, payload, hdr := get(t, ts2.Client(), fmt.Sprintf("%s/v1/block/fft/%d?codec=dict", ts2.URL, id))
		if code != http.StatusOK {
			t.Fatalf("block %d: status %d", id, code)
		}
		if _, err := verifyBlock(codec, payload, hdr, want[id], nil); err != nil {
			t.Fatalf("block %d: %v", id, err)
		}
	}

	// /metrics must surface the store tier.
	m := metricsCSV(t, ts2.Client(), ts2.URL)
	for _, key := range []string{"warm_restores", "containers_persisted", "word_read_bytes"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing store counter %q", key)
		}
	}
	if m["warm_restores"] != "1" {
		t.Errorf("warm_restores = %q, want 1", m["warm_restores"])
	}
}

// TestStoreCorruptionNeverReachesBlocks: when the on-disk object rots
// under a live server, no block response changes — blocks are slices of
// the resident container — and the first word read over the rotten
// bytes catches it in the cross-check, quarantines the object, and
// answers correctly from memory.
func TestStoreCorruptionNeverReachesBlocks(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServerConfig(t, storeConfig(dir))

	code, container, _ := get(t, ts.Client(), ts.URL+"/v1/pack/crc32?codec=dict")
	if code != http.StatusOK {
		t.Fatalf("pack: status %d", code)
	}
	// Wait for the async persist, then corrupt the object in place.
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

	prog, codec, _, err := pack.Unpack("crc32", container)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.AllBlockBytes()
	if err != nil {
		t.Fatal(err)
	}
	for id := range want {
		code, payload, hdr := get(t, ts.Client(), fmt.Sprintf("%s/v1/block/crc32/%d?codec=dict", ts.URL, id))
		if code != http.StatusOK {
			t.Fatalf("block %d: status %d", id, code)
		}
		if _, err := verifyBlock(codec, payload, hdr, want[id], nil); err != nil {
			t.Fatalf("block %d served corrupt data: %v", id, err)
		}
	}
	if st := s.Store().Stats(); st.Quarantined != 0 {
		t.Fatalf("quarantined = %d after block reads, want 0 (blocks never read the store)", st.Quarantined)
	}
	last := len(want) - 1
	code, body, hdr := get(t, ts.Client(), wordURL(ts.URL, "crc32", last, "dict", 0, len(want[last])/isa.WordSize))
	if code != http.StatusOK || !bytes.Equal(body, want[last]) {
		t.Fatalf("word read over rotten bytes: status %d, bytes equal %v", code, bytes.Equal(body, want[last]))
	}
	if got := hdr.Get(HeaderSource); got != "memory" {
		t.Fatalf("source %q, want memory", got)
	}
	if st := s.Store().Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
}

// TestAttachRejectsMismatchedLayout: store.Open parses whatever index is
// on disk without re-hashing it, so attachObject must prove an object's
// layout is the entry's container's before the word path slices the
// container at the object's offsets. A disagreeing object is quarantined
// at attach and word reads answer from memory.
func TestAttachRejectsMismatchedLayout(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServerConfig(t, storeConfig(dir))
	wl, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	code, err := wl.Program.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	packed := func(codecName string) []byte {
		t.Helper()
		c, err := compress.New(codecName, code)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pack.Pack(wl.Program, c)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dict := packed("dict")
	// Plant a bdi container under the key of the dict container the
	// server is about to build: the persist's Put finds the key present
	// and keeps the planted bytes, which Open then parses.
	key := store.Key(dict)
	path := filepath.Join(dir, "objects", key[:2], key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, packed("bdi"), 0o644); err != nil {
		t.Fatal(err)
	}
	want, _ := unpackedBlocks(t, ts, "crc32", "dict")
	s.persistWG.Wait()
	if got := s.Store().Stats().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d, want 1 (planted object rejected at attach)", got)
	}
	s.mu.Lock()
	ent := s.entries[store.RefName("crc32", "dict")]
	s.mu.Unlock()
	if ent.obj.Load() != nil {
		t.Fatal("object with a disagreeing index was attached")
	}
	_, body, hdr := get(t, ts.Client(), wordURL(ts.URL, "crc32", 0, "dict", 0, 1))
	if got := hdr.Get(HeaderSource); got != "memory" || !bytes.Equal(body, want[0][:isa.WordSize]) {
		t.Fatalf("word read: source %q, bytes equal %v; want memory, true", got, bytes.Equal(body, want[0][:isa.WordSize]))
	}

	// Same size, last metadata byte apart: rejected too. The genuine
	// object attaches.
	for _, flip := range []bool{true, false} {
		k, err := s.Store().Put(dict)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := s.Store().Open(k)
		if err != nil {
			t.Fatal(err)
		}
		e := &entry{container: bytes.Clone(ent.container)}
		if flip {
			e.container[ent.blocks[0].off-1] ^= 1
		}
		s.attachObject(e, obj)
		if attached := e.obj.Load() != nil; attached == flip {
			t.Fatalf("flipped metadata %v: attached %v", flip, attached)
		}
		if !flip {
			e.obj.Load().Close()
		}
	}
}

// TestRunColdWarmScenario drives the loadgen restart scenario end to
// end: the warm phase must not pack and must see zero errors.
func TestRunColdWarmScenario(t *testing.T) {
	cfg := storeConfig(t.TempDir())
	stats, err := RunColdWarm(context.Background(), cfg, LoadConfig{
		Workload: "fft,crc32",
		Codec:    "dict",
		Clients:  4,
		Steps:    30,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ColdPacks == 0 {
		t.Error("cold phase packed nothing")
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
}
