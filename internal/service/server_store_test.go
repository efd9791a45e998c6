package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"apbcc/internal/compress"
	"apbcc/internal/faults"
	"apbcc/internal/pack"
	"apbcc/internal/store"
	"apbcc/internal/workloads"
)

// storeConfig is the test config with the disk tier enabled.
func storeConfig(dir string) Config {
	return Config{Workers: 2, QueueDepth: 32, StoreDir: dir}
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
		if err := verifyBlock(codec, payload, hdr, want[id]); err != nil {
			t.Fatalf("block %d: %v", id, err)
		}
	}

	// /metrics must surface the store tier.
	m := metricsCSV(t, ts2.Client(), ts2.URL)
	for _, key := range []string{"apcc_store_warm_restores_total", "apcc_store_persists_total", "apcc_store_put_bytes_total"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing store counter %q", key)
		}
	}
	if m["apcc_store_warm_restores_total"] != "1" {
		t.Errorf("apcc_store_warm_restores_total = %q, want 1", m["apcc_store_warm_restores_total"])
	}
}

// TestStoreCorruptionNeverReachesBlocks: when the on-disk object rots
// under a live server — one payload byte flipped, or another codec's
// container in its place — no block or word response changes and
// nothing is quarantined, because no request reads the store. A
// restart then finds the rot at its warm restore: the content hash
// fails, the object is quarantined, and the entry is rebuilt cold with
// the same bytes.
func TestStoreCorruptionNeverReachesBlocks(t *testing.T) {
	wl, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	code, err := wl.Program.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	bdi, err := compress.New("bdi", code)
	if err != nil {
		t.Fatal(err)
	}
	planted, err := pack.Pack(wl.Program, bdi)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rot  func(container []byte) []byte
	}{
		{"flipped", func(container []byte) []byte {
			mut := bytes.Clone(container)
			mut[len(mut)-1] ^= 0xff // last block's payload bytes
			return mut
		}},
		{"planted", func([]byte) []byte { return planted }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, ts := newTestServerConfig(t, storeConfig(dir))
			buildPersisted(t, s, ts, "crc32", "dict")
			key, ok := s.Store().Ref(store.RefName("crc32", "dict"))
			if !ok {
				t.Fatal("no ref after persist")
			}
			want, codec := unpackedBlocks(t, ts, "crc32", "dict")
			_, container, _ := get(t, ts.Client(), ts.URL+"/v1/pack/crc32?codec=dict")
			path := filepath.Join(dir, "objects", key[:2], key)
			if err := os.WriteFile(path, c.rot(container), 0o644); err != nil {
				t.Fatal(err)
			}
			checkServes(t, ts, "crc32", "dict", want, codec)
			if st := s.Store().Stats(); st.Quarantined != 0 {
				t.Fatalf("quarantined = %d on a live server, want 0 (no request reads the store)", st.Quarantined)
			}
			ts.Close()
			s.Close()

			s2, ts2 := newTestServerConfig(t, storeConfig(dir))
			code, warm, _ := get(t, ts2.Client(), ts2.URL+"/v1/pack/crc32?codec=dict")
			if code != http.StatusOK || !bytes.Equal(warm, container) {
				t.Fatalf("restart over rotten store: status %d, container equal %v", code, bytes.Equal(warm, container))
			}
			m := s2.Metrics()
			if w, p, q := m.StoreWarm.Load(), m.Packs.Load(), s2.Store().Stats().Quarantined; w != 0 || p != 1 || q != 1 {
				t.Fatalf("warm restores %d, packs %d, quarantined %d; want 0, 1, 1", w, p, q)
			}
			checkServes(t, ts2, "crc32", "dict", want, codec)
		})
	}
}

// checkQuarantinedRestore stores mangle's copy of the (workload, dict)
// container under the entry's ref. Stored under its own key the copy is
// hash-valid, so store.Get passes it and only the restore's Unpack can
// reject it. The restart must quarantine it and rebuild the entry cold
// with the original bytes: warm 0, packs 1, quarantined 1, and every
// block and word read serves the packed code.
func checkQuarantinedRestore(t *testing.T, workload string, mangle func([]byte) []byte) {
	t.Helper()
	dir := t.TempDir()
	s, ts := newTestServerConfig(t, storeConfig(dir))
	buildPersisted(t, s, ts, workload, "dict")
	want, codec := unpackedBlocks(t, ts, workload, "dict")
	_, container, _ := get(t, ts.Client(), ts.URL+"/v1/pack/"+workload+"?codec=dict")
	ts.Close()
	s.Close()

	key, err := s.Store().Put(mangle(bytes.Clone(container)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store().PutRef(store.RefName(workload, "dict"), key); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServerConfig(t, storeConfig(dir))
	code, warm, _ := get(t, ts2.Client(), ts2.URL+"/v1/pack/"+workload+"?codec=dict")
	if code != http.StatusOK || !bytes.Equal(warm, container) {
		t.Fatalf("restart over a mangled container: status %d, container equal %v", code, bytes.Equal(warm, container))
	}
	m := s2.Metrics()
	if w, p, q := m.StoreWarm.Load(), m.Packs.Load(), s2.Store().Stats().Quarantined; w != 0 || p != 1 || q != 1 {
		t.Fatalf("warm restores %d, packs %d, quarantined %d; want 0, 1, 1", w, p, q)
	}
	checkServes(t, ts2, workload, "dict", want, codec)
}

// TestWarmRestoreQuarantinesUnpackFailure: a stored copy whose version
// byte reads 2, a format no build reads, fails the restore's Unpack.
func TestWarmRestoreQuarantinesUnpackFailure(t *testing.T) {
	checkQuarantinedRestore(t, "crc32", func(c []byte) []byte {
		c[len(pack.Magic)] = 2
		return c
	})
}

// TestWarmRestoreQuarantinesEdgeFlip: a stored crc32 copy with bit 0 of
// byte 553 flipped, in the edge table that no CRC covers, unpacks to a
// program with a transfer that has no CFG edge. The restore's Unpack
// rejects it as corrupt, so the copy is quarantined, not kept for the
// next restart to fail on again.
func TestWarmRestoreQuarantinesEdgeFlip(t *testing.T) {
	checkQuarantinedRestore(t, "crc32", func(c []byte) []byte {
		c[553] ^= 1
		if _, _, _, err := pack.Unpack("crc32", c); !errors.Is(err, pack.ErrCorrupt) ||
			!strings.Contains(err.Error(), "without a CFG edge") {
			t.Fatalf("flipped copy: Unpack err = %v, want ErrCorrupt for a transfer without a CFG edge", err)
		}
		return c
	})
}

// TestWarmRestoreQuarantinesMovedGroupOffset: a stored fft copy whose
// group directory has block 0's group-1 offset moved one byte later
// still passes ParseIndex, but word reads would decode through it from
// the wrong bytes, so the restore's Unpack must reject it.
func TestWarmRestoreQuarantinesMovedGroupOffset(t *testing.T) {
	checkQuarantinedRestore(t, "fft", func(c []byte) []byte {
		idx, err := pack.ParseIndex(c)
		if err != nil {
			t.Fatal(err)
		}
		// The directory and the payload section length end the index.
		dir := func(moved uint32) []byte {
			buf := binary.AppendUvarint(nil, uint64(idx.GroupWords))
			for i := range idx.Blocks {
				var prev uint32
				for g, o := range idx.BlockGroupOffsets(i) {
					if i == 0 && g == 1 {
						o = moved
					}
					buf = binary.AppendUvarint(buf, uint64(o-prev))
					prev = o
				}
			}
			return binary.AppendUvarint(buf, uint64(idx.PayloadLen))
		}
		offs := idx.BlockGroupOffsets(0)
		if len(offs) < 2 {
			t.Fatalf("block 0 has %d word groups, want at least 2", len(offs))
		}
		old := dir(offs[1])
		start := int(idx.PayloadBase) - len(old)
		if !bytes.Equal(c[start:idx.PayloadBase], old) {
			t.Fatal("the group directory does not end the index")
		}
		moved := slices.Concat(c[:start], dir(offs[1]+1), c[idx.PayloadBase:])
		if _, err := pack.ParseIndex(moved); err != nil {
			t.Fatal(err)
		}
		return moved
	})
}

// TestPersistFailureLogged: a persist that fails is logged at Warn with
// its ref name and key, is not counted as a persist, and leaves no ref
// for a restart to restore.
func TestPersistFailureLogged(t *testing.T) {
	const msg = "container persist failed"
	for _, c := range []struct{ name, fault string }{
		{"put", "store.write:p=1,err"},
		{"fsync", "store.fsync:p=1,err"},
	} {
		t.Run(c.name, func(t *testing.T) {
			resetFaults(t)
			var logBuf bytes.Buffer
			cfg := storeConfig(t.TempDir())
			cfg.Log = slog.New(slog.NewTextHandler(&logBuf, nil))
			s, ts := newTestServerConfig(t, cfg)
			if err := faults.Set(c.fault); err != nil {
				t.Fatal(err)
			}
			if code, body, _ := get(t, ts.Client(), ts.URL+"/v1/pack/crc32?codec=dict"); code != http.StatusOK {
				t.Fatalf("build under %s: %d %s", c.fault, code, body)
			}
			s.Close() // waits for the persist
			if _, ok := s.Store().Ref(store.RefName("crc32", "dict")); ok {
				t.Fatal("store has a ref after its persist failed")
			}
			log := logBuf.String()
			if !strings.Contains(log, "level=WARN") || !strings.Contains(log, msg) ||
				!strings.Contains(log, "crc32") || !strings.Contains(log, "key=") {
				t.Fatalf("log lacks the %q warning with ref and key:\n%s", msg, log)
			}
			if got := s.Metrics().StorePersists.Load(); got != 0 {
				t.Fatalf("StorePersists = %d, want 0", got)
			}
		})
	}
}
