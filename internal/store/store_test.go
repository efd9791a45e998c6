package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/faults"
	"apbcc/internal/pack"
	"apbcc/internal/workloads"
)

// packSuite builds a v2 container for a suite workload.
func packSuite(t testing.TB, workload, codecName string) []byte {
	t.Helper()
	w, err := workloads.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	code, err := w.Program.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := compress.New(codecName, code)
	if err != nil {
		t.Fatal(err)
	}
	data, err := pack.Pack(w.Program, codec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := packSuite(t, "fft", "dict")
	key, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if key != Key(data) {
		t.Fatalf("key %s != Key() %s", key, Key(data))
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("Get returned different bytes")
	}
	// Idempotent re-put: no second object, no extra put counted.
	if _, err := s.Put(data); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Objects != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 object / 1 put", st)
	}
	if _, err := s.Get("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object: err = %v", err)
	}
}

func TestRefsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := packSuite(t, "fft", "dict")
	key, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	// Ref names carry arbitrary bytes (the service uses NUL separators).
	name := "fft\x00dict"
	if err := s.PutRef(name, key); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRef("other", "0000000000000000000000000000000000000000000000000000000000000000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ref to missing object: err = %v", err)
	}

	// A fresh Open must resolve the same name to the same object.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Ref(name)
	if !ok || got != key {
		t.Fatalf("reopened ref = %q, %v; want %q", got, ok, key)
	}
	s2.DropRef(name)
	if _, ok := s2.Ref(name); ok {
		t.Fatal("ref survived DropRef")
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Ref(name); ok {
		t.Fatal("dropped ref resurrected by reopen")
	}
}

// stallRefWrite starts PutRef(name, key) on its own goroutine with its
// fsync stalled for stall by the store.fsync failpoint, and returns once
// that write is inside the stall. The channel yields PutRef's result.
func stallRefWrite(t *testing.T, s *Store, name, key string, stall time.Duration) <-chan error {
	t.Helper()
	faults.Reset()
	t.Cleanup(faults.Reset)
	if err := faults.Set(fmt.Sprintf("store.fsync:p=1,lat=%v,n=1", stall)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.PutRef(name, key) }()
	for faults.InjectedTotal(faults.KindLatency) == 0 {
		select {
		case err := <-done:
			t.Fatalf("PutRef returned %v before its fsync stalled", err)
		case <-time.After(time.Millisecond):
		}
	}
	return done
}

// TestRefReadsDoNotWaitForRefWrites: a ref write stalled in its fsync
// holds up neither Ref, which every cold build calls, nor Stats, which
// every metrics scrape calls.
func TestRefReadsDoNotWaitForRefWrites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fft, err := s.Put(packSuite(t, "fft", "dict"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRef("fft\x00dict", fft); err != nil {
		t.Fatal(err)
	}
	crc, err := s.Put(packSuite(t, "crc32", "dict"))
	if err != nil {
		t.Fatal(err)
	}
	done := stallRefWrite(t, s, "crc32\x00dict", crc, 300*time.Millisecond)
	start := time.Now()
	if got, ok := s.Ref("fft\x00dict"); !ok || got != fft {
		t.Errorf("Ref = %q, %v; want %q", got, ok, fft)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("Ref took %v behind a stalled ref write", d)
	}
	start = time.Now()
	if st := s.Stats(); st.Refs != 1 || st.Objects != 2 {
		t.Errorf("Stats = %+v during the ref write, want 1 ref and 2 objects", st)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("Stats took %v behind a stalled ref write", d)
	}
	select {
	case err := <-done:
		t.Fatalf("ref write returned %v before the reads were timed", err)
	default:
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Ref("crc32\x00dict"); !ok || got != crc {
		t.Errorf("Ref after the write = %q, %v; want %q", got, ok, crc)
	}
}

// TestRacingPutRefsAgreeWithDisk: two PutRefs of one name, the second
// started while the first is stalled in its fsync, land in call order,
// so the map names the object a reopened store reads from disk.
func TestRacingPutRefsAgreeWithDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Put(packSuite(t, "fft", "dict"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Put(packSuite(t, "fft", "bdi"))
	if err != nil {
		t.Fatal(err)
	}
	const name = "fft\x00dict"
	done := stallRefWrite(t, s, name, first, 100*time.Millisecond)
	if err := s.PutRef(name, second); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	inMap, _ := s.Ref(name)
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, _ := reopened.Ref(name)
	if inMap != onDisk {
		t.Fatalf("map names %.12s, a reopened store reads %.12s", inMap, onDisk)
	}
	if inMap != second {
		t.Errorf("ref names %.12s, want the later write's %.12s", inMap, second)
	}
}

// TestCrashMidWriteInvisible simulates a kill mid-Put: a partial file
// in tmp/ must never become a visible object, and Open must clear it.
func TestCrashMidWriteInvisible(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	partial := filepath.Join(dir, "tmp", "put-123456")
	if err := os.WriteFile(partial, []byte("half a conta"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Objects != 0 {
		t.Fatalf("partial write became visible: %+v", st)
	}
	if _, err := os.Stat(partial); !os.IsNotExist(err) {
		t.Fatal("tmp debris survived Open")
	}
}

// TestFsckQuarantinesCorruptObjects: truncated and bit-flipped objects
// are moved to quarantine/ on Open, and refs to them are dropped.
func TestFsckQuarantinesCorruptObjects(t *testing.T) {
	for _, corrupt := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit-flipped", func(b []byte) []byte {
			mut := bytes.Clone(b)
			mut[len(mut)/3] ^= 0x40
			return mut
		}},
	} {
		t.Run(corrupt.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			data := packSuite(t, "crc32", "dict")
			key, err := s.Put(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.PutRef("wl", key); err != nil {
				t.Fatal(err)
			}
			// Corrupt the object file behind the store's back.
			path := s.objectPath(key)
			if err := os.WriteFile(path, corrupt.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			st := s2.Stats()
			if st.Objects != 0 || st.Quarantined != 1 {
				t.Fatalf("stats after fsck = %+v, want 0 objects / 1 quarantined", st)
			}
			if _, ok := s2.Ref("wl"); ok {
				t.Fatal("ref to quarantined object survived")
			}
			if _, err := os.Stat(filepath.Join(dir, "quarantine", key)); err != nil {
				t.Fatalf("quarantined file missing: %v", err)
			}
		})
	}
}

// TestGetDetectsCorruptionAtReadTime covers corruption that lands
// *after* Open's fsck pass.
func TestGetDetectsCorruptionAtReadTime(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := packSuite(t, "crc32", "dict")
	key, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(data)
	mut[10] ^= 0xff
	if err := os.WriteFile(s.objectPath(key), mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get err = %v, want ErrCorrupt", err)
	}
	if st := s.Stats(); st.Objects != 0 || st.Quarantined != 1 {
		t.Fatalf("corrupt object not quarantined: %+v", st)
	}
}

// TestObjectServesBlocks: block reads through the index match the
// payloads and images of a full Unpack.
func TestObjectServesBlocks(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := packSuite(t, "fft", "lzss")
	key, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	codec, err := obj.Index().NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	full, _, _, err := pack.Unpack("fft", data)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range full.Graph.Blocks() {
		want, err := full.BlockBytes(b.ID)
		if err != nil {
			t.Fatal(err)
		}
		_, plain, err := obj.VerifiedBlock(codec, i, nil, nil)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !bytes.Equal(plain, want) {
			t.Fatalf("block %d image differs from Unpack", i)
		}
	}
	st := s.Stats()
	if st.BlockReads != int64(full.Graph.NumBlocks()) || st.BlockBytes <= 0 {
		t.Fatalf("block read counters = %+v", st)
	}
	if _, err := obj.ReadBlock(len(full.Graph.Blocks()) + 1); err == nil {
		t.Fatal("out-of-range block read accepted")
	}
}

// TestOpenRejectsV1Object: a v1 container stores fine (Put is
// format-agnostic) but cannot be opened for block access.
func TestOpenRejectsV1Object(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build a v1-versioned header: Open must reject it as
	// indexless, not crash.
	bogus := append([]byte("APCC"), 1)
	key, err := s.Put(bogus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(v1) err = %v, want ErrCorrupt", err)
	}
}

// TestReadBlockRangeCoalesced: a range read must return exactly the
// concatenation of the per-block payloads in one ReadAt, and count one
// block read per covered block.
func TestReadBlockRangeCoalesced(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := packSuite(t, "fft", "lzss")
	key, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	idx := obj.Index()
	n := len(idx.Blocks)
	before := s.Stats().BlockReads
	buf, err := obj.ReadBlockRange(0, n-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < n; i++ {
		single, err := obj.ReadBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, single...)
		if got := idx.PayloadRangeSlice(buf, 0, 0, i); !bytes.Equal(got, single) {
			t.Fatalf("block %d payload differs between range and single read", i)
		}
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("range read differs from concatenated single reads")
	}
	// n from the range + n singles.
	if got := s.Stats().BlockReads - before; got != int64(2*n) {
		t.Fatalf("block reads = %d, want %d", got, 2*n)
	}
	if _, err := obj.ReadBlockRange(3, 1, nil); err == nil {
		t.Fatal("inverted range accepted")
	}
}

// TestVerifiedBlockAllocFree pins the zero-alloc L2 read path: with
// pooled compressed and plain scratch, a verified block read costs no
// allocations in steady state — the satellite budget of the decode
// fast-path PR (the l2-index-read benchmark row tracks the same
// number).
func TestVerifiedBlockAllocFree(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := packSuite(t, "fft", "dict")
	key, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	idx := obj.Index()
	codec, err := idx.NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	id := len(idx.Blocks) / 2
	comps := compress.GetBuf(int(idx.Blocks[id].Len))
	plain := compress.GetBuf(idx.Blocks[id].Words * 4)
	defer func() {
		compress.PutBuf(comps)
		compress.PutBuf(plain)
	}()
	if _, _, err := obj.VerifiedBlock(codec, id, comps[:0], plain[:0]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := obj.VerifiedBlock(codec, id, comps[:0], plain[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("VerifiedBlock allocs/op = %.1f, want 0", allocs)
	}
}
