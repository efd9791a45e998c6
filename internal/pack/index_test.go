package pack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"apbcc/internal/compress"
	"apbcc/internal/program"
	"apbcc/internal/workloads"
)

// packWorkloadVersion packs a suite workload in the requested container
// format version.
func packWorkloadVersion(t testing.TB, workload, codecName string, version int) ([]byte, *workloads.Workload) {
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
	data, err := packVersion(w.Program, codec, 1, version)
	if err != nil {
		t.Fatal(err)
	}
	return data, w
}

// TestCrossVersionUnpackMatrix pins Unpack equivalence across all
// three container format versions: for every codec, packing the same
// program as v1, v2 and v3 must unpack to identical instruction
// streams, CFGs and block images.
func TestCrossVersionUnpackMatrix(t *testing.T) {
	versions := []int{VersionV1, VersionV2, Version}
	for _, codecName := range compress.Names() {
		t.Run(codecName, func(t *testing.T) {
			w, err := workloads.ByName("fft")
			if err != nil {
				t.Fatal(err)
			}
			want, err := w.Program.CodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			progs := make([]*programInfo, len(versions))
			for vi, version := range versions {
				data, _ := packWorkloadVersion(t, "fft", codecName, version)
				p, _, info, err := Unpack("fft", data)
				if err != nil {
					t.Fatalf("v%d unpack: %v", version, err)
				}
				if info.Version != version {
					t.Fatalf("info version = %d, want %d", info.Version, version)
				}
				// Only v3 carries a group directory, and only for codecs
				// that can slice payloads into word groups.
				_, groupable := compress.AsGroupCodec(mustCodec(t, codecName, want))
				if wantGW := version == Version && groupable; (info.GroupWords > 0) != wantGW {
					t.Fatalf("v%d GroupWords = %d, groupable = %v", version, info.GroupWords, groupable)
				}
				c, err := p.CodeBytes()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(c, want) {
					t.Fatalf("v%d reconstructed code image differs from the original", version)
				}
				progs[vi] = &programInfo{p: p, info: info}
			}
			// Identical payload bytes in every format: the index and group
			// directory add metadata, they do not change compression.
			for vi := 1; vi < len(progs); vi++ {
				if progs[vi].info.CompressedBytes != progs[0].info.CompressedBytes {
					t.Errorf("payload bytes differ: v%d=%d v%d=%d", versions[0],
						progs[0].info.CompressedBytes, versions[vi], progs[vi].info.CompressedBytes)
				}
			}
			p1, p2 := progs[0].p, progs[len(progs)-1].p
			if p1.Graph.NumBlocks() != p2.Graph.NumBlocks() {
				t.Fatal("block counts differ across versions")
			}
			for _, b := range p1.Graph.Blocks() {
				b2 := p2.Graph.Block(b.ID)
				if b.Label != b2.Label || b.Func != b2.Func || b.Words() != b2.Words() {
					t.Fatalf("block %d metadata differs across versions", b.ID)
				}
				e1, e2 := p1.Graph.Succs(b.ID), p2.Graph.Succs(b.ID)
				if len(e1) != len(e2) {
					t.Fatalf("block %d out-degree differs", b.ID)
				}
				for i := range e1 {
					if e1[i] != e2[i] {
						t.Fatalf("block %d edge %d differs: %+v vs %+v", b.ID, i, e1[i], e2[i])
					}
				}
			}
		})
	}
}

// programInfo pairs one version's Unpack results in the cross-version
// matrix.
type programInfo struct {
	p    *program.Program
	info *Info
}

// mustCodec trains a codec for test use.
func mustCodec(t testing.TB, name string, code []byte) compress.Codec {
	t.Helper()
	c, err := compress.New(name, code)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestIndexLocatesEveryBlock is the random-access acceptance pin: every
// block fetched through the v2 index (one ReadAt plus one decompress)
// must be byte- and CRC-identical to the same block from a full Unpack.
func TestIndexLocatesEveryBlock(t *testing.T) {
	for _, codecName := range []string{"dict", "lzss", "identity", "cpack", "bdi"} {
		t.Run(codecName, func(t *testing.T) {
			data, _ := packWorkloadVersion(t, "fft", codecName, Version)
			idx, err := ParseIndex(data)
			if err != nil {
				t.Fatal(err)
			}
			codec, err := idx.NewCodec()
			if err != nil {
				t.Fatal(err)
			}
			full, _, _, err := Unpack("fft", data)
			if err != nil {
				t.Fatal(err)
			}
			if len(idx.Blocks) != full.Graph.NumBlocks() {
				t.Fatalf("index has %d blocks, program %d", len(idx.Blocks), full.Graph.NumBlocks())
			}
			r := bytes.NewReader(data)
			for i, b := range full.Graph.Blocks() {
				want, err := full.BlockBytes(b.ID)
				if err != nil {
					t.Fatal(err)
				}
				comp, plain, err := idx.DecompressBlockAt(r, codec, i, nil)
				if err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
				if !bytes.Equal(plain, want) {
					t.Fatalf("block %d image differs from full Unpack", i)
				}
				if got := crc32.ChecksumIEEE(plain); got != idx.Blocks[i].CRC {
					t.Fatalf("block %d CRC %#x != index %#x", i, got, idx.Blocks[i].CRC)
				}
				// The raw payload must be the exact container slice.
				e := idx.Blocks[i]
				if !bytes.Equal(comp, data[idx.PayloadBase+e.Off:idx.PayloadBase+e.Off+e.Len]) {
					t.Fatalf("block %d payload differs from container slice", i)
				}
			}
		})
	}
}

// TestReadIndexAt drives the ReaderAt path, including the
// grow-the-prefix retry and the size cross-check.
func TestReadIndexAt(t *testing.T) {
	data, _ := packWorkloadVersion(t, "fft", "dict", Version)
	idx, err := ReadIndexAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ParseIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	if idx.PayloadBase != ref.PayloadBase || idx.PayloadLen != ref.PayloadLen ||
		len(idx.Blocks) != len(ref.Blocks) {
		t.Fatalf("ReadIndexAt diverges from ParseIndex: %+v vs %+v", idx, ref)
	}
	// A size that does not match the index's own accounting is corrupt
	// (e.g. a truncated object file).
	if _, err := ReadIndexAt(bytes.NewReader(data), int64(len(data)-1)); err == nil {
		t.Fatal("truncated container accepted")
	}
	// v1 containers have no index.
	v1, _ := packWorkloadVersion(t, "fft", "dict", VersionV1)
	if _, err := ParseIndex(v1); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("ParseIndex(v1) err = %v, want ErrBadVersion", err)
	}
}

// TestUnpackRejectsBadEdgeProb pins the hostile-container check: NaN,
// Inf or out-of-range edge probabilities (which would poison Markov
// prefetch scoring) must be ErrCorrupt in both format versions.
func TestUnpackRejectsBadEdgeProb(t *testing.T) {
	for _, version := range []int{VersionV1, Version} {
		data, w := packWorkloadVersion(t, "crc32", "identity", version)
		// Locate a real edge probability's fixed64 encoding and overwrite
		// it in place; nothing else in the container changes.
		var probBits [8]byte
		var found bool
		for _, b := range w.Program.Graph.Blocks() {
			for _, e := range w.Program.Graph.Succs(b.ID) {
				binary.LittleEndian.PutUint64(probBits[:], math.Float64bits(e.Prob))
				if bytes.Count(data, probBits[:]) == 1 {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Fatalf("v%d: no uniquely-locatable edge probability", version)
		}
		pos := bytes.Index(data, probBits[:])
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.25, 1.5} {
			mut := bytes.Clone(data)
			binary.LittleEndian.PutUint64(mut[pos:], math.Float64bits(bad))
			if _, _, _, err := Unpack("hostile", mut); !errors.Is(err, ErrCorrupt) {
				t.Errorf("v%d prob %v: err = %v, want ErrCorrupt", version, bad, err)
			}
		}
		// Sanity: the untouched container still unpacks.
		if _, _, _, err := Unpack("ok", data); err != nil {
			t.Fatalf("v%d baseline: %v", version, err)
		}
	}
}

// TestReadPayloadRangeAt checks the coalescing primitive: any block
// range read in one ReadAt must slice into exactly the per-block
// payloads the container holds, and invalid ranges must error.
func TestReadPayloadRangeAt(t *testing.T) {
	data, _ := packWorkload(t, "fft", "lzss")
	idx, err := ParseIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(data)
	n := len(idx.Blocks)
	ranges := [][2]int{{0, 0}, {0, n - 1}, {n / 2, n - 1}, {1, 1}, {n / 3, 2 * n / 3}}
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		if lo > hi {
			continue
		}
		prefix := []byte{0xAB, 0xCD}
		buf, err := idx.ReadPayloadRangeAt(r, lo, hi, prefix)
		if err != nil {
			t.Fatalf("range %d..%d: %v", lo, hi, err)
		}
		if !bytes.Equal(buf[:2], prefix) {
			t.Fatalf("range %d..%d clobbered dst prefix", lo, hi)
		}
		for i := lo; i <= hi; i++ {
			e := idx.Blocks[i]
			want := data[idx.PayloadBase+e.Off : idx.PayloadBase+e.Off+e.Len]
			if got := idx.PayloadRangeSlice(buf, 2, lo, i); !bytes.Equal(got, want) {
				t.Fatalf("range %d..%d: block %d payload differs", lo, hi, i)
			}
		}
	}
	for _, bad := range [][2]int{{-1, 0}, {2, 1}, {0, n}, {n, n}} {
		if _, err := idx.ReadPayloadRangeAt(r, bad[0], bad[1], nil); err == nil {
			t.Fatalf("range %d..%d: no error", bad[0], bad[1])
		}
	}
}
