package pack

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"apbcc/internal/compress"
	"apbcc/internal/isa"
)

// TestParseIndexGroupDirectory pins the parsed v3 directory against the
// codec's own offset scan: for every group-capable codec the index must
// carry exactly the offsets AppendGroupOffsets derives from each
// payload, and for entropy codecs the directory must be absent.
func TestParseIndexGroupDirectory(t *testing.T) {
	for _, codecName := range compress.Names() {
		t.Run(codecName, func(t *testing.T) {
			data, _ := packWorkload(t, "fft", codecName)
			idx, err := ParseIndex(data)
			if err != nil {
				t.Fatal(err)
			}
			codec, err := idx.NewCodec()
			if err != nil {
				t.Fatal(err)
			}
			gc, groupable := compress.AsGroupCodec(codec)
			if idx.HasGroupIndex() != groupable {
				t.Fatalf("HasGroupIndex = %v, codec groupable = %v", idx.HasGroupIndex(), groupable)
			}
			if !groupable {
				if idx.NumGroups() != 0 || idx.BlockGroupOffsets(0) != nil {
					t.Fatal("non-group container exposes group offsets")
				}
				return
			}
			if idx.GroupWords != gc.GroupWords() {
				t.Fatalf("GroupWords = %d, codec says %d", idx.GroupWords, gc.GroupWords())
			}
			total := 0
			for i := range idx.Blocks {
				e := idx.Blocks[i]
				pay := data[idx.PayloadBase+e.Off : idx.PayloadBase+e.Off+e.Len]
				want, err := gc.AppendGroupOffsets(nil, pay)
				if err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
				got := idx.BlockGroupOffsets(i)
				if len(got) != len(want) {
					t.Fatalf("block %d: %d offsets, want %d", i, len(got), len(want))
				}
				for g := range got {
					if got[g] != want[g] {
						t.Fatalf("block %d group %d: offset %d, want %d", i, g, got[g], want[g])
					}
				}
				total += len(got)
			}
			if idx.NumGroups() != total {
				t.Fatalf("NumGroups = %d, want %d", idx.NumGroups(), total)
			}
		})
	}
}

// TestReadWordRangeAtMatchesUnpack is the v3 serving-path acceptance
// pin: any word span read through the group directory (one bounded
// ReadAt plus per-group decode) must be byte-identical to the same span
// of the fully unpacked block, for every codec and block.
func TestReadWordRangeAtMatchesUnpack(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, codecName := range compress.Names() {
		t.Run(codecName, func(t *testing.T) {
			data, _ := packWorkload(t, "fft", codecName)
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
			rd := bytes.NewReader(data)
			if !idx.HasGroupIndex() {
				_, _, err := idx.ReadWordRangeAt(rd, codec, 0, 0, 1, nil, nil)
				if !errors.Is(err, ErrNoGroupIndex) {
					t.Fatalf("err = %v, want ErrNoGroupIndex", err)
				}
				return
			}
			for i, b := range full.Graph.Blocks() {
				want, err := full.BlockBytes(b.ID)
				if err != nil {
					t.Fatal(err)
				}
				nWords := len(want) / isa.WordSize
				for trial := 0; trial < 16 && nWords > 0; trial++ {
					word := r.Intn(nWords)
					nw := 1 + r.Intn(nWords-word)
					if trial == 0 {
						word, nw = 0, nWords // whole block through the group path
					}
					_, plain, err := idx.ReadWordRangeAt(rd, codec, i, word, nw, nil, nil)
					if err != nil {
						t.Fatalf("block %d words (%d,%d): %v", i, word, nw, err)
					}
					if !bytes.Equal(plain, want[word*isa.WordSize:(word+nw)*isa.WordSize]) {
						t.Fatalf("block %d words (%d,%d) differ from full Unpack", i, word, nw)
					}
				}
			}
			// Out-of-range spans and blocks are corruption, not panics.
			for _, bad := range [][3]int{{-1, 0, 1}, {len(idx.Blocks), 0, 1},
				{0, -1, 1}, {0, 0, 0}, {0, idx.Blocks[0].Words, 1}, {0, 0, idx.Blocks[0].Words + 1}} {
				if _, _, err := idx.ReadWordRangeAt(rd, codec, bad[0], bad[1], bad[2], nil, nil); !errors.Is(err, ErrCorrupt) {
					t.Errorf("block %d words (%d,%d): err = %v, want ErrCorrupt", bad[0], bad[1], bad[2], err)
				}
			}
		})
	}
}

// TestReadWordRangeAtCodecMismatch: serving a container with the wrong
// codec must fail loudly — a non-group codec with ErrNoGroupIndex, a
// group codec of different granularity with ErrCorrupt — never decode
// garbage.
func TestReadWordRangeAtCodecMismatch(t *testing.T) {
	data, w := packWorkload(t, "fft", "bdi")
	idx, err := ParseIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	code, err := w.Program.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(data)
	if _, _, err := idx.ReadWordRangeAt(rd, mustCodec(t, "huffman", code), 0, 0, 1, nil, nil); !errors.Is(err, ErrNoGroupIndex) {
		t.Fatalf("huffman: err = %v, want ErrNoGroupIndex", err)
	}
	// cpack groups 32 words, bdi 8: the directory geometry cannot match.
	if _, _, err := idx.ReadWordRangeAt(rd, mustCodec(t, "cpack", code), 0, 0, 1, nil, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cpack: err = %v, want ErrCorrupt", err)
	}
}

// TestReadWordRangeAtAllocFree pins the steady-state serving cost: with
// pre-sized compressed and plain buffers, a word read through
// the group directory performs zero allocations.
func TestReadWordRangeAtAllocFree(t *testing.T) {
	for _, codecName := range []string{"bdi", "cpack", "dict", "identity"} {
		data, _ := packWorkload(t, "fft", codecName)
		idx, err := ParseIndex(data)
		if err != nil {
			t.Fatal(err)
		}
		codec, err := idx.NewCodec()
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(data)
		block := 0
		for i := range idx.Blocks {
			if idx.Blocks[i].Words > idx.Blocks[block].Words {
				block = i
			}
		}
		word := idx.Blocks[block].Words / 2
		comp := make([]byte, 0, 1<<16)
		dst := make([]byte, 0, 1<<16)
		allocs := testing.AllocsPerRun(100, func() {
			_, plain, err := idx.ReadWordRangeAt(rd, codec, block, word, 1, comp, dst)
			if err != nil || len(plain) != isa.WordSize {
				t.Fatalf("%s: %v (%d bytes)", codecName, err, len(plain))
			}
		})
		if allocs > 0 {
			t.Errorf("%s: ReadWordRangeAt allocs/op = %.1f, want 0", codecName, allocs)
		}
	}
}

// craftV3 hand-builds a minimal one-block identity container whose
// group directory is supplied by the caller, for hostile-directory
// tests. The block holds 16 words (64 payload bytes), so the valid
// directory is groupWords=8 with offsets {0, 32}.
func craftV3(dir func(buf *bytes.Buffer)) []byte {
	pay := make([]byte, 64)
	for i := range pay {
		pay[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	buf.Write(Magic)
	writeUvarint(&buf, Version)
	writeBytes(&buf, []byte("identity"))
	writeBytes(&buf, nil) // empty model
	writeFixed32(&buf, crc32.ChecksumIEEE(pay))
	writeUvarint(&buf, 0)         // entry
	writeUvarint(&buf, 1)         // nblocks
	writeBytes(&buf, []byte("b")) // label
	writeBytes(&buf, nil)         // func
	writeUvarint(&buf, 16)        // words
	writeUvarint(&buf, 0)         // payload off
	writeUvarint(&buf, 64)        // payload len
	writeFixed32(&buf, crc32.ChecksumIEEE(pay))
	writeUvarint(&buf, 0) // nedges
	dir(&buf)
	writeUvarint(&buf, 64) // payload section length
	buf.Write(pay)
	return buf.Bytes()
}

// TestParseIndexRejectsHostileDirectory drives every directory
// validation branch with hand-built containers: overlapping groups,
// out-of-bounds offsets, oversized group words, truncation. All must
// surface as ErrCorrupt — overlapping or escaping groups would turn a
// word read into an out-of-bounds slice downstream.
func TestParseIndexRejectsHostileDirectory(t *testing.T) {
	valid := craftV3(func(buf *bytes.Buffer) {
		writeUvarint(buf, 8)  // group words
		writeUvarint(buf, 0)  // group 0 at 0
		writeUvarint(buf, 32) // group 1 at 0+32
	})
	idx, err := ParseIndex(valid)
	if err != nil {
		t.Fatalf("valid crafted container rejected: %v", err)
	}
	if idx.GroupWords != 8 || idx.NumGroups() != 2 {
		t.Fatalf("GroupWords=%d NumGroups=%d, want 8, 2", idx.GroupWords, idx.NumGroups())
	}
	if offs := idx.BlockGroupOffsets(0); len(offs) != 2 || offs[0] != 0 || offs[1] != 32 {
		t.Fatalf("offsets = %v, want [0 32]", offs)
	}
	codec := identityCodec(t)
	_, plain, err := idx.ReadWordRangeAt(bytes.NewReader(valid), codec, 0, 9, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := valid[len(valid)-64:][9*4 : 12*4]; !bytes.Equal(plain, want) {
		t.Fatalf("crafted word read = %x, want %x", plain, want)
	}

	hostile := []struct {
		name string
		dir  func(buf *bytes.Buffer)
	}{
		{"overlapping groups", func(buf *bytes.Buffer) {
			writeUvarint(buf, 8)
			writeUvarint(buf, 0)
			writeUvarint(buf, 0) // zero delta: group 1 overlaps group 0
		}},
		{"offset at payload end", func(buf *bytes.Buffer) {
			writeUvarint(buf, 8)
			writeUvarint(buf, 0)
			writeUvarint(buf, 64) // group 1 starts past the last payload byte
		}},
		{"offset beyond payload", func(buf *bytes.Buffer) {
			writeUvarint(buf, 8)
			writeUvarint(buf, 200)
			writeUvarint(buf, 1)
		}},
		{"wrapping delta", func(buf *bytes.Buffer) {
			writeUvarint(buf, 8)
			writeUvarint(buf, 40)
			writeUvarint(buf, 1<<64-30) // 40 plus this wraps round to 10
		}},
		{"giant group words", func(buf *bytes.Buffer) {
			writeUvarint(buf, 1<<30) // above maxBlockWords
		}},
		{"truncated directory", func(buf *bytes.Buffer) {
			writeUvarint(buf, 8)
			writeUvarint(buf, 0)
			// second offset missing: the payload-length field is consumed
			// as the delta and the parse desynchronizes
		}},
	}
	for _, tc := range hostile {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseIndex(craftV3(tc.dir)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// identityCodec returns the trained identity codec (training is a
// no-op, but the constructor path is the real one).
func identityCodec(t testing.TB) compress.Codec {
	t.Helper()
	c, err := compress.New("identity", nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// FuzzParseIndexV3 throws mutated containers at the v3 parser. Parsed
// indexes must uphold the directory invariants (strictly increasing
// offsets inside each block's payload, derived group counts), and a
// word read through an accepted index must never panic — errors are
// fine, out-of-bounds slices are not.
func FuzzParseIndexV3(f *testing.F) {
	for _, codec := range []string{"bdi", "cpack", "dict", "identity", "huffman"} {
		data, _ := packWorkload(f, "fft", codec)
		f.Add(data, uint16(0), uint16(0))
	}
	f.Add(craftV3(func(buf *bytes.Buffer) {
		writeUvarint(buf, 8)
		writeUvarint(buf, 0)
		writeUvarint(buf, 32)
	}), uint16(0), uint16(9))
	blocks, edges := hugeCountContainers()
	f.Add(blocks, uint16(0), uint16(0))
	f.Add(edges, uint16(0), uint16(0))
	f.Add(claimedPayloads(nil, 1<<31, 1<<31), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, block, word uint16) {
		idx, err := ParseIndex(data)
		if err != nil {
			return
		}
		if idx.HasGroupIndex() {
			for i := range idx.Blocks {
				offs := idx.BlockGroupOffsets(i)
				want := (idx.Blocks[i].Words + idx.GroupWords - 1) / idx.GroupWords
				if len(offs) != want {
					t.Fatalf("block %d: %d offsets, want %d", i, len(offs), want)
				}
				for g, o := range offs {
					if int64(o) >= idx.Blocks[i].Len || (g > 0 && o <= offs[g-1]) {
						t.Fatalf("block %d group %d: offset %d escapes payload of %d", i, g, o, idx.Blocks[i].Len)
					}
				}
			}
		}
		// Only a full container can serve payload reads.
		if idx.PayloadBase+idx.PayloadLen != int64(len(data)) {
			return
		}
		codec, err := idx.NewCodec()
		if err != nil {
			return
		}
		b := int(block) % len(idx.Blocks)
		if idx.Blocks[b].Words == 0 {
			return
		}
		w := int(word) % idx.Blocks[b].Words
		_, plain, err := idx.ReadWordRangeAt(bytes.NewReader(data), codec, b, w, 1, nil, nil)
		if err == nil && len(plain) != isa.WordSize {
			t.Fatalf("word read returned %d bytes", len(plain))
		}
	})
}
