package pack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"apbcc/internal/compress"
)

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
// block located through the index (its container slice, verified by
// VerifyBlock) must be byte- and CRC-identical to the same block from a
// full Unpack.
func TestIndexLocatesEveryBlock(t *testing.T) {
	for _, codecName := range []string{"dict", "lzss", "identity", "cpack", "bdi"} {
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
			if len(idx.Blocks) != full.Graph.NumBlocks() {
				t.Fatalf("index has %d blocks, program %d", len(idx.Blocks), full.Graph.NumBlocks())
			}
			for i, b := range full.Graph.Blocks() {
				want, err := full.BlockBytes(b.ID)
				if err != nil {
					t.Fatal(err)
				}
				e := idx.Blocks[i]
				comp := data[idx.PayloadBase+e.Off : idx.PayloadBase+e.Off+e.Len]
				plain, err := idx.VerifyBlock(codec, i, comp, nil)
				if err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
				if !bytes.Equal(plain, want) {
					t.Fatalf("block %d image differs from full Unpack", i)
				}
				if got := crc32.ChecksumIEEE(plain); got != e.CRC {
					t.Fatalf("block %d CRC %#x != index %#x", i, got, e.CRC)
				}
			}
		})
	}
}

// TestReadIndexAt drives the ReaderAt path, including the
// grow-the-prefix retry and the size cross-check.
func TestReadIndexAt(t *testing.T) {
	data, _ := packWorkload(t, "fft", "dict")
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
	// Only v3 parses: the retired v1 and v2 formats and any later one
	// are ErrBadVersion (the version is a single-byte uvarint).
	for _, v := range []byte{1, 2, Version + 1} {
		mut := bytes.Clone(data)
		mut[len(Magic)] = v
		if _, err := ParseIndex(mut); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("ParseIndex(version %d) err = %v, want ErrBadVersion", v, err)
		}
	}
}

// TestUnpackRejectsBadEdgeProb pins the hostile-container check: NaN,
// Inf or out-of-range edge probabilities (which would poison Markov
// prefetch scoring) must be ErrCorrupt.
func TestUnpackRejectsBadEdgeProb(t *testing.T) {
	data, w := packWorkload(t, "crc32", "identity")
	// Locate a real edge probability's fixed64 encoding and overwrite it
	// in place; nothing else in the container changes.
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
		t.Fatal("no uniquely-locatable edge probability")
	}
	pos := bytes.Index(data, probBits[:])
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.25, 1.5} {
		mut := bytes.Clone(data)
		binary.LittleEndian.PutUint64(mut[pos:], math.Float64bits(bad))
		if _, _, _, err := Unpack("hostile", mut); !errors.Is(err, ErrCorrupt) {
			t.Errorf("prob %v: err = %v, want ErrCorrupt", bad, err)
		}
	}
	// Sanity: the untouched container still unpacks.
	if _, _, _, err := Unpack("ok", data); err != nil {
		t.Fatalf("baseline: %v", err)
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
			off := len(prefix) + int(e.Off-idx.Blocks[lo].Off)
			if got := buf[off : off+int(e.Len)]; !bytes.Equal(got, want) {
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

// hugeCountContainers returns two truncated containers whose counts
// claim more than their bytes could hold: 23 bytes claiming 1<<20
// blocks, and 31 bytes claiming 1<<22 edges after one empty block.
func hugeCountContainers() (blocks, edges []byte) {
	header := func(buf *bytes.Buffer) {
		buf.Write(Magic)
		writeUvarint(buf, Version)
		writeBytes(buf, []byte("dict"))
		writeBytes(buf, nil) // empty model
		writeFixed32(buf, 0)
		writeUvarint(buf, 0) // entry
	}
	var b bytes.Buffer
	header(&b)
	writeUvarint(&b, 1<<20) // nblocks
	b.Write(make([]byte, 4))
	var e bytes.Buffer
	header(&e)
	writeUvarint(&e, 1)            // nblocks
	e.Write([]byte{0, 0, 0, 0, 0}) // no label or func, 0 words at offset 0, 0 bytes long
	writeFixed32(&e, 0)
	writeUvarint(&e, 1<<22) // nedges
	e.WriteByte(0)
	return b.Bytes(), e.Bytes()
}

// TestParseIndexBoundsCountsByInput: a block or edge count larger than
// the rest of the input could hold fails with ErrCorrupt before a table
// is sized from it, so a few hostile bytes cannot cost megabytes.
func TestParseIndexBoundsCountsByInput(t *testing.T) {
	blocks, edges := hugeCountContainers()
	for _, c := range []struct {
		name string
		data []byte
	}{{"blocks", blocks}, {"edges", edges}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseIndex(c.data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Errorf("%s (%d bytes): ParseIndex allocated %d B before failing, want under 64 KiB", c.name, len(c.data), n)
		}
	}
}

// claimedPayloads returns an identity container of one-word blocks
// whose index claims the payload lengths lens, each block at the running
// sum of the lengths before it, summed as uint64 so that it may wrap.
// The payload section claims the sum and holds pay.
func claimedPayloads(pay []byte, lens ...uint64) []byte {
	var buf bytes.Buffer
	buf.Write(Magic)
	writeUvarint(&buf, Version)
	writeBytes(&buf, []byte("identity"))
	writeBytes(&buf, nil) // empty model
	writeFixed32(&buf, 0)
	writeUvarint(&buf, 0) // entry
	writeUvarint(&buf, uint64(len(lens)))
	var off uint64
	for _, n := range lens {
		writeBytes(&buf, []byte("b")) // label
		writeBytes(&buf, nil)         // func
		writeUvarint(&buf, 1)         // words
		writeUvarint(&buf, off)
		writeUvarint(&buf, n)
		writeFixed32(&buf, 0)
		off += n
	}
	writeUvarint(&buf, 0) // nedges
	writeUvarint(&buf, 0) // group words (no directory)
	writeUvarint(&buf, off)
	buf.Write(pay)
	return buf.Bytes()
}

// TestParseIndexBoundsContainerSize: a Layout row holds 32-bit offsets,
// so an index that describes a container of 4 GiB or more fails
// ParseIndex and Unpack with ErrCorrupt, while one that describes a
// byte less parses. Two 2 GiB payloads cross the bound; so do lengths
// whose running offset wraps round to the 2 payload bytes that follow,
// which used to make Unpack slice past its input and panic.
func TestParseIndexBoundsContainerSize(t *testing.T) {
	// Every length here takes a 5-byte uvarint, so the index is as long
	// whatever the lengths are.
	base := uint64(len(claimedPayloads(nil, 1<<31, 1<<31)))
	largest := claimedPayloads(nil, 1<<31, math.MaxUint32-base-1<<31)
	if idx, err := ParseIndex(largest); err != nil || uint64(idx.PayloadBase) != base ||
		idx.PayloadBase+idx.PayloadLen != math.MaxUint32 {
		t.Fatalf("an index of a %d-byte container: %v", uint64(math.MaxUint32), err)
	}
	for name, data := range map[string][]byte{
		"one byte over": claimedPayloads(nil, 1<<31, math.MaxUint32-base-1<<31+1),
		"4 GiB":         claimedPayloads(nil, 1<<31, 1<<31),
		"wrapped":       claimedPayloads([]byte{0, 0}, 1<<63-1, 1<<63-1, 4),
	} {
		if _, err := ParseIndex(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ParseIndex err = %v, want ErrCorrupt", name, err)
		}
		if _, _, _, err := Unpack(name, data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Unpack err = %v, want ErrCorrupt", name, err)
		}
	}
}
