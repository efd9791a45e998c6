// Index: the indexed container's block index table (v2/v3), and random
// block access through it. The index is a pure prefix of the container
// (header, per-block table, edges, and in v3 the sub-block group
// directory), so a reader can locate and decompress any single block
// with one bounded metadata read plus one ReadAt of the payload bytes —
// the software analogue of block-granular access to compressed memory,
// and what lets the disk store serve blocks without inflating whole
// containers. With a v3 group directory the same holds one level down:
// ReadWordRangeAt serves any word span by reading and decoding only the
// covering word groups.
package pack

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/faults"
	"apbcc/internal/isa"
)

// Failpoints on the container's random-access disk boundaries. Bit
// flips are injected one layer up (store.read-at), so these sites
// carry latency and transient-error actions only.
var (
	faultIndexRead   = faults.Register("pack.index-read")
	faultPayloadRead = faults.Register("pack.payload-read")
)

// IndexEntry locates one block's compressed payload inside an indexed
// container and carries enough metadata to verify it in isolation.
type IndexEntry struct {
	Label string
	Func  string
	Words int    // plain size in ERI32 words
	Off   int64  // payload offset, relative to Index.PayloadBase
	Len   int64  // compressed payload length in bytes
	CRC   uint32 // IEEE CRC-32 of the plain block image
}

// Index is the parsed metadata prefix of an indexed container:
// everything except the payload bytes themselves. It is sufficient to
// reconstruct the CFG, rebuild the trained codec, and read any block's
// compressed payload directly by offset — and, when a v3 group
// directory is present, any word span within a block.
type Index struct {
	Version  int // container format version (VersionV2 or Version)
	Codec    string
	Model    []byte
	ImageCRC uint32 // IEEE CRC-32 of the whole plain image
	Entry    cfg.BlockID
	Blocks   []IndexEntry
	Edges    []cfg.Edge

	// GroupWords is the v3 group directory granularity in plain words;
	// 0 means the container has no directory (v2, or a codec that
	// cannot slice) and word reads must fall back to full-block decode.
	GroupWords int

	PayloadBase int64 // absolute container offset of the payload section
	PayloadLen  int64 // total payload section length in bytes

	// Group start offsets for all blocks, flattened in block order:
	// block i's ceil(Words/GroupWords) offsets occupy
	// groupOffs[groupBase[i]:groupBase[i+1]], each relative to the
	// block's payload start. Flat storage keeps the parse to two
	// allocations regardless of block count.
	groupOffs []uint32
	groupBase []int
}

// indexReadChunk is the initial (and growth-step) prefix size for
// ReadIndexAt. Suite container metadata fits in one chunk; hostile or
// huge inputs grow geometrically up to the file size.
const indexReadChunk = 64 << 10

// maxBlockWords bounds a single block's claimed plain size (2^26
// words = 256 MiB): far above any real basic block, small enough that
// per-block arithmetic can never overflow and allocation decisions
// stay sane even before payload verification exposes the lie.
const maxBlockWords = 1 << 26

// ParseIndex parses the metadata prefix of an indexed (v2 or v3)
// container. data may be the full container or any prefix long enough
// to hold the metadata; payload bytes after the index are not touched.
// v1 containers are rejected with ErrBadVersion: they have no index, so
// blocks cannot be located without a full decompression pass.
func ParseIndex(data []byte) (*Index, error) {
	r := &reader{data: data}
	if !bytes.Equal(r.take(len(Magic)), Magic) {
		return nil, ErrBadMagic
	}
	v := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if v != Version && v != VersionV2 {
		return nil, fmt.Errorf("%w: %d (index requires v%d or v%d)", ErrBadVersion, v, VersionV2, Version)
	}
	idx := &Index{Version: int(v)}
	idx.Codec = string(r.bytes())
	idx.Model = bytes.Clone(r.bytes())
	crcBytes := r.take(4)
	if r.err != nil {
		return nil, r.err
	}
	idx.ImageCRC = binary.LittleEndian.Uint32(crcBytes)

	idx.Entry = cfg.BlockID(r.uvarint())
	nblocks := int(r.uvarint())
	if r.err != nil || nblocks <= 0 || nblocks > 1<<20 {
		return nil, fmt.Errorf("%w: block count", ErrCorrupt)
	}
	idx.Blocks = make([]IndexEntry, nblocks)
	var off int64
	for i := range idx.Blocks {
		e := &idx.Blocks[i]
		e.Label = string(r.bytes())
		e.Func = string(r.bytes())
		e.Words = int(r.uvarint())
		// Bound the claimed plain size: a hostile Words makes every
		// derived quantity (pre-allocations, e.Words*WordSize length
		// checks) lie, and a 2^63-range claim wraps int negative.
		if e.Words < 0 || e.Words > maxBlockWords {
			return nil, fmt.Errorf("%w: block %d claims %d words", ErrCorrupt, i, e.Words)
		}
		e.Off = int64(r.uvarint())
		e.Len = int64(r.uvarint())
		bcrc := r.take(4)
		if r.err != nil {
			return nil, r.err
		}
		e.CRC = binary.LittleEndian.Uint32(bcrc)
		// Payloads are packed back to back in block order; anything else
		// is not a container Pack could have produced.
		if e.Off != off || e.Len < 0 {
			return nil, fmt.Errorf("%w: block %d payload at %d/%d, want contiguous at %d",
				ErrCorrupt, i, e.Off, e.Len, off)
		}
		off += e.Len
	}
	nedges := int(r.uvarint())
	if r.err != nil || nedges < 0 || nedges > 1<<22 {
		return nil, fmt.Errorf("%w: edge count", ErrCorrupt)
	}
	idx.Edges = make([]cfg.Edge, nedges)
	for i := range idx.Edges {
		e := &idx.Edges[i]
		e.From = cfg.BlockID(r.uvarint())
		e.To = cfg.BlockID(r.uvarint())
		e.Kind = cfg.EdgeKind(r.uvarint())
		p64 := r.take(8)
		if r.err != nil {
			return nil, r.err
		}
		e.Prob = math.Float64frombits(binary.LittleEndian.Uint64(p64))
		if !validProb(e.Prob) {
			return nil, fmt.Errorf("%w: edge %d probability %v outside [0,1]", ErrCorrupt, i, e.Prob)
		}
	}
	if idx.Version == Version {
		if err := parseGroupDirectory(r, idx); err != nil {
			return nil, err
		}
	}
	idx.PayloadLen = int64(r.uvarint())
	if r.err != nil {
		return nil, r.err
	}
	if idx.PayloadLen != off {
		return nil, fmt.Errorf("%w: payload section %d bytes, index spans %d", ErrCorrupt, idx.PayloadLen, off)
	}
	idx.PayloadBase = int64(len(data) - len(r.data))
	return idx, nil
}

// parseGroupDirectory reads the v3 sub-block directory: groupWords,
// then per block the delta-encoded group start offsets. Offsets must be
// strictly increasing and land inside the block's payload — overlapping
// or out-of-bounds groups are not a container Pack could have produced,
// so anything else is ErrCorrupt. Group counts are derived from the
// already-validated block word counts; the offset slice pre-allocation
// is clamped by the remaining input (every offset costs at least one
// byte), so a hostile header cannot force an unbounded allocation.
func parseGroupDirectory(r *reader, idx *Index) error {
	gw := r.uvarint()
	if r.err != nil {
		return r.err
	}
	if gw > maxBlockWords {
		return fmt.Errorf("%w: group directory claims %d-word groups", ErrCorrupt, gw)
	}
	idx.GroupWords = int(gw)
	if idx.GroupWords == 0 {
		return nil
	}
	var total int64
	for i := range idx.Blocks {
		total += int64((idx.Blocks[i].Words + idx.GroupWords - 1) / idx.GroupWords)
	}
	if clamp := int64(len(r.data)); total > clamp {
		total = clamp
	}
	idx.groupOffs = make([]uint32, 0, total)
	idx.groupBase = make([]int, len(idx.Blocks)+1)
	for i := range idx.Blocks {
		idx.groupBase[i] = len(idx.groupOffs)
		e := &idx.Blocks[i]
		ngroups := (e.Words + idx.GroupWords - 1) / idx.GroupWords
		var cur uint64
		for g := 0; g < ngroups; g++ {
			d := r.uvarint()
			if r.err != nil {
				return r.err
			}
			if g == 0 {
				cur = d
			} else {
				if d == 0 {
					return fmt.Errorf("%w: block %d group %d offset not increasing", ErrCorrupt, i, g)
				}
				cur += d
			}
			if cur >= uint64(e.Len) || cur > math.MaxUint32 {
				return fmt.Errorf("%w: block %d group %d starts at %d of %d payload bytes",
					ErrCorrupt, i, g, cur, e.Len)
			}
			idx.groupOffs = append(idx.groupOffs, uint32(cur))
		}
	}
	idx.groupBase[len(idx.Blocks)] = len(idx.groupOffs)
	return nil
}

// HasGroupIndex reports whether the container carries a v3 group
// directory, i.e. whether ReadWordRangeAt can serve sub-block reads.
func (x *Index) HasGroupIndex() bool { return x.GroupWords > 0 }

// NumGroups returns the total word-group count across all blocks (0
// without a group directory).
func (x *Index) NumGroups() int { return len(x.groupOffs) }

// BlockGroupOffsets returns block i's group start offsets, each
// relative to the block's payload start. The returned slice aliases the
// index; callers must not mutate it. Nil without a group directory or
// for an out-of-range block.
func (x *Index) BlockGroupOffsets(i int) []uint32 {
	if x.GroupWords == 0 || i < 0 || i >= len(x.Blocks) {
		return nil
	}
	return x.groupOffs[x.groupBase[i]:x.groupBase[i+1]:x.groupBase[i+1]]
}

// ReadIndexAt parses a v2 container's index from a random-access
// reader holding size bytes, reading only as much of the metadata
// prefix as needed (geometrically growing from a 64 KiB guess). The
// payload section is never read.
func ReadIndexAt(r io.ReaderAt, size int64) (*Index, error) {
	n := int64(indexReadChunk)
	for {
		if n > size {
			n = size
		}
		if err := faultIndexRead.Err(); err != nil {
			return nil, fmt.Errorf("pack: index read: %w", err)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(io.NewSectionReader(r, 0, n), buf); err != nil {
			return nil, fmt.Errorf("pack: index read: %w", err)
		}
		idx, err := ParseIndex(buf)
		if err == nil {
			if idx.PayloadBase+idx.PayloadLen != size {
				return nil, fmt.Errorf("%w: container is %d bytes, index describes %d",
					ErrCorrupt, size, idx.PayloadBase+idx.PayloadLen)
			}
			return idx, nil
		}
		if n >= size {
			return nil, err
		}
		// The prefix may simply have cut the metadata short; retry with
		// a larger one before concluding the container is corrupt.
		n *= 4
	}
}

// NewCodec rebuilds the trained codec the container's payloads were
// compressed with.
func (x *Index) NewCodec() (compress.Codec, error) {
	c, err := compress.FromModel(x.Codec, x.Model)
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	return c, nil
}

// ReadPayloadAt reads block i's raw compressed payload from r via one
// ReadAt of exactly Len bytes. No decompression or verification
// happens; pair with VerifyBlock (or DecompressBlockAt) before trusting
// the bytes. Allocation-sensitive callers use ReadPayloadRangeAt with a
// pooled dst instead.
func (x *Index) ReadPayloadAt(r io.ReaderAt, i int) ([]byte, error) {
	return x.ReadPayloadRangeAt(r, i, i, nil)
}

// ReadPayloadRangeAt reads the concatenated compressed payloads of
// blocks lo..hi (inclusive) with one ReadAt, appending them to dst and
// returning the extended slice. Payloads are stored back to back in
// block order (ParseIndex rejects anything else), so the range is one
// contiguous byte span and block j's payload sits at
// dst[off + x.Blocks[j].Off - x.Blocks[lo].Off] for len x.Blocks[j].Len
// — see PayloadRangeSlice.
func (x *Index) ReadPayloadRangeAt(r io.ReaderAt, lo, hi int, dst []byte) ([]byte, error) {
	if lo < 0 || hi < lo || hi >= len(x.Blocks) {
		return nil, fmt.Errorf("%w: no block range %d..%d (%d blocks)", ErrCorrupt, lo, hi, len(x.Blocks))
	}
	start := x.Blocks[lo].Off
	n := int(x.Blocks[hi].Off + x.Blocks[hi].Len - start)
	base := len(dst)
	// The span size is known exactly, so grow in one step: a pooled
	// pre-sized dst never allocates, a nil dst costs one allocation.
	if cap(dst)-base < n {
		grown := make([]byte, base, base+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	if err := faultPayloadRead.Err(); err != nil {
		return nil, fmt.Errorf("pack: block %d..%d payload read: %w", lo, hi, err)
	}
	if _, err := r.ReadAt(dst[base:base+n], x.PayloadBase+start); err != nil {
		return nil, fmt.Errorf("pack: block %d..%d payload read: %w", lo, hi, err)
	}
	return dst, nil
}

// PayloadRangeSlice returns block i's payload within a buffer produced
// by ReadPayloadRangeAt(r, lo, hi, dst) with base == len(dst) at call
// time.
func (x *Index) PayloadRangeSlice(buf []byte, base, lo, i int) []byte {
	off := base + int(x.Blocks[i].Off-x.Blocks[lo].Off)
	return buf[off : off+int(x.Blocks[i].Len)]
}

// DecompressBlockAt reads block i's payload from r, decompresses it
// with the given codec appending to dst, and verifies the plain image
// against the index's per-block length and CRC. It returns the
// compressed payload and the grown dst; dst[start:] is the plain
// image. Any mismatch is ErrCorrupt (or ErrBadChecksum for a CRC
// failure).
func (x *Index) DecompressBlockAt(r io.ReaderAt, codec compress.Codec, i int, dst []byte) (comp, plain []byte, err error) {
	comp, err = x.ReadPayloadAt(r, i)
	if err != nil {
		return nil, nil, err
	}
	plain, err = x.VerifyBlock(codec, i, comp, dst)
	if err != nil {
		return nil, nil, err
	}
	return comp, plain, nil
}

// ReadWordRangeAt serves a sub-block word span through the v3 group
// directory: one bounded ReadAt of exactly the covering groups'
// compressed bytes, then one DecompressGroup per covering group —
// the rest of the block is never read or decoded. The span's plain
// bytes (nwords*4) are appended to dst; the compressed group bytes are
// appended to compDst (pass pooled buffers to stay allocation-free).
// Both grown slices are returned; plain's appended suffix is the word
// span. Containers or codecs without group support fail with
// ErrNoGroupIndex, which callers treat as "fall back to full-block
// decode". Unlike DecompressBlockAt there is no per-block CRC check —
// a group decode covers too little of the block to verify it — so the
// serving tier compares the returned group bytes with the same range
// (WordGroupSpan) of its resident copy of the container.
func (x *Index) ReadWordRangeAt(r io.ReaderAt, codec compress.Codec, block, word, nwords int, compDst, dst []byte) (comp, plain []byte, err error) {
	if !x.HasGroupIndex() {
		return compDst, dst, ErrNoGroupIndex
	}
	gc, ok := compress.AsGroupCodec(codec)
	if !ok {
		return compDst, dst, fmt.Errorf("%w: codec %s cannot group-decode", ErrNoGroupIndex, codec.Name())
	}
	gw := x.GroupWords
	if gc.GroupWords() != gw {
		return compDst, dst, fmt.Errorf("%w: directory has %d-word groups, codec %s decodes %d",
			ErrCorrupt, gw, codec.Name(), gc.GroupWords())
	}
	if block < 0 || block >= len(x.Blocks) {
		return compDst, dst, fmt.Errorf("%w: no block %d (%d blocks)", ErrCorrupt, block, len(x.Blocks))
	}
	e := x.Blocks[block]
	if word < 0 || nwords < 1 || word > e.Words-nwords {
		return compDst, dst, fmt.Errorf("%w: block %d words [%d,%d) outside %d-word block",
			ErrCorrupt, block, word, word+nwords, e.Words)
	}
	offs := x.BlockGroupOffsets(block)
	g0, g1 := word/gw, (word+nwords-1)/gw
	start, end := x.WordGroupSpan(block, word, nwords)
	n := int(end - start)
	cbase := len(compDst)
	if cap(compDst)-cbase < n {
		grown := make([]byte, cbase, cbase+n)
		copy(grown, compDst)
		compDst = grown
	}
	compDst = compDst[:cbase+n]
	if err := faultPayloadRead.Err(); err != nil {
		return compDst[:cbase], dst, fmt.Errorf("pack: block %d group read: %w", block, err)
	}
	if _, err := r.ReadAt(compDst[cbase:], x.PayloadBase+e.Off+start); err != nil {
		return compDst[:cbase], dst, fmt.Errorf("pack: block %d group read: %w", block, err)
	}
	span := compDst[cbase:]
	base := len(dst)
	out := dst
	if err := compress.FaultDecode.Err(); err != nil {
		return compDst, dst, fmt.Errorf("pack: block %d group decode: %w", block, err)
	}
	for g := g0; g <= g1; g++ {
		gEnd := len(span)
		if g+1 < len(offs) {
			gEnd = int(int64(offs[g+1]) - start)
		}
		k := e.Words - g*gw
		if k > gw {
			k = gw
		}
		out, err = gc.DecompressGroup(out, span[int64(offs[g])-start:gEnd], k)
		if err != nil {
			return compDst, dst, fmt.Errorf("pack: block %d group %d: %w", block, g, err)
		}
	}
	// Slide the requested span to the front of the appended region and
	// drop the surrounding group padding.
	lo := base + (word-g0*gw)*isa.WordSize
	nb := nwords * isa.WordSize
	copy(out[base:], out[lo:lo+nb])
	return compDst, out[:base+nb], nil
}

// WordGroupSpan returns the byte range, relative to the block's payload
// start, of the compressed word groups covering [word, word+nwords) —
// exactly the bytes ReadWordRangeAt reads. The span must lie inside a
// block of a container with a group directory.
func (x *Index) WordGroupSpan(block, word, nwords int) (start, end int64) {
	offs := x.BlockGroupOffsets(block)
	g1 := (word + nwords - 1) / x.GroupWords
	start, end = int64(offs[word/x.GroupWords]), x.Blocks[block].Len
	if g1+1 < len(offs) {
		end = int64(offs[g1+1])
	}
	return start, end
}

// VerifyBlock decompresses one block's compressed payload appending to
// dst and checks length and CRC against index entry i. It returns the
// grown dst (the plain image occupies the appended suffix).
func (x *Index) VerifyBlock(codec compress.Codec, i int, comp, dst []byte) ([]byte, error) {
	if i < 0 || i >= len(x.Blocks) {
		return dst, fmt.Errorf("%w: no block %d (%d blocks)", ErrCorrupt, i, len(x.Blocks))
	}
	e := x.Blocks[i]
	start := len(dst)
	if err := compress.FaultDecode.Err(); err != nil {
		return dst, fmt.Errorf("pack: block %d: %w", i, err)
	}
	out, err := codec.DecompressAppend(dst, comp)
	if err != nil {
		return dst, fmt.Errorf("pack: block %d: %w", i, err)
	}
	got := out[start:]
	if len(got) != e.Words*isa.WordSize {
		return out[:start], fmt.Errorf("%w: block %d decompressed to %d bytes, want %d",
			ErrCorrupt, i, len(got), e.Words*isa.WordSize)
	}
	if crc := crc32.ChecksumIEEE(got); crc != e.CRC {
		return out[:start], fmt.Errorf("%w: block %d: %#x != %#x", ErrBadChecksum, i, crc, e.CRC)
	}
	return out, nil
}

// validProb reports whether an edge probability deserialized from a
// container is sane: finite and within [0,1]. NaN/Inf/out-of-range
// values would poison prefetch scoring downstream, so Unpack rejects
// them as corruption.
func validProb(p float64) bool {
	return !math.IsNaN(p) && !math.IsInf(p, 0) && p >= 0 && p <= 1
}
