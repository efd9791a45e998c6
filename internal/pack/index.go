// Index: the container's block index table. The index is a pure
// prefix of the container (header, per-block table, edges and the
// sub-block group directory) that locates every block's payload and
// its word groups inside the container — the software analogue of
// block-granular access to compressed memory. One parser reads it into
// the blocks a graph is built from and a Layout, 16 B per block and 4 B
// per word group. Unpack verifies every payload and the group directory
// through that Layout and returns it in Info, and a server entry keeps
// it to serve block reads as slices of the container it holds and word
// reads by decoding only the covering groups: the rows it serves from
// are the rows the verifying read checked. ParseIndex builds IndexEntry
// rows from the same parse, through which ReadIndexAt,
// ReadPayloadRangeAt and ReadWordRangeAt read a file instead; no
// request reads a file.
package pack

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/isa"
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

// Header is the front of a container, ahead of its block index: the
// codec, its trained model and the checksum of the whole plain image.
type Header struct {
	// Codec is the codec's name. A registered name is the registry's own
	// string (compress.RegisteredName), so every parsed header shares it.
	Codec string
	// Model is the codec's serialized model. It aliases the parsed data.
	Model    []byte
	ImageCRC uint32 // IEEE CRC-32 of the whole plain image
}

// Index is the parsed metadata prefix of a container: everything
// except the payload bytes themselves. It is sufficient to reconstruct
// the CFG, rebuild the trained codec, and read any block's compressed
// payload directly by offset — and, when a group directory is present,
// any word span within a block.
type Index struct {
	Header
	Entry  cfg.BlockID
	Blocks []IndexEntry
	Edges  []cfg.Edge

	// GroupWords is the group directory granularity in plain words; 0
	// means the container has no directory (its codec cannot slice) and
	// word reads must fall back to full-block decode.
	GroupWords int

	PayloadBase int64 // absolute container offset of the payload section
	PayloadLen  int64 // total payload section length in bytes

	// layout holds the rows the parser read, which BlockGroupOffsets and
	// NumGroups read the group directory from.
	layout Layout
}

// Layout is a container's block table in the form a server serves from:
// where each block's payload and word groups start, and what a block
// response advertises. A payload or group run needs no length of its
// own: the parser admits only payloads packed back to back in block
// order, so each ends where the next block's begins and the last at the
// end of the container (or of Groups). The parser also rejects a
// container over 4 GiB, so every offset fits 32 bits.
type Layout struct {
	Blocks []BlockLoc
	// Groups holds every block's word-group start offsets from the v3
	// group directory, flattened in block order and each relative to its
	// block's payload start. It is nil when the container has no
	// directory.
	Groups []uint32
}

// BlockLoc is one block's 16-byte row of a Layout.
type BlockLoc struct {
	Off   uint32 // payload start within the container
	Group uint32 // index of the block's first offset in Layout.Groups
	CRC   uint32 // IEEE CRC-32 of the plain block image
	Words uint32 // plain size in ERI32 words
}

// Payload returns block id's compressed payload: a zero-copy slice of
// container, the container the layout was read from, capped so no
// append can write into it.
func (l *Layout) Payload(container []byte, id int) []byte {
	off, end := l.Blocks[id].Off, l.end(id, uint32(len(container)))
	return container[off:end:end]
}

// GroupOffsets returns block id's word-group start offsets, each
// relative to its payload start (nil without a group directory). The
// slice aliases the layout.
func (l *Layout) GroupOffsets(id int) []uint32 {
	lo, hi := l.Blocks[id].Group, uint32(len(l.Groups))
	if id+1 < len(l.Blocks) {
		hi = l.Blocks[id+1].Group
	}
	return l.Groups[lo:hi:hi]
}

// end returns where block id's payload ends: where the next block's
// begins, or at last for the last block.
func (l *Layout) end(id int, last uint32) uint32 {
	if id+1 < len(l.Blocks) {
		return l.Blocks[id+1].Off
	}
	return last
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

// The fewest bytes an index entry and an edge take on the wire: an
// entry's two length prefixes, three one-byte uvarints and CRC; an
// edge's three one-byte uvarints and probability. The input left after
// a count bounds that count, so a hostile one cannot size a table
// before a single entry is read.
const (
	minEntryBytes = 2 + 3 + 4
	minEdgeBytes  = 3 + 8
)

// ParseHeader parses just the header of a container: its magic, its
// version and the Header fields. Nothing after them is read, so data
// may be any prefix that holds them. A version other than Version fails
// with ErrBadVersion.
func ParseHeader(data []byte) (Header, error) {
	return parseHeader(&reader{data: data})
}

// parseHeader reads a container's header from r and leaves r at the
// entry block.
func parseHeader(r *reader) (Header, error) {
	var h Header
	if !bytes.Equal(r.take(len(Magic)), Magic) {
		return h, ErrBadMagic
	}
	v := r.uvarint()
	if r.err != nil {
		return h, r.err
	}
	if v != Version {
		return h, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, v, Version)
	}
	name := r.bytes()
	h.Model = r.bytes()
	crc := r.take(4)
	if r.err != nil {
		return h, r.err
	}
	var ok bool
	if h.Codec, ok = compress.RegisteredName(name); !ok {
		h.Codec = string(name)
	}
	h.ImageCRC = binary.LittleEndian.Uint32(crc)
	return h, nil
}

// ParseIndex parses the metadata prefix of a container. data may be
// the full container or any prefix long enough to hold the metadata;
// payload bytes after the index are not touched. The Model, like every
// slice of ParseHeader's, aliases data; block labels and function names
// are copied out, all into one string. A version other than Version
// fails with ErrBadVersion.
func ParseIndex(data []byte) (*Index, error) {
	x := &Index{}
	blocks, err := x.parse(data)
	if err != nil {
		return nil, err
	}
	last := uint32(x.PayloadBase + x.PayloadLen)
	x.Blocks = make([]IndexEntry, len(blocks))
	for i, b := range blocks {
		loc := x.layout.Blocks[i]
		x.Blocks[i] = IndexEntry{
			Label: b.Label, Func: b.Func, Words: int(loc.Words), CRC: loc.CRC,
			Off: int64(loc.Off) - x.PayloadBase, Len: int64(x.layout.end(i, last) - loc.Off),
		}
	}
	return x, nil
}

// parse reads the index at the front of data into x, the block layout
// into x.layout, and returns the blocks a graph is built from, each
// holding its label, function and word range in the image.
func (x *Index) parse(data []byte) ([]cfg.Block, error) {
	r := &reader{data: data}
	h, err := parseHeader(r)
	if err != nil {
		return nil, err
	}
	x.Header = h
	x.Entry = cfg.BlockID(r.uvarint())
	nblocks := int(r.uvarint())
	if r.err != nil || nblocks <= 0 || nblocks > 1<<20 || nblocks > r.left()/minEntryBytes {
		return nil, fmt.Errorf("%w: block count", ErrCorrupt)
	}
	blocks := make([]cfg.Block, nblocks)
	locs := make([]BlockLoc, nblocks)
	// names collects each block's label and function name as it lies in
	// data, on the stack for up to 64 blocks; they are then copied into
	// one string.
	var stack [128][]byte
	names := stack[:0]
	var off int64
	start := 0 // the block's first word in the image
	for i := range blocks {
		names = append(names, r.bytes(), r.bytes())
		words := int(r.uvarint())
		// Bound the claimed plain size: a hostile Words makes every
		// derived quantity (pre-allocations, words*WordSize length
		// checks) lie, and a 2^63-range claim wraps int negative.
		if words < 0 || words > maxBlockWords {
			return nil, fmt.Errorf("%w: block %d claims %d words", ErrCorrupt, i, words)
		}
		o := int64(r.uvarint())
		n := int64(r.uvarint())
		crc := r.take(4)
		if r.err != nil {
			return nil, r.err
		}
		// Payloads are packed back to back in block order; anything else
		// is not a container Pack could have produced.
		if o != off || n < 0 {
			return nil, fmt.Errorf("%w: block %d payload at %d/%d, want contiguous at %d",
				ErrCorrupt, i, o, n, off)
		}
		// A layout row holds 32-bit offsets, which also keeps off from
		// wrapping.
		if n > math.MaxUint32-off {
			return nil, fmt.Errorf("%w: block %d payload ends past 4 GiB", ErrCorrupt, i)
		}
		blocks[i].Start, blocks[i].End = start, start+words
		// The row counts its offset from the payload section until the
		// section's start is known.
		locs[i] = BlockLoc{Off: uint32(off), CRC: binary.LittleEndian.Uint32(crc), Words: uint32(words)}
		off += n
		start += words
	}
	all := joinNames(names)
	for i := range blocks {
		nl, nf := len(names[2*i]), len(names[2*i+1])
		blocks[i].Label, blocks[i].Func = all[:nl], all[nl:nl+nf]
		all = all[nl+nf:]
	}
	x.layout.Blocks = locs
	nedges := int(r.uvarint())
	if r.err != nil || nedges < 0 || nedges > 1<<22 || nedges > r.left()/minEdgeBytes {
		return nil, fmt.Errorf("%w: edge count", ErrCorrupt)
	}
	x.Edges = make([]cfg.Edge, nedges)
	for i := range x.Edges {
		e := &x.Edges[i]
		var p64 []byte
		if d := r.data[r.off:]; len(d) >= minEdgeBytes && d[0]|d[1]|d[2] < 0x80 {
			// The usual edge: three one-byte fields, read in place.
			e.From, e.To, e.Kind = cfg.BlockID(d[0]), cfg.BlockID(d[1]), cfg.EdgeKind(d[2])
			p64 = d[3:minEdgeBytes]
			r.off += minEdgeBytes
		} else {
			e.From = cfg.BlockID(r.uvarint())
			e.To = cfg.BlockID(r.uvarint())
			e.Kind = cfg.EdgeKind(r.uvarint())
			if p64 = r.take(8); r.err != nil {
				return nil, r.err
			}
		}
		e.Prob = math.Float64frombits(binary.LittleEndian.Uint64(p64))
		if !validProb(e.Prob) {
			return nil, fmt.Errorf("%w: edge %d probability %v outside [0,1]", ErrCorrupt, i, e.Prob)
		}
	}
	if err := x.parseGroupDirectory(r, uint32(off)); err != nil {
		return nil, err
	}
	x.PayloadLen = int64(r.uvarint())
	if r.err != nil {
		return nil, r.err
	}
	if x.PayloadLen != off {
		return nil, fmt.Errorf("%w: payload section %d bytes, index spans %d", ErrCorrupt, x.PayloadLen, off)
	}
	x.PayloadBase = int64(r.off)
	if x.PayloadBase+off > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d-byte container does not fit a 32-bit layout", ErrCorrupt, x.PayloadBase+off)
	}
	for i := range locs {
		locs[i].Off += uint32(x.PayloadBase)
	}
	return blocks, nil
}

// joinNames copies names into one string, in order.
func joinNames(names [][]byte) string {
	n := 0
	for _, b := range names {
		n += len(b)
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, b := range names {
		sb.Write(b)
	}
	return sb.String()
}

// parseGroupDirectory reads the v3 sub-block directory into x.layout:
// groupWords, then per block the delta-encoded group start offsets.
// Offsets must be strictly increasing and land inside the block's
// payload — overlapping or out-of-bounds groups are not a container Pack
// could have produced, so anything else is ErrCorrupt. Group counts are
// derived from the already-validated block word counts; the offset
// slice pre-allocation is clamped by the remaining input (every offset
// costs at least one byte), so a hostile header cannot force an
// unbounded allocation. The layout's payload offsets still count from
// the payload section, section bytes long.
func (x *Index) parseGroupDirectory(r *reader, section uint32) error {
	gw := r.uvarint()
	if r.err != nil {
		return r.err
	}
	if gw > maxBlockWords {
		return fmt.Errorf("%w: group directory claims %d-word groups", ErrCorrupt, gw)
	}
	x.GroupWords = int(gw)
	if x.GroupWords == 0 {
		return nil
	}
	l := &x.layout
	var total int64
	for _, b := range l.Blocks {
		total += int64((int(b.Words) + x.GroupWords - 1) / x.GroupWords)
	}
	if clamp := int64(r.left()); total > clamp {
		total = clamp
	}
	groups := make([]uint32, 0, total)
	for i := range l.Blocks {
		b := &l.Blocks[i]
		b.Group = uint32(len(groups))
		n := uint64(l.end(i, section) - b.Off)
		ngroups := (int(b.Words) + x.GroupWords - 1) / x.GroupWords
		var cur uint64
		for g := 0; g < ngroups; g++ {
			d := r.uvarint()
			if r.err != nil {
				return r.err
			}
			if g > 0 && d == 0 {
				return fmt.Errorf("%w: block %d group %d offset not increasing", ErrCorrupt, i, g)
			}
			// cur lies inside the payload, so weighing d against what is
			// left of it cannot wrap, and every offset fits 32 bits.
			if d >= n-cur {
				return fmt.Errorf("%w: block %d group %d starts %d bytes past %d of %d payload bytes",
					ErrCorrupt, i, g, d, cur, n)
			}
			cur += d
			groups = append(groups, uint32(cur))
		}
	}
	l.Groups = groups
	return nil
}

// HasGroupIndex reports whether the container carries a v3 group
// directory, i.e. whether ReadWordRangeAt can serve sub-block reads.
func (x *Index) HasGroupIndex() bool { return x.GroupWords > 0 }

// NumGroups returns the total word-group count across all blocks (0
// without a group directory).
func (x *Index) NumGroups() int { return len(x.layout.Groups) }

// BlockGroupOffsets returns block i's group start offsets, each
// relative to the block's payload start. The returned slice aliases the
// index; callers must not mutate it. Nil without a group directory or
// for an out-of-range block.
func (x *Index) BlockGroupOffsets(i int) []uint32 {
	if x.GroupWords == 0 || i < 0 || i >= len(x.Blocks) {
		return nil
	}
	return x.layout.GroupOffsets(i)
}

// ReadIndexAt parses a container's index from a random-access
// reader holding size bytes, reading only as much of the metadata
// prefix as needed (geometrically growing from a 64 KiB guess). The
// payload section is never read.
func ReadIndexAt(r io.ReaderAt, size int64) (*Index, error) {
	n := int64(indexReadChunk)
	for {
		if n > size {
			n = size
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
func (h *Header) NewCodec() (compress.Codec, error) {
	c, err := compress.FromModel(h.Codec, h.Model)
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	return c, nil
}

// ReadPayloadRangeAt reads the concatenated compressed payloads of
// blocks lo..hi (inclusive) with one ReadAt, appending them to dst and
// returning the extended slice. Payloads are stored back to back in
// block order (ParseIndex rejects anything else), so the range is one
// contiguous byte span and block j's payload sits at
// dst[base + x.Blocks[j].Off - x.Blocks[lo].Off] for len x.Blocks[j].Len,
// base being len(dst) at call time. No decompression or verification
// happens; pair each payload with VerifyBlock before trusting it.
func (x *Index) ReadPayloadRangeAt(r io.ReaderAt, lo, hi int, dst []byte) ([]byte, error) {
	if lo < 0 || hi < lo || hi >= len(x.Blocks) {
		return nil, fmt.Errorf("%w: no block range %d..%d (%d blocks)", ErrCorrupt, lo, hi, len(x.Blocks))
	}
	start := x.Blocks[lo].Off
	n := int(x.Blocks[hi].Off + x.Blocks[hi].Len - start)
	base := len(dst)
	// The span size is known exactly, so grow in one step: a pre-sized
	// dst never allocates, a nil dst costs one allocation.
	if cap(dst)-base < n {
		grown := make([]byte, base, base+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	if _, err := r.ReadAt(dst[base:base+n], x.PayloadBase+start); err != nil {
		return nil, fmt.Errorf("pack: block %d..%d payload read: %w", lo, hi, err)
	}
	return dst, nil
}

// ReadWordRangeAt serves a sub-block word span through the v3 group
// directory: one bounded ReadAt of exactly the covering groups'
// compressed bytes, then one DecompressGroup per covering group —
// the rest of the block is never read or decoded. The span's plain
// bytes (nwords*4) are appended to dst; the compressed group bytes are
// appended to compDst (pass pre-sized buffers to stay allocation-free).
// Both grown slices are returned; plain's appended suffix is the word
// span. Containers or codecs without group support fail with
// ErrNoGroupIndex, which callers treat as "fall back to full-block
// decode". Unlike VerifyBlock there is no per-block CRC check —
// a group decode covers too little of the block to verify it — so the
// span is only as sound as the bytes r returns. The server does not
// read spans this way: it decodes them from its resident container,
// which passed a full Unpack when it was built.
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
	return verifyBlock(codec, i, x.Blocks[i].Words, x.Blocks[i].CRC, comp, dst)
}

// verifyBlock decompresses block i's payload comp appending to dst and
// checks that it decodes to words words whose CRC is crc.
func verifyBlock(codec compress.Codec, i, words int, crc uint32, comp, dst []byte) ([]byte, error) {
	start := len(dst)
	if err := compress.FaultDecode.Err(); err != nil {
		return dst, fmt.Errorf("pack: block %d: %w", i, err)
	}
	out, err := codec.DecompressAppend(dst, comp)
	if err != nil {
		return dst, fmt.Errorf("pack: block %d: %w", i, err)
	}
	got := out[start:]
	if len(got) != words*isa.WordSize {
		return out[:start], fmt.Errorf("%w: block %d decompressed to %d bytes, want %d",
			ErrCorrupt, i, len(got), words*isa.WordSize)
	}
	if c := crc32.ChecksumIEEE(got); c != crc {
		return out[:start], fmt.Errorf("%w: block %d: %#x != %#x", ErrBadChecksum, i, c, crc)
	}
	return out, nil
}

// validProb reports whether an edge probability deserialized from a
// container is sane: finite and within [0,1]. NaN/Inf/out-of-range
// values would poison prefetch scoring downstream, so Unpack rejects
// them as corruption.
func validProb(p float64) bool {
	// NaN fails both comparisons and the infinities lie outside.
	return p >= 0 && p <= 1
}
