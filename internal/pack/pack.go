// Package pack defines the deployable image container of the
// reproduction: everything a target system needs to run a program
// under the access-pattern-based compression runtime, serialized to
// bytes — the codec name and trained model, the CFG (blocks with sizes,
// function labels, entry, edges with kinds and probabilities), and the
// per-block compressed payloads. The uncompressed code never appears in
// the container; Unpack reconstructs the program by decompressing the
// payloads and re-deriving the instruction stream, then verifies a
// whole-image checksum.
//
// Wire format v3 (all integers uvarint unless noted, little-endian;
// fixed32/fixed64 fields are raw little-endian):
//
//	magic "APCC" | version=3 | codec name | model | crc32 of plain image (fixed32)
//	entry block | nblocks
//	index table, per block: label, func, words,
//	    payload offset, payload length, crc32 of plain block (fixed32)
//	nedges | per edge: from, to, kind, prob (float64 bits, fixed64)
//	group directory: group words (0 = absent), then per block
//	    ceil(words/groupWords) group start offsets within the block's
//	    payload — first absolute, rest delta-encoded (strictly
//	    increasing, each < payload length)
//	payload section length | concatenated compressed payloads
//
// Everything before the payload section is the *index*: a pure
// metadata prefix from which any single block's compressed payload can
// be located (offset is relative to the payload section start) and
// verified (per-block CRC of the plain image) without touching the
// rest of the container — see Index / ReadIndexAt / VerifyBlock.
//
// The group directory: when the codec supports group decode
// (compress.GroupCodec — bdi, cpack, dict, identity), the directory
// records where each fixed-size word group's bytes start inside every
// payload, so a word-granular read decodes only the covering groups
// (compress.DecodeWordRange over the container a server holds, which
// Unpack verified whole when it was built) — no full-block decode.
// Group counts are derived from block word counts, never stored. A
// container whose codec cannot slice (entropy codecs) carries
// groupWords=0 and reads fall back to whole-block decode.
//
// v3 is the only format: Pack writes it, and Unpack and ParseIndex
// reject any other version with ErrBadVersion.
package pack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/isa"
	"apbcc/internal/program"
)

// Magic identifies a pack container.
var Magic = []byte("APCC")

// Version is the container format version: the one Pack writes and the
// only one Unpack and ParseIndex read.
const Version = 3

// Errors.
var (
	ErrBadMagic    = errors.New("pack: bad magic")
	ErrBadVersion  = errors.New("pack: unsupported version")
	ErrCorrupt     = errors.New("pack: corrupt container")
	ErrBadChecksum = errors.New("pack: image checksum mismatch")
	// ErrNoGroupIndex marks a word-range read against a container (or
	// codec) without sub-block group support; callers fall back to
	// full-block decode.
	ErrNoGroupIndex = errors.New("pack: no group directory")
)

// IsCorrupt reports whether err means the container's bytes are bad:
// whether it carries one of the sentinels Unpack rejects damaged bytes
// with (ErrBadMagic, ErrBadVersion, ErrCorrupt, ErrBadChecksum or
// compress.ErrCorrupt). An injected decode fault is not corrupt; the
// same bytes may verify on the next read.
func IsCorrupt(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrBadChecksum) ||
		errors.Is(err, compress.ErrCorrupt) || errors.Is(err, ErrBadMagic) ||
		errors.Is(err, ErrBadVersion)
}

// Pack serializes the program with every block compressed by the
// codec, which must come from compress.New or compress.FromModel.
func Pack(p *program.Program, codec compress.Codec) ([]byte, error) {
	return build(p, "", codec)
}

// Build trains the named codec on the program's code image and packs
// the program with it. The container is the one Pack gives for the
// codec compress.New trains on p.CodeBytes(), but the image is encoded
// once, into the buffer that training reads, packing cuts its blocks
// from and the metadata then reuses. An unknown name fails with
// compress.ErrUnknownCodec.
func Build(p *program.Program, codecName string) ([]byte, error) {
	return build(p, codecName, nil)
}

// build packs p with codec or, when codec is nil, with the named codec
// trained on p's code image. The image is encoded once, into a buffer
// of exactly its size: training reads it, its CRC goes in the header,
// and every block's plain image is a window of it. Once the blocks are
// compressed the index's exact length is known, so the index and the
// payloads are written into one allocation of the container's exact
// size, and an entry that keeps it holds no spare capacity.
func build(p *program.Program, codecName string, codec compress.Codec) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	image, err := p.CodeBytes()
	if err != nil {
		return nil, err
	}
	if codec == nil {
		if codec, err = compress.New(codecName, image); err != nil {
			return nil, err
		}
	}
	payloads, crcs, err := compressBlocks(p, image, codec)
	if err != nil {
		return nil, err
	}
	gw, flat, bases := groupDirectory(codec, p.Graph.Blocks(), payloads)
	ix := indexParts{
		codec: codec.Name(), model: compress.MarshalModel(codec), imageCRC: crc32.ChecksumIEEE(image),
		g: p.Graph, payloads: payloads, crcs: crcs, gw: gw, flat: flat, bases: bases,
	}
	n, section := ix.size()
	container := ix.append(make([]byte, 0, n+section))
	for _, pay := range payloads {
		container = append(container, pay...)
	}
	return container, nil
}

// indexParts is what a container's index is written from: the codec's
// name and model, the image CRC, the graph, and per block its payload,
// plain-image CRC and group offsets (flat[bases[i]:bases[i+1]], with gw
// words a group; gw 0 means no directory).
type indexParts struct {
	codec    string
	model    []byte
	imageCRC uint32
	g        *cfg.Graph
	payloads [][]byte
	crcs     []uint32
	gw       int
	flat     []uint32
	bases    []int
}

// size returns the exact length of the index append writes, and of the
// payload section after it.
func (ix *indexParts) size() (index, section int) {
	g := ix.g
	n := len(Magic) + uvarintLen(Version) + bytesLen(ix.codec) + bytesLen(ix.model) + 4
	n += uvarintLen(uint64(g.Entry())) + uvarintLen(uint64(g.NumBlocks()))
	nedges := 0
	for i, b := range g.Blocks() {
		n += bytesLen(b.Label) + bytesLen(b.Func) + uvarintLen(uint64(b.Words())) +
			uvarintLen(uint64(section)) + uvarintLen(uint64(len(ix.payloads[i]))) + 4
		section += len(ix.payloads[i])
		for _, e := range g.Succs(b.ID) {
			n += uvarintLen(uint64(e.From)) + uvarintLen(uint64(e.To)) + uvarintLen(uint64(e.Kind)) + 8
			nedges++
		}
	}
	n += uvarintLen(uint64(nedges)) + uvarintLen(uint64(ix.gw))
	for i := 0; ix.gw > 0 && i < len(ix.payloads); i++ {
		var prev uint32
		for _, o := range ix.flat[ix.bases[i]:ix.bases[i+1]] {
			n += uvarintLen(uint64(o - prev))
			prev = o
		}
	}
	return n + uvarintLen(uint64(section)), section
}

// append appends the index to buf: everything before the payload
// section.
func (ix *indexParts) append(buf []byte) []byte {
	g := ix.g
	buf = append(buf, Magic...)
	buf = binary.AppendUvarint(buf, Version)
	buf = appendBytes(buf, ix.codec)
	buf = appendBytes(buf, ix.model)
	buf = binary.LittleEndian.AppendUint32(buf, ix.imageCRC)

	buf = binary.AppendUvarint(buf, uint64(g.Entry()))
	buf = binary.AppendUvarint(buf, uint64(g.NumBlocks()))
	var off uint64
	nedges := 0
	for i, b := range g.Blocks() {
		buf = appendBytes(buf, b.Label)
		buf = appendBytes(buf, b.Func)
		buf = binary.AppendUvarint(buf, uint64(b.Words()))
		buf = binary.AppendUvarint(buf, off)
		buf = binary.AppendUvarint(buf, uint64(len(ix.payloads[i])))
		buf = binary.LittleEndian.AppendUint32(buf, ix.crcs[i])
		off += uint64(len(ix.payloads[i]))
		nedges += len(g.Succs(b.ID))
	}
	buf = binary.AppendUvarint(buf, uint64(nedges))
	for _, b := range g.Blocks() {
		for _, e := range g.Succs(b.ID) {
			buf = binary.AppendUvarint(buf, uint64(e.From))
			buf = binary.AppendUvarint(buf, uint64(e.To))
			buf = binary.AppendUvarint(buf, uint64(e.Kind))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Prob))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(ix.gw))
	for i := 0; ix.gw > 0 && i < len(ix.payloads); i++ {
		// The first offset is absolute; prev starts at 0, so it is
		// written as its own delta.
		var prev uint32
		for _, o := range ix.flat[ix.bases[i]:ix.bases[i+1]] {
			buf = binary.AppendUvarint(buf, uint64(o-prev))
			prev = o
		}
	}
	// off is the payload section's length.
	return binary.AppendUvarint(buf, off)
}

// appendBytes appends b with its uvarint length prefix.
func appendBytes[T []byte | string](buf []byte, b T) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// bytesLen is the length appendBytes appends for b.
func bytesLen[T []byte | string](b T) int {
	return uvarintLen(uint64(len(b))) + len(b)
}

// uvarintLen is the length of v as a uvarint.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// groupDirectory computes the v3 sub-block group directory: for a
// group-capable codec, every block payload's group start offsets
// (ceil(words/groupWords) per block), flattened in block order so block
// i's offsets sit at flat[bases[i]:bases[i+1]] — two allocations total,
// keeping the pack alloc budget independent of the block count. Any
// payload the codec cannot slice disables the directory for the whole
// container — groupWords 0 — and readers fall back to full-block
// decode; block images are always whole words, so for the built-in
// group codecs that never happens in practice.
func groupDirectory(codec compress.Codec, blocks []*cfg.Block, payloads [][]byte) (gw int, flat []uint32, bases []int) {
	gc, ok := compress.AsGroupCodec(codec)
	if !ok {
		return 0, nil, nil
	}
	gw = gc.GroupWords()
	total := 0
	for _, b := range blocks {
		total += (max(b.Words(), 0) + gw - 1) / gw
	}
	flat = make([]uint32, 0, total)
	bases = make([]int, len(payloads)+1)
	for i, pay := range payloads {
		bases[i] = len(flat)
		var err error
		flat, err = gc.AppendGroupOffsets(flat, pay)
		if err != nil {
			return 0, nil, nil
		}
	}
	bases[len(payloads)] = len(flat)
	return gw, flat, bases
}

// compressBlocks compresses every block's plain image — a window of
// image, the program's whole code image — returning payloads and
// plain-image CRCs indexed in g.Blocks() order. All payloads are
// windows of one arena sized for the codec's worst case, so they cost
// one allocation together.
func compressBlocks(p *program.Program, image []byte, codec compress.Codec) ([][]byte, []uint32, error) {
	blocks := p.Graph.Blocks()
	payloads := make([][]byte, len(blocks))
	crcs := make([]uint32, len(blocks))
	size := 0
	for _, b := range blocks {
		size += codec.MaxCompressedLen(max(b.Bytes(), 0))
	}
	arena := make([]byte, 0, size)
	for i, b := range blocks {
		img, err := p.BlockImage(image, b.ID)
		if err != nil {
			return nil, nil, err
		}
		crcs[i] = crc32.ChecksumIEEE(img)
		lo := len(arena)
		arena, err = codec.CompressAppend(arena, img)
		if err != nil {
			return nil, nil, fmt.Errorf("pack: block %s: %w", b, err)
		}
		payloads[i] = arena[lo:len(arena):len(arena)]
	}
	return payloads, crcs, nil
}

// Info summarizes an unpacked container.
type Info struct {
	Version         int
	Codec           string
	Blocks          int
	Edges           int
	CompressedBytes int // total payload bytes
	PlainBytes      int // reconstructed image size
	ContainerBytes  int
	GroupWords      int // v3 group directory granularity (0 = absent)
	Groups          int // total word groups across all blocks
	// Layout is the block table Unpack verified every payload and the
	// group directory through. Its offsets locate payloads in the
	// unpacked container, so whoever keeps that container can serve
	// block and word reads from it through the Layout.
	Layout Layout
}

// Unpack reconstructs the program and its trained codec from a
// container: it parses the index, then decompresses the payload section
// block by block, verifying each block CRC as it lands, and finally the
// whole-image checksum. A group directory is checked too: its group
// size must be the codec's and every block's offsets must be the ones
// the codec finds in the verified payload, so a word read through the
// directory decodes the same bytes as the block. A container without
// Magic fails with ErrBadMagic, one of any version but Version with
// ErrBadVersion, and every other rejection of its bytes wraps
// ErrCorrupt, ErrBadChecksum or compress.ErrCorrupt, so IsCorrupt
// tells damaged bytes from an injected decode fault.
//
// The index is read once, into the blocks the graph is built from, each
// holding its word range in the image, and the Layout that Info
// returns, through which every payload is verified. The instructions
// are decoded in place from the image, which is scratch: the Program
// keeps neither it nor any slice of data.
func Unpack(name string, data []byte) (*program.Program, compress.Codec, *Info, error) {
	var x Index
	blocks, err := x.parse(data)
	if err != nil {
		return nil, nil, nil, err
	}
	if x.PayloadBase+x.PayloadLen != int64(len(data)) {
		return nil, nil, nil, fmt.Errorf("%w: container is %d bytes, index describes %d",
			ErrCorrupt, len(data), x.PayloadBase+x.PayloadLen)
	}
	codec, err := x.NewCodec()
	if err != nil {
		return nil, nil, nil, err
	}
	gc, grouped := compress.AsGroupCodec(codec)
	if x.GroupWords > 0 && (!grouped || gc.GroupWords() != x.GroupWords) {
		return nil, nil, nil, fmt.Errorf("%w: %d-word group directory for codec %s", ErrCorrupt, x.GroupWords, x.Codec)
	}
	// The index fixes the exact plain-image size up front, so the image
	// streams through one exactly-sized buffer. The pre-size is a hint,
	// not trust: the claimed total is clamped by what the payload bytes
	// could plausibly decode to (the parse already bounds each block's
	// words), so a hostile index can cost at most one bounded allocation
	// — per-block verification then rejects the lie, and a legitimately
	// higher-expansion container (an LZSS match token turns 17 bits into
	// 18 bytes) just grows the buffer.
	totalBytes := int64(blocks[len(blocks)-1].End) * isa.WordSize
	if bound := 8*x.PayloadLen + isa.WordSize; totalBytes > bound {
		totalBytes = bound
	}
	plain := make([]byte, 0, totalBytes)
	// offs takes one block's group offsets, rescanned from its payload;
	// no block has more groups than the whole directory.
	var offs []uint32
	if x.GroupWords > 0 {
		offs = make([]uint32, 0, x.NumGroups())
	}
	for i, loc := range x.layout.Blocks {
		block := x.layout.Payload(data, i)
		if plain, err = verifyBlock(codec, i, int(loc.Words), loc.CRC, block, plain); err != nil {
			return nil, nil, nil, err
		}
		if x.GroupWords > 0 {
			if offs, err = gc.AppendGroupOffsets(offs[:0], block); err != nil || !slices.Equal(offs, x.layout.GroupOffsets(i)) {
				return nil, nil, nil, fmt.Errorf("%w: block %d group directory does not match its payload", ErrCorrupt, i)
			}
		}
	}
	g, bad, err := cfg.FromParts(blocks, x.Entry, x.Edges)
	switch {
	case err != nil && bad < 0:
		return nil, nil, nil, fmt.Errorf("%w: entry %d", ErrCorrupt, x.Entry)
	case err != nil:
		return nil, nil, nil, fmt.Errorf("%w: edge %d: %v", ErrCorrupt, bad, err)
	}
	if got := crc32.ChecksumIEEE(plain); got != x.ImageCRC {
		return nil, nil, nil, fmt.Errorf("%w: %#x != %#x", ErrBadChecksum, got, x.ImageCRC)
	}
	ins := make([]isa.Instruction, len(plain)/isa.WordSize)
	if err := isa.DecodeBytes(ins, plain); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	p := &program.Program{Name: name, Graph: g, Ins: ins}
	if err := p.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: reconstructed program invalid: %w", ErrCorrupt, err)
	}
	return p, codec, &Info{
		Version: Version, Codec: x.Codec, Blocks: len(blocks), Edges: len(x.Edges),
		CompressedBytes: int(x.PayloadLen), PlainBytes: len(plain), ContainerBytes: len(data),
		GroupWords: x.GroupWords, Groups: x.NumGroups(), Layout: x.layout,
	}, nil
}

// --- primitive readers ----------------------------------------------

type reader struct {
	data []byte
	off  int   // bytes read so far
	err  error // the first failure; off is len(data) from then on
}

// The reader's failures, made once so take stays small enough to
// inline.
var (
	errTruncated  = fmt.Errorf("%w: truncated", ErrCorrupt)
	errBadUvarint = fmt.Errorf("%w: bad uvarint", ErrCorrupt)
)

// left returns how many bytes are still unread.
func (r *reader) left() int { return len(r.data) - r.off }

func (r *reader) take(n int) []byte {
	if n < 0 || n > r.left() {
		r.fail(errTruncated)
		return nil
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out
}

// uvarint reads a one-byte value, which most index fields are, by
// itself; longer values and failures take uvarintLong. The reader moves
// an offset rather than reslicing data, so no read writes a pointer.
func (r *reader) uvarint() uint64 {
	if o := r.off; o < len(r.data) && r.data[o] < 0x80 {
		r.off = o + 1
		return uint64(r.data[o])
	}
	return r.uvarintLong()
}

func (r *reader) uvarintLong() uint64 {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(errBadUvarint)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	return r.take(int(n))
}

// fail records err unless an earlier failure stands, and consumes the
// input so every later read fails too.
func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.data)
}
