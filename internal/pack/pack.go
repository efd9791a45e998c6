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
// payload, so a word-granular read is one bounded ReadAt of the
// covering groups plus a DecompressGroup per group — no full-block
// decode. Group counts are derived from block word counts, never
// stored. A container whose codec cannot slice (entropy codecs) carries
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
// trained on p's code image.
func build(p *program.Program, codecName string, codec compress.Codec) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.Graph
	nedges, names := 0, 0
	for _, b := range g.Blocks() {
		nedges += len(g.Succs(b.ID))
		names += len(b.Label) + len(b.Func)
	}
	// One buffer serves twice. It first holds the whole code image:
	// training reads it, its CRC goes in the header, and every block's
	// plain image is a window of it. Once the blocks are compressed it
	// takes the metadata, sized by an estimate: the labels and function
	// names, a few bytes per block and per edge, and the model when it
	// is known. Before training it is not, but the per-block slack has
	// covered every suite and generated program's model; a longer index
	// just grows the buffer. The container is then allocated at its
	// exact size, so an entry that keeps it holds no spare capacity.
	var model []byte
	if codec != nil {
		model = compress.MarshalModel(codec)
	}
	meta := len(model) + names + 24*g.NumBlocks() + 16*nedges + 64
	image, err := p.AppendCodeBytes(make([]byte, 0, max(p.TotalBytes(), meta)))
	if err != nil {
		return nil, err
	}
	if codec == nil {
		// Training keeps no reference to the image (compress.New), so the
		// buffer can take the metadata below.
		if codec, err = compress.New(codecName, image); err != nil {
			return nil, err
		}
		model = compress.MarshalModel(codec)
	}
	payloads, crcs, err := compressBlocks(p, image, codec)
	if err != nil {
		return nil, err
	}
	imageCRC := crc32.ChecksumIEEE(image)
	buf := append(image[:0], Magic...)
	buf = binary.AppendUvarint(buf, Version)
	buf = appendBytes(buf, codec.Name())
	buf = appendBytes(buf, model)
	buf = binary.LittleEndian.AppendUint32(buf, imageCRC)

	buf = binary.AppendUvarint(buf, uint64(g.Entry()))
	buf = binary.AppendUvarint(buf, uint64(g.NumBlocks()))
	var off uint64
	for i, b := range g.Blocks() {
		buf = appendBytes(buf, b.Label)
		buf = appendBytes(buf, b.Func)
		buf = binary.AppendUvarint(buf, uint64(b.Words()))
		buf = binary.AppendUvarint(buf, off)
		buf = binary.AppendUvarint(buf, uint64(len(payloads[i])))
		buf = binary.LittleEndian.AppendUint32(buf, crcs[i])
		off += uint64(len(payloads[i]))
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
	gw, flat, bases := groupDirectory(codec, g.Blocks(), payloads)
	buf = binary.AppendUvarint(buf, uint64(gw))
	for i := 0; gw > 0 && i < len(payloads); i++ {
		var prev uint32
		for g, o := range flat[bases[i]:bases[i+1]] {
			if g == 0 {
				buf = binary.AppendUvarint(buf, uint64(o))
			} else {
				buf = binary.AppendUvarint(buf, uint64(o-prev))
			}
			prev = o
		}
	}
	// off is the payload section's length.
	buf = binary.AppendUvarint(buf, off)
	container := make([]byte, len(buf), len(buf)+int(off))
	copy(container, buf)
	for _, pay := range payloads {
		container = append(container, pay...)
	}
	return container, nil
}

// appendBytes appends b with its uvarint length prefix.
func appendBytes[T []byte | string](buf []byte, b T) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
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

// Info summarizes a container without fully unpacking it.
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
}

// Unpack reconstructs the program and its trained codec from a
// container: it parses the index, then decompresses the payload section
// block by block, verifying each block CRC as it lands, and finally the
// whole-image checksum. A group directory is checked too: its group
// size must be the codec's and every block's offsets must be the ones
// the codec finds in the verified payload, so a word read through the
// directory decodes the same bytes as the block. A container of any
// version but Version fails with ErrBadVersion.
func Unpack(name string, data []byte) (*program.Program, compress.Codec, *Info, error) {
	idx, err := ParseIndex(data)
	if err != nil {
		return nil, nil, nil, err
	}
	if idx.PayloadBase+idx.PayloadLen != int64(len(data)) {
		return nil, nil, nil, fmt.Errorf("%w: container is %d bytes, index describes %d",
			ErrCorrupt, len(data), idx.PayloadBase+idx.PayloadLen)
	}
	codec, err := idx.NewCodec()
	if err != nil {
		return nil, nil, nil, err
	}
	gc, grouped := compress.AsGroupCodec(codec)
	if idx.GroupWords > 0 && (!grouped || gc.GroupWords() != idx.GroupWords) {
		return nil, nil, nil, fmt.Errorf("%w: %d-word group directory for codec %s", ErrCorrupt, idx.GroupWords, idx.Codec)
	}
	// The index fixes the exact plain-image size up front, so the image
	// streams through one exactly-sized buffer — it is scratch:
	// finalize decodes instructions straight out of it and the Program
	// keeps only those. The pre-size is a hint, not trust: the claimed
	// total is clamped by what the payload bytes could plausibly decode
	// to (ParseIndex already bounds each block's Words), so a hostile
	// index can cost at most one bounded allocation — per-block
	// verification then rejects the lie, and a legitimately
	// higher-expansion container (an LZSS match token turns 17 bits
	// into 18 bytes) just grows the buffer.
	var totalBytes int64
	for i := range idx.Blocks {
		totalBytes += int64(idx.Blocks[i].Words) * isa.WordSize
	}
	if bound := 8*idx.PayloadLen + isa.WordSize; totalBytes > bound {
		totalBytes = bound
	}
	plain := make([]byte, 0, totalBytes)
	blocks := make([]cfg.Block, len(idx.Blocks))
	// offs takes one block's group offsets, rescanned from its payload;
	// no block has more groups than the whole directory.
	offs := make([]uint32, 0, idx.NumGroups())
	for i := range idx.Blocks {
		e := idx.Blocks[i]
		blocks[i] = cfg.Block{Label: e.Label, Func: e.Func, End: e.Words}
		comp := data[idx.PayloadBase+e.Off : idx.PayloadBase+e.Off+e.Len]
		if plain, err = idx.VerifyBlock(codec, i, comp, plain); err != nil {
			return nil, nil, nil, err
		}
		if idx.GroupWords > 0 {
			if offs, err = gc.AppendGroupOffsets(offs[:0], comp); err != nil || !slices.Equal(offs, idx.BlockGroupOffsets(i)) {
				return nil, nil, nil, fmt.Errorf("%w: block %d group directory does not match its payload", ErrCorrupt, i)
			}
		}
	}
	g, bad, err := cfg.FromParts(blocks, idx.Entry, idx.Edges)
	switch {
	case err != nil && bad < 0:
		return nil, nil, nil, fmt.Errorf("%w: entry %d", ErrCorrupt, idx.Entry)
	case err != nil:
		return nil, nil, nil, fmt.Errorf("%w: edge %d: %v", ErrCorrupt, bad, err)
	}
	p, err := finalize(name, g, plain, idx.ImageCRC)
	if err != nil {
		return nil, nil, nil, err
	}
	return p, codec, &Info{
		Version: Version, Codec: idx.Codec, Blocks: len(idx.Blocks), Edges: len(idx.Edges),
		CompressedBytes: int(idx.PayloadLen), PlainBytes: len(plain), ContainerBytes: len(data),
		GroupWords: idx.GroupWords, Groups: idx.NumGroups(),
	}, nil
}

// finalize is the tail of Unpack: whole-image checksum, instruction
// decode, block range re-derivation, and full program validation. plain
// is treated as scratch: instructions are decoded straight out of the
// byte image (no intermediate word slice), and the Program keeps no
// reference to it.
func finalize(name string, g *cfg.Graph, plain []byte, wantCRC uint32) (*program.Program, error) {
	if got := crc32.ChecksumIEEE(plain); got != wantCRC {
		return nil, fmt.Errorf("%w: %#x != %#x", ErrBadChecksum, got, wantCRC)
	}
	if len(plain)%isa.WordSize != 0 {
		return nil, fmt.Errorf("pack: %w: %d bytes is not a whole number of words", isa.ErrShortBuffer, len(plain))
	}
	ins := make([]isa.Instruction, len(plain)/isa.WordSize)
	for i := range ins {
		in, err := isa.Decode(isa.ByteOrder.Uint32(plain[i*isa.WordSize:]))
		if err != nil {
			return nil, fmt.Errorf("pack: isa: word %d: %w", i, err)
		}
		ins[i] = in
	}
	// Re-derive block word ranges from the serialized sizes.
	offset := 0
	for _, b := range g.Blocks() {
		w := b.Words()
		b.Start = offset
		b.End = offset + w
		offset += w
	}
	p := &program.Program{Name: name, Graph: g, Ins: ins}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("pack: reconstructed program invalid: %w", err)
	}
	return p, nil
}

// --- primitive readers ----------------------------------------------

type reader struct {
	data []byte
	err  error // the first failure; data is empty from then on
}

// The reader's failures, made once so take stays small enough to
// inline.
var (
	errTruncated  = fmt.Errorf("%w: truncated", ErrCorrupt)
	errBadUvarint = fmt.Errorf("%w: bad uvarint", ErrCorrupt)
)

func (r *reader) take(n int) []byte {
	if n < 0 || n > len(r.data) {
		r.fail(errTruncated)
		return nil
	}
	out := r.data[:n]
	r.data = r.data[n:]
	return out
}

// uvarint reads a one-byte value, which most index fields are, by
// itself; longer values and failures take uvarintLong.
func (r *reader) uvarint() uint64 {
	if d := r.data; len(d) > 0 && d[0] < 0x80 {
		r.data = d[1:]
		return uint64(d[0])
	}
	return r.uvarintLong()
}

func (r *reader) uvarintLong() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail(errBadUvarint)
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	return r.take(int(n))
}

// fail records err unless an earlier failure stands, and empties the
// input so every later read fails too.
func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.data = nil
}
