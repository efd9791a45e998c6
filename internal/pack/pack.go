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
// rest of the container — see Index / ReadIndexAt / DecompressBlockAt.
//
// The group directory is the v3 addition: when the codec supports
// group decode (compress.GroupCodec — bdi, cpack, dict, identity), the
// directory records where each fixed-size word group's bytes start
// inside every payload, so a word-granular read is one bounded ReadAt
// of the covering groups plus a DecompressGroup per group — no
// full-block decode. Group counts are derived from block word counts,
// never stored. A container whose codec cannot slice (entropy codecs)
// carries groupWords=0 and reads fall back to whole-block decode.
//
// Version v2 is identical minus the group directory; the legacy v1
// format interleaved each payload with its block record and had no
// per-block CRCs or offsets, so v1 containers can only be decompressed
// front to back. Unpack reads all three; Pack emits v3.
package pack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sync"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/isa"
	"apbcc/internal/program"
)

// Magic identifies a pack container.
var Magic = []byte("APCC")

// Version is the container format version Pack emits (the indexed
// format with the sub-block group directory). VersionV2 is the
// group-less indexed format and VersionV1 the legacy index-less
// format; both stay readable.
const (
	Version   = 3
	VersionV2 = 2
	VersionV1 = 1
)

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
// codec. The codec must be registered with a model unmarshaler (all
// built-in codecs are). It is PackParallel with one worker.
func Pack(p *program.Program, codec compress.Codec) ([]byte, error) {
	return PackParallel(p, codec, 1)
}

// PackParallel is Pack with block compression fanned out over the given
// number of workers. 0 or negative selects an automatic count:
// GOMAXPROCS, capped so every worker amortizes at least
// packParallelGrain bytes of compression work — small builds stay
// serial, because each extra worker pays fixed per-stride costs (a
// goroutine and its payload arena) that swamp sub-grain inputs. An
// explicit positive count is honored as given. Each worker compresses
// its stride of blocks into its own arena; payloads are assembled in
// block order afterwards, so the container is byte-identical for every
// worker count. The codec must be safe for concurrent use (all built-in
// codecs are — per-call state is stack-local or pooled).
func PackParallel(p *program.Program, codec compress.Codec, workers int) ([]byte, error) {
	return packVersion(p, codec, workers, Version)
}

// packParallelGrain is the minimum input bytes automatic worker
// selection hands each worker. At the suite's compression throughputs
// (≈10 MB/s serial) 32 KiB is a few milliseconds of work — enough to
// bury the microseconds of per-worker setup that made GOMAXPROCS
// builds of kilobyte programs slower than serial ones.
const packParallelGrain = 32 << 10

// autoWorkers caps an automatic worker count for a build of totalBytes
// so every worker gets at least one full grain; maxProcs is the
// available parallelism (GOMAXPROCS in production, pinned values in
// tests).
func autoWorkers(totalBytes, maxProcs int) int {
	maxW := totalBytes / packParallelGrain
	if maxW < 1 {
		maxW = 1
	}
	if maxProcs > maxW {
		return maxW
	}
	return maxProcs
}

// packVersion serializes the program in the requested container format
// version. v1 and v2 stay writable so the cross-version test matrix can
// pin that Unpack reads legacy containers identically.
func packVersion(p *program.Program, codec compress.Codec, workers, version int) ([]byte, error) {
	if version != Version && version != VersionV2 && version != VersionV1 {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Encode the whole image once, into a pooled buffer: its CRC goes in
	// the header, and every block's plain image is a window of it.
	image := compress.GetBuf(p.TotalBytes())
	defer func() { compress.PutBuf(image) }()
	image, err := p.AppendCodeBytes(image[:0])
	if err != nil {
		return nil, err
	}
	payloads, crcs, err := compressBlocks(p, image, codec, workers)
	if err != nil {
		return nil, err
	}
	g := p.Graph
	nedges, payloadBytes := 0, 0
	for _, b := range g.Blocks() {
		nedges += len(g.Succs(b.ID))
	}
	for _, pay := range payloads {
		payloadBytes += len(pay)
	}
	// One allocation: payloads plus a generous per-block/per-edge
	// metadata estimate.
	buf := make([]byte, 0, payloadBytes+64*g.NumBlocks()+32*nedges+256)
	buf = append(buf, Magic...)
	buf = binary.AppendUvarint(buf, uint64(version))
	buf = appendBytes(buf, codec.Name())
	buf = appendBytes(buf, compress.MarshalModel(codec))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(image))

	buf = binary.AppendUvarint(buf, uint64(g.Entry()))
	buf = binary.AppendUvarint(buf, uint64(g.NumBlocks()))
	var off uint64
	for i, b := range g.Blocks() {
		buf = appendBytes(buf, b.Label)
		buf = appendBytes(buf, b.Func)
		buf = binary.AppendUvarint(buf, uint64(b.Words()))
		if version == VersionV1 {
			buf = appendBytes(buf, payloads[i])
			continue
		}
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
	if version == Version {
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
	}
	if version != VersionV1 {
		buf = binary.AppendUvarint(buf, off)
		for _, pay := range payloads {
			buf = append(buf, pay...)
		}
	}
	return buf, nil
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
// plain-image CRCs indexed in g.Blocks() order. Workers take strided
// indices so the result is position-deterministic regardless of
// scheduling. Each worker compresses its stride into one arena (see
// compressStride), so the payloads cost one allocation per worker.
func compressBlocks(p *program.Program, image []byte, codec compress.Codec, workers int) ([][]byte, []uint32, error) {
	blocks := p.Graph.Blocks()
	if workers <= 0 {
		workers = autoWorkers(p.TotalBytes(), runtime.GOMAXPROCS(0))
	}
	if workers > len(blocks) {
		workers = len(blocks)
	}
	payloads := make([][]byte, len(blocks))
	crcs := make([]uint32, len(blocks))
	if workers <= 1 {
		return payloads, crcs, compressStride(p, image, codec, payloads, crcs, 0, 1)
	}
	if err := compressParallel(p, image, codec, payloads, crcs, workers); err != nil {
		return nil, nil, err
	}
	return payloads, crcs, nil
}

// compressParallel runs one compressStride per worker and waits for
// all of them. It is apart from compressBlocks so a serial build does
// not pay for the variables the goroutines capture.
func compressParallel(p *program.Program, image []byte, codec compress.Codec, payloads [][]byte, crcs []uint32, workers int) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = compressStride(p, image, codec, payloads, crcs, w, workers)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// compressStride compresses blocks start, start+step, ... into one
// arena sized for the codec's worst case on them, filling their
// payloads (windows of the arena) and CRCs.
func compressStride(p *program.Program, image []byte, codec compress.Codec, payloads [][]byte, crcs []uint32, start, step int) error {
	blocks := p.Graph.Blocks()
	size := 0
	for i := start; i < len(blocks); i += step {
		size += codec.MaxCompressedLen(max(blocks[i].Bytes(), 0))
	}
	arena := make([]byte, 0, size)
	for i := start; i < len(blocks); i += step {
		img, err := p.BlockImage(image, blocks[i].ID)
		if err != nil {
			return err
		}
		crcs[i] = crc32.ChecksumIEEE(img)
		lo := len(arena)
		arena, err = codec.CompressAppend(arena, img)
		if err != nil {
			return fmt.Errorf("pack: block %s: %w", blocks[i], err)
		}
		payloads[i] = arena[lo:len(arena):len(arena)]
	}
	return nil
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
// container, verifying the image checksum (and, for v2/v3, every
// per-block checksum). All three format versions are accepted.
func Unpack(name string, data []byte) (*program.Program, compress.Codec, *Info, error) {
	p, codec, info, _, err := unpack(name, data)
	return p, codec, info, err
}

// unpack is Unpack that also returns the parsed index of a v2/v3
// container (nil for v1), so the streaming Unpacker can cache it
// without parsing the metadata a second time.
func unpack(name string, data []byte) (*program.Program, compress.Codec, *Info, *Index, error) {
	r := &reader{data: data}
	magic := r.take(len(Magic))
	if !bytes.Equal(magic, Magic) {
		return nil, nil, nil, nil, ErrBadMagic
	}
	switch v := r.uvarint(); {
	case r.err != nil:
		return nil, nil, nil, nil, r.err
	case v == VersionV1:
		p, codec, info, err := unpackV1(name, r, len(data))
		return p, codec, info, nil, err
	case v == VersionV2 || v == Version:
		return unpackV2(name, data)
	default:
		return nil, nil, nil, nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
}

// unpackV1 reads the legacy interleaved format; r is positioned just
// past the version field.
func unpackV1(name string, r *reader, containerBytes int) (*program.Program, compress.Codec, *Info, error) {
	codecName := string(r.bytes())
	model := r.bytes()
	crcBytes := r.take(4)
	if r.err != nil {
		return nil, nil, nil, r.err
	}
	codec, err := compress.FromModel(codecName, model)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("pack: %w", err)
	}
	wantCRC := binary.LittleEndian.Uint32(crcBytes)

	entry := cfg.BlockID(r.uvarint())
	nblocks := int(r.uvarint())
	if r.err != nil || nblocks <= 0 || nblocks > 1<<20 {
		return nil, nil, nil, fmt.Errorf("%w: block count", ErrCorrupt)
	}
	g := cfg.New()
	info := &Info{Version: VersionV1, Codec: codecName, Blocks: nblocks, ContainerBytes: containerBytes}
	var plain []byte
	for i := 0; i < nblocks; i++ {
		label := string(r.bytes())
		fn := string(r.bytes())
		words := int(r.uvarint())
		comp := r.bytes()
		if r.err != nil {
			return nil, nil, nil, r.err
		}
		id := g.AddBlock(label, words)
		g.Block(id).Func = fn
		// Decompress straight onto the end of the accumulated image —
		// the append API makes the reconstruction copy-free.
		start := len(plain)
		plain, err = codec.DecompressAppend(plain, comp)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("pack: block %d: %w", i, err)
		}
		if got := len(plain) - start; got != words*isa.WordSize {
			return nil, nil, nil, fmt.Errorf("%w: block %d decompressed to %d bytes, want %d",
				ErrCorrupt, i, got, words*isa.WordSize)
		}
		info.CompressedBytes += len(comp)
	}
	if err := g.SetEntry(entry); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: entry %d", ErrCorrupt, entry)
	}
	nedges := int(r.uvarint())
	if r.err != nil || nedges < 0 || nedges > 1<<22 {
		return nil, nil, nil, fmt.Errorf("%w: edge count", ErrCorrupt)
	}
	info.Edges = nedges
	for i := 0; i < nedges; i++ {
		from := cfg.BlockID(r.uvarint())
		to := cfg.BlockID(r.uvarint())
		kind := cfg.EdgeKind(r.uvarint())
		p64 := r.take(8)
		if r.err != nil {
			return nil, nil, nil, r.err
		}
		prob := math.Float64frombits(binary.LittleEndian.Uint64(p64))
		if !validProb(prob) {
			return nil, nil, nil, fmt.Errorf("%w: edge %d probability %v outside [0,1]", ErrCorrupt, i, prob)
		}
		if err := g.AddEdge(from, to, kind, prob); err != nil {
			return nil, nil, nil, fmt.Errorf("%w: edge %d: %v", ErrCorrupt, i, err)
		}
	}
	return finalize(name, g, plain, wantCRC, info, codec)
}

// unpackV2 reads the indexed formats (v2 and v3): parse the metadata
// prefix, then decompress the payload section block by block, verifying
// each block CRC as it lands. It returns the parsed index too.
func unpackV2(name string, data []byte) (*program.Program, compress.Codec, *Info, *Index, error) {
	idx, err := ParseIndex(data)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if idx.PayloadBase+idx.PayloadLen != int64(len(data)) {
		return nil, nil, nil, nil, fmt.Errorf("%w: container is %d bytes, index describes %d",
			ErrCorrupt, len(data), idx.PayloadBase+idx.PayloadLen)
	}
	codec, err := idx.NewCodec()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	info := &Info{
		Version: idx.Version, Codec: idx.Codec, Blocks: len(idx.Blocks), Edges: len(idx.Edges),
		CompressedBytes: int(idx.PayloadLen), ContainerBytes: len(data),
		GroupWords: idx.GroupWords, Groups: idx.NumGroups(),
	}
	// The index fixes the exact plain-image size up front, so the image
	// streams through one exactly-sized pooled buffer — it is scratch:
	// finalize decodes instructions straight out of it and the Program
	// keeps only those. The pre-size is a hint, not trust: the claimed
	// total is clamped by what the payload bytes could plausibly decode
	// to (ParseIndex already bounds each block's Words), so a hostile
	// index can cost at most one bounded allocation — per-block
	// verification then rejects the lie, and a legitimately
	// higher-expansion container (RLE) just grows the buffer.
	var totalBytes int64
	for i := range idx.Blocks {
		totalBytes += int64(idx.Blocks[i].Words) * isa.WordSize
	}
	if bound := 8*idx.PayloadLen + isa.WordSize; totalBytes > bound {
		totalBytes = bound
	}
	plain := compress.GetBuf(int(totalBytes))
	defer func() { compress.PutBuf(plain) }()
	blocks := make([]cfg.Block, len(idx.Blocks))
	for i := range idx.Blocks {
		e := idx.Blocks[i]
		blocks[i] = cfg.Block{Label: e.Label, Func: e.Func, End: e.Words}
		comp := data[idx.PayloadBase+e.Off : idx.PayloadBase+e.Off+e.Len]
		if plain, err = idx.VerifyBlock(codec, i, comp, plain); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	g, bad, err := cfg.FromParts(blocks, idx.Entry, idx.Edges)
	switch {
	case err != nil && bad < 0:
		return nil, nil, nil, nil, fmt.Errorf("%w: entry %d", ErrCorrupt, idx.Entry)
	case err != nil:
		return nil, nil, nil, nil, fmt.Errorf("%w: edge %d: %v", ErrCorrupt, bad, err)
	}
	p, codec, info, err := finalize(name, g, plain, idx.ImageCRC, info, codec)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return p, codec, info, idx, nil
}

// finalize is the version-independent tail of Unpack: whole-image
// checksum, instruction decode, block range re-derivation, and full
// program validation. plain is treated as scratch: instructions are
// decoded straight out of the byte image (no intermediate word slice),
// and the caller may pool the buffer once finalize returns.
func finalize(name string, g *cfg.Graph, plain []byte, wantCRC uint32, info *Info, codec compress.Codec) (*program.Program, compress.Codec, *Info, error) {
	info.PlainBytes = len(plain)
	if got := crc32.ChecksumIEEE(plain); got != wantCRC {
		return nil, nil, nil, fmt.Errorf("%w: %#x != %#x", ErrBadChecksum, got, wantCRC)
	}
	if len(plain)%isa.WordSize != 0 {
		return nil, nil, nil, fmt.Errorf("pack: %w: %d bytes is not a whole number of words", isa.ErrShortBuffer, len(plain))
	}
	ins := make([]isa.Instruction, len(plain)/isa.WordSize)
	for i := range ins {
		in, err := isa.Decode(isa.ByteOrder.Uint32(plain[i*isa.WordSize:]))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("pack: isa: word %d: %w", i, err)
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
		return nil, nil, nil, fmt.Errorf("pack: reconstructed program invalid: %w", err)
	}
	return p, codec, info, nil
}

// --- primitive readers ----------------------------------------------

type reader struct {
	data []byte
	err  error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data) {
		r.err = fmt.Errorf("%w: truncated", ErrCorrupt)
		return nil
	}
	out := r.data[:n]
	r.data = r.data[n:]
	return out
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.err = fmt.Errorf("%w: bad uvarint", ErrCorrupt)
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	return r.take(int(n))
}
