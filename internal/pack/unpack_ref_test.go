package pack

// The reference unpacker: a verbatim copy of Unpack, ParseIndex and
// finalize as they stood before Unpack read its index rows straight
// into the graph's blocks, with the pack helpers they called that have
// changed since (the reader, parseHeader, setNames,
// parseGroupDirectory, VerifyBlock). Only the names differ. TestUnpackMatchesReference and FuzzUnpackEquivalence
// hold Unpack to it. It runs over today's lower layers (the reader,
// codecs, cfg.FromParts, isa.Decode, Program.Validate), which their own
// packages pin.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/isa"
	"apbcc/internal/program"
)

func refUnpack(name string, data []byte) (*program.Program, compress.Codec, *Info, error) {
	idx, err := refParseIndex(data)
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
	var totalBytes int64
	for i := range idx.Blocks {
		totalBytes += int64(idx.Blocks[i].Words) * isa.WordSize
	}
	if bound := 8*idx.PayloadLen + isa.WordSize; totalBytes > bound {
		totalBytes = bound
	}
	plain := make([]byte, 0, totalBytes)
	blocks := make([]cfg.Block, len(idx.Blocks))
	offs := make([]uint32, 0, refNumGroups(idx))
	for i := range idx.Blocks {
		e := idx.Blocks[i]
		blocks[i] = cfg.Block{Label: e.Label, Func: e.Func, End: e.Words}
		comp := data[idx.PayloadBase+e.Off : idx.PayloadBase+e.Off+e.Len]
		if plain, err = refVerifyBlock(idx, codec, i, comp, plain); err != nil {
			return nil, nil, nil, err
		}
		if idx.GroupWords > 0 {
			if offs, err = gc.AppendGroupOffsets(offs[:0], comp); err != nil || !slices.Equal(offs, refBlockGroupOffsets(idx, i)) {
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
	p, err := refFinalize(name, g, plain, idx.ImageCRC)
	if err != nil {
		return nil, nil, nil, err
	}
	return p, codec, &Info{
		Version: Version, Codec: idx.Codec, Blocks: len(idx.Blocks), Edges: len(idx.Edges),
		CompressedBytes: int(idx.PayloadLen), PlainBytes: len(plain), ContainerBytes: len(data),
		GroupWords: idx.GroupWords, Groups: refNumGroups(idx),
	}, nil
}

func refFinalize(name string, g *cfg.Graph, plain []byte, wantCRC uint32) (*program.Program, error) {
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

// refIndex is Index as it stood, with its flat group directory.
type refIndex struct {
	Header
	Entry       cfg.BlockID
	Blocks      []IndexEntry
	Edges       []cfg.Edge
	GroupWords  int
	PayloadBase int64
	PayloadLen  int64
	groupOffs   []uint32
	groupBase   []int
}

func refNumGroups(x *refIndex) int { return len(x.groupOffs) }

func refBlockGroupOffsets(x *refIndex, i int) []uint32 {
	if x.GroupWords == 0 || i < 0 || i >= len(x.Blocks) {
		return nil
	}
	return x.groupOffs[x.groupBase[i]:x.groupBase[i+1]:x.groupBase[i+1]]
}

func refParseIndex(data []byte) (*refIndex, error) {
	r := &refReader{data: data}
	h, err := refParseHeader(r)
	if err != nil {
		return nil, err
	}
	idx := &refIndex{Header: h}
	idx.Entry = cfg.BlockID(r.uvarint())
	nblocks := int(r.uvarint())
	if r.err != nil || nblocks <= 0 || nblocks > 1<<20 || nblocks > len(r.data)/minEntryBytes {
		return nil, fmt.Errorf("%w: block count", ErrCorrupt)
	}
	idx.Blocks = make([]IndexEntry, nblocks)
	var stack [128][]byte
	names := stack[:0]
	var off int64
	for i := range idx.Blocks {
		e := &idx.Blocks[i]
		names = append(names, r.bytes(), r.bytes())
		e.Words = int(r.uvarint())
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
		if e.Off != off || e.Len < 0 {
			return nil, fmt.Errorf("%w: block %d payload at %d/%d, want contiguous at %d",
				ErrCorrupt, i, e.Off, e.Len, off)
		}
		off += e.Len
	}
	refSetNames(idx, names)
	nedges := int(r.uvarint())
	if r.err != nil || nedges < 0 || nedges > 1<<22 || nedges > len(r.data)/minEdgeBytes {
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
	if err := refParseGroupDirectory(r, idx); err != nil {
		return nil, err
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

func refSetNames(x *refIndex, names [][]byte) {
	n := 0
	for _, b := range names {
		n += len(b)
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, b := range names {
		sb.Write(b)
	}
	all := sb.String()
	for i := range x.Blocks {
		e := &x.Blocks[i]
		e.Label, all = all[:len(names[2*i])], all[len(names[2*i]):]
		e.Func, all = all[:len(names[2*i+1])], all[len(names[2*i+1]):]
	}
}

func refParseGroupDirectory(r *refReader, idx *refIndex) error {
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

func refVerifyBlock(x *refIndex, codec compress.Codec, i int, comp, dst []byte) ([]byte, error) {
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

func refParseHeader(r *refReader) (Header, error) {
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

type refReader struct {
	data []byte
	err  error
}

func (r *refReader) take(n int) []byte {
	if n < 0 || n > len(r.data) {
		r.fail(errTruncated)
		return nil
	}
	out := r.data[:n]
	r.data = r.data[n:]
	return out
}

func (r *refReader) uvarint() uint64 {
	if d := r.data; len(d) > 0 && d[0] < 0x80 {
		r.data = d[1:]
		return uint64(d[0])
	}
	return r.uvarintLong()
}

func (r *refReader) uvarintLong() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail(errBadUvarint)
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *refReader) bytes() []byte {
	n := r.uvarint()
	return r.take(int(n))
}

func (r *refReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.data = nil
}

// refIndexEqual reports whether a parsed index equals the reference's:
// every exported field, the model's bytes, and each block's group
// offsets.
func refIndexEqual(got *Index, want *refIndex) bool {
	if got.Codec != want.Codec || !bytes.Equal(got.Model, want.Model) || got.ImageCRC != want.ImageCRC ||
		got.Entry != want.Entry || !slices.Equal(got.Blocks, want.Blocks) || !slices.Equal(got.Edges, want.Edges) ||
		got.GroupWords != want.GroupWords || got.PayloadBase != want.PayloadBase || got.PayloadLen != want.PayloadLen ||
		got.NumGroups() != refNumGroups(want) {
		return false
	}
	for i := range want.Blocks {
		if !slices.Equal(got.BlockGroupOffsets(i), refBlockGroupOffsets(want, i)) {
			return false
		}
	}
	return true
}
