package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"apbcc/internal/isa"
)

// cpack is a C-Pack-style word-pattern codec (Chen et al., "C-Pack: A
// High-Performance Microprocessor Cache Compression Algorithm"): every
// 32-bit word is classified into one of six fixed pattern classes and
// stored as a 4-bit tag plus a class-dependent payload of 0..4 bytes.
// A small moving dictionary of recently seen words turns the
// redundancy of instruction streams (repeated opcodes, shared
// high-halfword address bases) into 1- and 3-byte encodings; because
// the decompressor rebuilds the dictionary with the identical push
// rule, blocks stay self-contained.
//
// Pattern classes (tag nibble -> payload):
//
//	ZZZZ (0) -> 0 bytes  all-zero word
//	MMMM (1) -> 1 byte   full dictionary match (payload = entry index)
//	ZZZX (2) -> 1 byte   upper 24 bits zero (payload = low byte)
//	MMXX (3) -> 3 bytes  dictionary match on the upper 16 bits
//	                     (payload = index, low halfword LE)
//	XXXX (4) -> 4 bytes  raw little-endian word
//	MMMX (5) -> 2 bytes  dictionary match on the upper 24 bits
//	                     (payload = index, low byte)
//
// Wire format per block: uvarint original byte length, then the words
// in pairs — one tag byte carrying two class nibbles (low nibble =
// first word) followed by both payloads in word order — and a raw
// non-word-multiple tail. A final odd word uses only the low nibble;
// the high nibble is written as zero and ignored by the decoder.
//
// The moving dictionary has 16 entries and is pushed (FIFO) by exactly
// the classes that carry new word material: XXXX, MMXX and MMMX. Unlike
// hardware C-Pack it does not have to start cold: training seeds the
// dictionary's initial state with the most frequent words of the
// program image (serialized as the codec model, like dict's table), so
// small blocks get full-match hits from the first word. Seeds are
// stored least-frequent-first and the push cursor starts after them,
// so eviction reaches the hottest seeds last.
//
// The dictionary is reset to that seed state every cpackGroupWords
// words, making each 32-word group independently decodable (the group
// index in pack v3 depends on it; see group.go for the trade-off).
//
// Decode is branch-light: a 256-entry table maps each tag byte to the
// combined payload length of both nibbles (or rejects invalid nibbles),
// so the hot loop does one table load and one bounds check per *pair*
// of words, then two small class switches writing whole 4-byte words.
type cpack struct {
	// seed is the trained initial dictionary state, ascending by
	// frequency over seed[:seedN]; the rest is zero.
	seed  [cpackDictEntries]uint32
	seedN int
}

// cpackDictEntries is the moving-dictionary capacity. 16 entries keep
// the whole dictionary in registers/L1 and the index inside one nibble
// of headroom (it is stored in a full byte; values >= 16 are corrupt).
const cpackDictEntries = 16

// cpackGroupWords is the group-decode granularity: the moving
// dictionary is reset to the trained seed every 32 words, on both
// sides, so any group can be decoded without replaying the stream
// before it (the seekable-format trade: slightly fewer cross-group
// matches buy random access — see group.go). 32 words is two full
// dictionary turnovers, wide enough that reset cost stays small, and a
// multiple of 2 so group boundaries always land on tag-byte pairs.
const cpackGroupWords = 32

// Tag nibble values. The zero value is ZZZZ so an ignored high nibble
// of a final odd word (always written 0) reads as a valid class.
const (
	cpZZZZ = iota
	cpMMMM
	cpZZZX
	cpMMXX
	cpXXXX
	cpMMMX
	cpClassCount
)

// cpackClassNames orders the class labels for pattern reporting.
var cpackClassNames = [cpClassCount]string{"ZZZZ", "MMMM", "ZZZX", "MMXX", "XXXX", "MMMX"}

// cpackPayLen maps a tag nibble to its payload length; -1 = invalid.
var cpackPayLen = [16]int8{
	cpZZZZ: 0, cpMMMM: 1, cpZZZX: 1, cpMMXX: 3, cpXXXX: 4, cpMMMX: 2,
	6: -1, 7: -1, 8: -1, 9: -1, 10: -1, 11: -1, 12: -1, 13: -1, 14: -1, 15: -1,
}

// cpackPairLen maps a whole tag byte to the combined payload length of
// both nibbles, or -1 when either nibble is not a pattern class. One
// load against this table validates a pair and tells the fast loop how
// far the payload extends.
var cpackPairLen [256]int8

func init() {
	for t := 0; t < 256; t++ {
		lo, hi := cpackPayLen[t&0xF], cpackPayLen[t>>4]
		if lo < 0 || hi < 0 {
			cpackPairLen[t] = -1
		} else {
			cpackPairLen[t] = lo + hi
		}
	}
}

// NewCPack returns the C-Pack word-pattern codec, its moving
// dictionary seeded with the up-to-16 most frequent nonzero words of
// the training image (nil trains nothing: a cold dictionary).
func NewCPack(train []byte) Codec {
	// Zero words are ZZZZ and sub-256 words are ZZZX: both already encode
	// tighter than a seeded full match would. Singletons stay in: like
	// dict's table the seed ships as an out-of-band model, so even one
	// occurrence turns 4.5 raw bytes into a 1.5-byte full match.
	all := rankWords(train, func(w wordCount) bool { return w.w > 0xFF })
	all = all[:min(len(all), cpackDictEntries)]
	c := &cpack{seedN: len(all)}
	for i, e := range all {
		// Ascending frequency: the FIFO cursor evicts slot 0 first, so
		// the hottest seed lives at the highest slot and dies last.
		c.seed[len(all)-1-i] = e.w
	}
	return c
}

func (c *cpack) Name() string { return "cpack" }

// Cost mirrors the measured shape of the decoder: a per-pair table
// dispatch plus word stores lands near dict's per-byte cost, with a
// smaller fixed term because setup is copying the 16-entry seed, not
// loading a trained table. Compression pays linear scans of the
// 16-entry dictionary per word, slightly above dict's map probe.
func (c *cpack) Cost() CostModel {
	return CostModel{
		CompressFixed: 16, CompressPerByte: 4,
		DecompressFixed: 8, DecompressPerByte: 1,
	}
}

// MaxCompressedLen is the uvarint header, one tag byte per word pair,
// the worst case of every word raw, and the raw tail.
func (c *cpack) MaxCompressedLen(n int) int {
	nWords := n / isa.WordSize
	return binary.MaxVarintLen64 + (nWords+1)/2 + n
}

// cpackClassify picks the cheapest class for w given the dictionary
// state: with the half-tag share, ZZZZ costs 0.5 bytes, MMMM/ZZZX 1.5,
// MMMX 2.5, MMXX 3.5 and XXXX 4.5 — so classes are tried in cost
// order.
func cpackClassify(w uint32, dct *[cpackDictEntries]uint32) (cls, idx byte) {
	if w == 0 {
		return cpZZZZ, 0
	}
	for i := 0; i < cpackDictEntries; i++ {
		if dct[i] == w {
			return cpMMMM, byte(i)
		}
	}
	if w <= 0xFF {
		return cpZZZX, 0
	}
	for i := 0; i < cpackDictEntries; i++ {
		if dct[i]>>8 == w>>8 {
			return cpMMMX, byte(i)
		}
	}
	for i := 0; i < cpackDictEntries; i++ {
		if dct[i]>>16 == w>>16 {
			return cpMMXX, byte(i)
		}
	}
	return cpXXXX, 0
}

// cpackEmit appends the payload for one classified word and applies the
// dictionary push rule (XXXX, MMXX and MMMX insert the decoded word).
func cpackEmit(out []byte, w uint32, cls, idx byte, dct *[cpackDictEntries]uint32, head *int) []byte {
	switch cls {
	case cpZZZZ:
	case cpMMMM:
		out = append(out, idx)
	case cpZZZX:
		out = append(out, byte(w))
	case cpMMXX:
		out = append(out, idx, byte(w), byte(w>>8))
		dct[*head] = w
		*head = (*head + 1) & (cpackDictEntries - 1)
	case cpMMMX:
		out = append(out, idx, byte(w))
		dct[*head] = w
		*head = (*head + 1) & (cpackDictEntries - 1)
	case cpXXXX:
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		dct[*head] = w
		*head = (*head + 1) & (cpackDictEntries - 1)
	}
	return out
}

func (c *cpack) CompressAppend(dst, src []byte) ([]byte, error) {
	return c.compressAppend(dst, src, nil)
}

// compressAppend is CompressAppend with optional per-class accounting:
// when pats is non-nil, it accumulates the words and payload bytes each
// pattern class absorbed (tag bytes are shared and reported separately
// under a synthetic "tags" class).
func (c *cpack) compressAppend(dst, src []byte, pats *[cpClassCount]patternAcc) ([]byte, error) {
	out := binary.AppendUvarint(dst, uint64(len(src)))
	nWords := len(src) / isa.WordSize
	dct := c.seed
	head := c.seedN & (cpackDictEntries - 1)
	for w := 0; w < nWords; {
		if w&(cpackGroupWords-1) == 0 {
			// Group boundary: restart from the seed state so the group
			// decodes standalone. w is always even here (pairs), so the
			// boundary never splits a tag byte.
			dct = c.seed
			head = c.seedN & (cpackDictEntries - 1)
		}
		tagPos := len(out)
		out = append(out, 0)
		v0 := isa.ByteOrder.Uint32(src[w*isa.WordSize:])
		cls0, idx0 := cpackClassify(v0, &dct)
		out = cpackEmit(out, v0, cls0, idx0, &dct, &head)
		if pats != nil {
			pats[cls0].words++
			pats[cls0].bytes += int(cpackPayLen[cls0])
		}
		w++
		var cls1 byte // ZZZZ: ignored filler nibble for a final odd word
		if w < nWords {
			v1 := isa.ByteOrder.Uint32(src[w*isa.WordSize:])
			var idx1 byte
			cls1, idx1 = cpackClassify(v1, &dct)
			out = cpackEmit(out, v1, cls1, idx1, &dct, &head)
			if pats != nil {
				pats[cls1].words++
				pats[cls1].bytes += int(cpackPayLen[cls1])
			}
			w++
		}
		out[tagPos] = cls0 | cls1<<4
	}
	out = append(out, src[nWords*isa.WordSize:]...) // raw tail, if any
	return out, nil
}

// cpackDecodeNibble decodes one word of class cls at src[pos], writing
// it to out[l:]. It assumes the payload is in range (the fast pair
// loop's precondition) and returns the advanced pos, or -1 for a
// dictionary index out of range.
func cpackDecodeNibble(cls byte, src []byte, pos int, out []byte, l int, dct *[cpackDictEntries]uint32, head *int) int {
	switch cls {
	case cpZZZZ:
		isa.ByteOrder.PutUint32(out[l:], 0)
	case cpMMMM:
		idx := src[pos]
		pos++
		if idx >= cpackDictEntries {
			return -1
		}
		isa.ByteOrder.PutUint32(out[l:], dct[idx])
	case cpZZZX:
		isa.ByteOrder.PutUint32(out[l:], uint32(src[pos]))
		pos++
	case cpMMXX:
		idx := src[pos]
		if idx >= cpackDictEntries {
			return -1
		}
		v := dct[idx]&^uint32(0xFFFF) | uint32(src[pos+1]) | uint32(src[pos+2])<<8
		pos += 3
		isa.ByteOrder.PutUint32(out[l:], v)
		dct[*head] = v
		*head = (*head + 1) & (cpackDictEntries - 1)
	case cpMMMX:
		idx := src[pos]
		if idx >= cpackDictEntries {
			return -1
		}
		v := dct[idx]&^uint32(0xFF) | uint32(src[pos+1])
		pos += 2
		isa.ByteOrder.PutUint32(out[l:], v)
		dct[*head] = v
		*head = (*head + 1) & (cpackDictEntries - 1)
	default: // cpXXXX — callers have already rejected invalid nibbles
		v := isa.ByteOrder.Uint32(src[pos:])
		pos += isa.WordSize
		isa.ByteOrder.PutUint32(out[l:], v)
		dct[*head] = v
		*head = (*head + 1) & (cpackDictEntries - 1)
	}
	return pos
}

// DecompressAppend is the fast-path decoder. The output image is
// pre-sized from the length header (clamped by the most a ZZZZ-heavy
// stream could expand to), then filled by 4-byte word stores. The hot
// loop handles a whole word pair per iteration: one cpackPairLen load
// both validates the tag byte and bounds the payload, so only the
// dictionary-index range check survives per word; the two hottest tag
// bytes (a full-match pair, a raw pair) take straight-line special
// cases. Behavior is pinned byte-identical to refCPackDecompress by
// FuzzDecodeEquivalence.
func (c *cpack) DecompressAppend(dst, src []byte) ([]byte, error) {
	n, hdr := binary.Uvarint(src)
	if hdr <= 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: bad cpack length header", ErrCorrupt)
	}
	src = src[hdr:]
	// A tag byte (1 byte) can encode two ZZZZ words (8 output bytes),
	// which bounds what a corrupt header can pre-allocate and proves the
	// indexed stores stay inside the pre-sized image: each pair consumes
	// at least its tag byte before writing 8 bytes.
	need := clampGrow(n, 8*len(src)+isa.WordSize)
	base := len(dst)
	out := growCap(dst, need)
	out = out[:base+need]
	l := base
	nWords := int(n) / isa.WordSize
	pos := 0
	w := 0
	dct := c.seed
	head := c.seedN & (cpackDictEntries - 1)
	// Fast pair loop: tag plus both payloads is at most 9 bytes, so one
	// bound check up front covers the whole pair. The nibble decode is
	// fully inlined (no cpackDecodeNibble call), so dct and head live in
	// registers across the whole loop instead of being spilled for a
	// non-inlinable call per word — that call was the large-block
	// throughput collapse: per-pair function-call and dictionary-store
	// traffic dominated once blocks outgrew the L1-resident sizes.
	for w+2 <= nWords && pos+9 <= len(src) {
		if w&(cpackGroupWords-1) == 0 {
			dct = c.seed
			head = c.seedN & (cpackDictEntries - 1)
		}
		tag := src[pos]
		pos++
		switch tag {
		case cpMMMM | cpMMMM<<4: // both full matches: 2 index loads
			i0, i1 := src[pos], src[pos+1]
			if i0 >= cpackDictEntries || i1 >= cpackDictEntries {
				return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
			}
			pos += 2
			isa.ByteOrder.PutUint32(out[l:], dct[i0])
			isa.ByteOrder.PutUint32(out[l+isa.WordSize:], dct[i1])
		case cpXXXX | cpXXXX<<4: // both raw: one 8-byte copy + 2 pushes
			v0 := isa.ByteOrder.Uint32(src[pos:])
			v1 := isa.ByteOrder.Uint32(src[pos+isa.WordSize:])
			*(*[8]byte)(out[l:]) = *(*[8]byte)(src[pos:])
			pos += 2 * isa.WordSize
			dct[head] = v0
			head = (head + 1) & (cpackDictEntries - 1)
			dct[head] = v1
			head = (head + 1) & (cpackDictEntries - 1)
		case cpXXXX | cpMMMM<<4: // raw then full match
			v0 := isa.ByteOrder.Uint32(src[pos:])
			idx := src[pos+isa.WordSize]
			if idx >= cpackDictEntries {
				return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
			}
			pos += isa.WordSize + 1
			isa.ByteOrder.PutUint32(out[l:], v0)
			dct[head] = v0
			head = (head + 1) & (cpackDictEntries - 1)
			isa.ByteOrder.PutUint32(out[l+isa.WordSize:], dct[idx])
		case cpMMMM | cpXXXX<<4: // full match then raw
			idx := src[pos]
			if idx >= cpackDictEntries {
				return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
			}
			v1 := isa.ByteOrder.Uint32(src[pos+1:])
			pos += 1 + isa.WordSize
			isa.ByteOrder.PutUint32(out[l:], dct[idx])
			isa.ByteOrder.PutUint32(out[l+isa.WordSize:], v1)
			dct[head] = v1
			head = (head + 1) & (cpackDictEntries - 1)
		case cpXXXX | cpMMMX<<4: // raw then upper-24 match
			v0 := isa.ByteOrder.Uint32(src[pos:])
			idx := src[pos+isa.WordSize]
			if idx >= cpackDictEntries {
				return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
			}
			dct[head] = v0
			head = (head + 1) & (cpackDictEntries - 1)
			v1 := dct[idx]&^uint32(0xFF) | uint32(src[pos+isa.WordSize+1])
			pos += isa.WordSize + 2
			isa.ByteOrder.PutUint32(out[l:], v0)
			isa.ByteOrder.PutUint32(out[l+isa.WordSize:], v1)
			dct[head] = v1
			head = (head + 1) & (cpackDictEntries - 1)
		case cpMMMX | cpXXXX<<4: // upper-24 match then raw
			idx := src[pos]
			if idx >= cpackDictEntries {
				return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
			}
			v0 := dct[idx]&^uint32(0xFF) | uint32(src[pos+1])
			v1 := isa.ByteOrder.Uint32(src[pos+2:])
			pos += 2 + isa.WordSize
			isa.ByteOrder.PutUint32(out[l:], v0)
			isa.ByteOrder.PutUint32(out[l+isa.WordSize:], v1)
			dct[head] = v0
			head = (head + 1) & (cpackDictEntries - 1)
			dct[head] = v1
			head = (head + 1) & (cpackDictEntries - 1)
		default:
			if cpackPairLen[tag] < 0 {
				return nil, fmt.Errorf("%w: cpack tag %#02x has no pattern class", ErrCorrupt, tag)
			}
			switch tag & 0xF {
			case cpZZZZ:
				isa.ByteOrder.PutUint32(out[l:], 0)
			case cpMMMM:
				idx := src[pos]
				pos++
				if idx >= cpackDictEntries {
					return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
				}
				isa.ByteOrder.PutUint32(out[l:], dct[idx])
			case cpZZZX:
				isa.ByteOrder.PutUint32(out[l:], uint32(src[pos]))
				pos++
			case cpMMXX:
				idx := src[pos]
				if idx >= cpackDictEntries {
					return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
				}
				v := dct[idx]&^uint32(0xFFFF) | uint32(src[pos+1]) | uint32(src[pos+2])<<8
				pos += 3
				isa.ByteOrder.PutUint32(out[l:], v)
				dct[head] = v
				head = (head + 1) & (cpackDictEntries - 1)
			case cpMMMX:
				idx := src[pos]
				if idx >= cpackDictEntries {
					return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
				}
				v := dct[idx]&^uint32(0xFF) | uint32(src[pos+1])
				pos += 2
				isa.ByteOrder.PutUint32(out[l:], v)
				dct[head] = v
				head = (head + 1) & (cpackDictEntries - 1)
			default: // cpXXXX
				v := isa.ByteOrder.Uint32(src[pos:])
				pos += isa.WordSize
				isa.ByteOrder.PutUint32(out[l:], v)
				dct[head] = v
				head = (head + 1) & (cpackDictEntries - 1)
			}
			switch tag >> 4 {
			case cpZZZZ:
				isa.ByteOrder.PutUint32(out[l+isa.WordSize:], 0)
			case cpMMMM:
				idx := src[pos]
				pos++
				if idx >= cpackDictEntries {
					return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
				}
				isa.ByteOrder.PutUint32(out[l+isa.WordSize:], dct[idx])
			case cpZZZX:
				isa.ByteOrder.PutUint32(out[l+isa.WordSize:], uint32(src[pos]))
				pos++
			case cpMMXX:
				idx := src[pos]
				if idx >= cpackDictEntries {
					return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
				}
				v := dct[idx]&^uint32(0xFFFF) | uint32(src[pos+1]) | uint32(src[pos+2])<<8
				pos += 3
				isa.ByteOrder.PutUint32(out[l+isa.WordSize:], v)
				dct[head] = v
				head = (head + 1) & (cpackDictEntries - 1)
			case cpMMMX:
				idx := src[pos]
				if idx >= cpackDictEntries {
					return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
				}
				v := dct[idx]&^uint32(0xFF) | uint32(src[pos+1])
				pos += 2
				isa.ByteOrder.PutUint32(out[l+isa.WordSize:], v)
				dct[head] = v
				head = (head + 1) & (cpackDictEntries - 1)
			default: // cpXXXX
				v := isa.ByteOrder.Uint32(src[pos:])
				pos += isa.WordSize
				isa.ByteOrder.PutUint32(out[l+isa.WordSize:], v)
				dct[head] = v
				head = (head + 1) & (cpackDictEntries - 1)
			}
		}
		l += 2 * isa.WordSize
		w += 2
	}
	// Careful loop: remaining words with per-payload truncation checks.
	// Its accept/reject behavior is the codec contract.
	for w < nWords {
		if w&(cpackGroupWords-1) == 0 {
			dct = c.seed
			head = c.seedN & (cpackDictEntries - 1)
		}
		if pos >= len(src) {
			return nil, fmt.Errorf("%w: cpack stream truncated at word %d", ErrCorrupt, w)
		}
		tag := src[pos]
		pos++
		for half := 0; half < 2 && w < nWords; half++ {
			cls := (tag >> (4 * half)) & 0xF
			pay := cpackPayLen[cls]
			if pay < 0 {
				return nil, fmt.Errorf("%w: cpack tag nibble %d has no pattern class", ErrCorrupt, cls)
			}
			if pos+int(pay) > len(src) {
				return nil, fmt.Errorf("%w: cpack payload truncated at word %d", ErrCorrupt, w)
			}
			pos = cpackDecodeNibble(cls, src, pos, out, l, &dct, &head)
			if pos < 0 {
				return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
			}
			l += isa.WordSize
			w++
		}
	}
	tail := int(n) - nWords*isa.WordSize
	if pos+tail > len(src) {
		return nil, fmt.Errorf("%w: cpack tail truncated", ErrCorrupt)
	}
	copy(out[l:l+tail], src[pos:])
	return out[:l+tail], nil
}

func (c *cpack) Compress(src []byte) ([]byte, error)   { return c.CompressAppend(nil, src) }
func (c *cpack) Decompress(src []byte) ([]byte, error) { return c.DecompressAppend(nil, src) }

// CountPatterns implements PatternReporter: a counting compression pass
// over src whose per-class word and payload-byte totals are merged into
// acc. The shared tag bytes appear under a synthetic "tags" class so
// the byte totals plus the length header sum to the compressed size.
func (c *cpack) CountPatterns(src []byte, acc PatternStats) (PatternStats, error) {
	var pats [cpClassCount]patternAcc
	scratch := GetBuf(c.MaxCompressedLen(len(src)))
	out, err := c.compressAppend(scratch[:0], src, &pats)
	if err != nil {
		PutBuf(scratch)
		return acc, err
	}
	payload := 0
	for cls, p := range pats {
		acc = acc.add(cpackClassNames[cls], p.words, p.bytes)
		payload += p.bytes
	}
	tail := len(src) - (len(src)/isa.WordSize)*isa.WordSize
	hdrLen := 1
	for v := uint64(len(src)); v >= 0x80; v >>= 7 {
		hdrLen++
	}
	acc = acc.add("tags", 0, len(out)-hdrLen-payload-tail)
	PutBuf(out)
	return acc, nil
}

// MarshalModel implements ModelMarshaler: uvarint seed count, then the
// seed words in stored (ascending-frequency) order.
func (c *cpack) MarshalModel() []byte {
	out := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+4*c.seedN), uint64(c.seedN))
	for i := 0; i < c.seedN; i++ {
		out = binary.LittleEndian.AppendUint32(out, c.seed[i])
	}
	return out
}

func cpackFromModel(model []byte) (Codec, error) {
	n, hdr := binary.Uvarint(model)
	if hdr <= 0 || n > cpackDictEntries {
		return nil, fmt.Errorf("%w: bad cpack model header", ErrCorrupt)
	}
	model = model[hdr:]
	if len(model) != int(n)*4 {
		return nil, fmt.Errorf("%w: cpack model wants %d words, has %d bytes", ErrCorrupt, n, len(model))
	}
	c := &cpack{seedN: int(n)}
	for i := 0; i < int(n); i++ {
		c.seed[i] = binary.LittleEndian.Uint32(model[i*4:])
	}
	return c, nil
}

func init() {
	Register("cpack", func(train []byte) (Codec, error) { return NewCPack(train), nil })
	RegisterModel("cpack", cpackFromModel)
}
