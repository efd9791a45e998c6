package compress

import (
	"encoding/binary"
	"fmt"

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
// so the one decoder does one table load and one bounds check per
// *pair* of words, then one class switch per word writing a whole
// 4-byte word; a raw pair is one 8-byte copy.
type cpack struct {
	// seed is the trained initial dictionary state, ascending by
	// frequency over seed[:seedN]; the rest is zero.
	seed  [cpackDictSize]uint32
	seedN int
}

// cpackDictSize is the moving-dictionary capacity. 16 entries keep
// the whole dictionary in registers/L1 and the index inside one nibble
// of headroom (it is stored in a full byte; values >= 16 are corrupt).
const cpackDictSize = 16

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
// load against this table validates a pair and tells the decoder and
// the group-offset scan how far the payload extends.
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

// trainCPack returns the C-Pack word-pattern codec, its moving
// dictionary seeded with the up-to-16 most frequent nonzero words of
// the training image (nil trains nothing: a cold dictionary).
func trainCPack(train []byte) Codec {
	// Zero words are ZZZZ and sub-256 words are ZZZX: both already encode
	// tighter than a seeded full match would. Singletons stay in: like
	// dict's table the seed ships as an out-of-band model, so even one
	// occurrence turns 4.5 raw bytes into a 1.5-byte full match.
	all := rankWords(train, func(w wordCount) bool { return w.w > 0xFF })
	all = all[:min(len(all), cpackDictSize)]
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
// MMMX 2.5, MMXX 3.5 and XXXX 4.5 — so classes are taken in cost order,
// each at its lowest matching dictionary index. One pass over the
// dictionary finds all three matches: a full match ends it, and the
// first entry sharing w's upper 24 or 16 bits is remembered for MMMX
// or MMXX.
func cpackClassify(w uint32, dct *[cpackDictSize]uint32) (cls, idx byte) {
	if w == 0 {
		return cpZZZZ, 0
	}
	mmmx, mmxx := byte(cpackDictSize), byte(cpackDictSize)
	for i, d := range dct {
		x := d ^ w
		if x == 0 {
			return cpMMMM, byte(i)
		}
		if x <= 0xFF && mmmx == cpackDictSize {
			mmmx = byte(i)
		}
		if x <= 0xFFFF && mmxx == cpackDictSize {
			mmxx = byte(i)
		}
	}
	switch {
	case w <= 0xFF:
		return cpZZZX, 0
	case mmmx < cpackDictSize:
		return cpMMMX, mmmx
	case mmxx < cpackDictSize:
		return cpMMXX, mmxx
	}
	return cpXXXX, 0
}

// cpackEmit appends the payload for one classified word and applies the
// dictionary push rule (XXXX, MMXX and MMMX insert the decoded word).
func cpackEmit(out []byte, w uint32, cls, idx byte, dct *[cpackDictSize]uint32, head *int) []byte {
	switch cls {
	case cpZZZZ:
	case cpMMMM:
		out = append(out, idx)
	case cpZZZX:
		out = append(out, byte(w))
	case cpMMXX:
		out = append(out, idx, byte(w), byte(w>>8))
		dct[*head] = w
		*head = (*head + 1) & (cpackDictSize - 1)
	case cpMMMX:
		out = append(out, idx, byte(w))
		dct[*head] = w
		*head = (*head + 1) & (cpackDictSize - 1)
	case cpXXXX:
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		dct[*head] = w
		*head = (*head + 1) & (cpackDictSize - 1)
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
	head := c.seedN & (cpackDictSize - 1)
	for w := 0; w < nWords; {
		if w&(cpackGroupWords-1) == 0 {
			// Group boundary: restart from the seed state so the group
			// decodes standalone. w is always even here (pairs), so the
			// boundary never splits a tag byte.
			dct = c.seed
			head = c.seedN & (cpackDictSize - 1)
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

// DecompressAppend decodes a whole block with the codec's one decoder.
// A tag byte stands for at most two ZZZZ words, 8 output bytes.
func (c *cpack) DecompressAppend(dst, src []byte) ([]byte, error) {
	return decompressBlock(dst, src, c, 2*isa.WordSize)
}

// cpackTag returns the tag byte of the pair that starts with left words
// still to decode. A final odd word uses only the low nibble (the
// encoder writes the high one as zero), so the high nibble is masked
// off and cpackPairLen of the result is that one word's payload length.
func cpackTag(tag byte, left int) byte {
	if left == 1 {
		return tag & 0xF
	}
	return tag
}

// decodeWords is cpack's one decoder (see wordDecoder). It runs a pair
// of words per iteration: one cpackPairLen load both validates the tag
// byte and gives the exact payload length to bound-check, so only the
// dictionary-index range check is left per word. The three commonest
// pairs of suite code, XXXX|XXXX, MMMM|XXXX and XXXX|MMMM (86% of the
// suite's pairs), are decoded straight off their tag byte after a check
// of their own exact length; a pair cut short takes the general path,
// which reports it.
func (c *cpack) decodeWords(out, src []byte, n int) (int, error) {
	l, pos := 0, 0
	var dct [cpackDictSize]uint32
	var head uint // the next FIFO slot is head % cpackDictSize
	for w := 0; w < n; w += 2 {
		if w&(cpackGroupWords-1) == 0 {
			// Group boundary: the encoder restarted from the seed state.
			dct, head = c.seed, uint(c.seedN)
		}
		if pos >= len(src) {
			return 0, fmt.Errorf("%w: cpack stream truncated at word %d", ErrCorrupt, w)
		}
		tag := cpackTag(src[pos], n-w)
		pos++
		switch {
		case tag == cpXXXX|cpXXXX<<4 && pos+2*isa.WordSize <= len(src):
			// Two raw words: one 8-byte copy.
			*(*[2 * isa.WordSize]byte)(out[l : l+2*isa.WordSize]) = *(*[2 * isa.WordSize]byte)(src[pos : pos+2*isa.WordSize])
			dct[head%cpackDictSize] = isa.ByteOrder.Uint32(src[pos : pos+isa.WordSize])
			head++
			dct[head%cpackDictSize] = isa.ByteOrder.Uint32(src[pos+isa.WordSize : pos+2*isa.WordSize])
			head++
			pos += 2 * isa.WordSize
			l += 2 * isa.WordSize
			continue
		case tag == cpXXXX|cpMMMM<<4 && pos+isa.WordSize+1 <= len(src):
			idx := src[pos+isa.WordSize]
			if idx >= cpackDictSize {
				return 0, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
			}
			v := isa.ByteOrder.Uint32(src[pos : pos+isa.WordSize])
			isa.ByteOrder.PutUint32(out[l:l+isa.WordSize], v)
			dct[head%cpackDictSize] = v
			head++
			isa.ByteOrder.PutUint32(out[l+isa.WordSize:l+2*isa.WordSize], dct[idx])
			pos += isa.WordSize + 1
			l += 2 * isa.WordSize
			continue
		case tag == cpMMMM|cpXXXX<<4 && pos+1+isa.WordSize <= len(src):
			idx := src[pos]
			if idx >= cpackDictSize {
				return 0, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
			}
			v := isa.ByteOrder.Uint32(src[pos+1 : pos+1+isa.WordSize])
			isa.ByteOrder.PutUint32(out[l:l+isa.WordSize], dct[idx])
			isa.ByteOrder.PutUint32(out[l+isa.WordSize:l+2*isa.WordSize], v)
			dct[head%cpackDictSize] = v
			head++
			pos += 1 + isa.WordSize
			l += 2 * isa.WordSize
			continue
		}
		pay := cpackPairLen[tag]
		if pay < 0 {
			return 0, fmt.Errorf("%w: cpack tag %#02x has no pattern class", ErrCorrupt, tag)
		}
		if pos+int(pay) > len(src) {
			return 0, fmt.Errorf("%w: cpack payload truncated at word %d", ErrCorrupt, w)
		}
		for i := 0; i < 2 && w+i < n; i++ {
			cls := tag & 0xF
			tag >>= 4
			// Classes in the order of their share of suite words; ZZZZ
			// matches no case and decodes to zero.
			var v uint32
			switch {
			case cls == cpXXXX:
				v = isa.ByteOrder.Uint32(src[pos : pos+isa.WordSize])
				pos += isa.WordSize
				dct[head%cpackDictSize] = v
				head++
			case cls == cpMMMM:
				idx := src[pos]
				if idx >= cpackDictSize {
					return 0, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
				}
				v = dct[idx]
				pos++
			case cls == cpMMMX:
				idx := src[pos]
				if idx >= cpackDictSize {
					return 0, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
				}
				v = dct[idx]&^uint32(0xFF) | uint32(src[pos+1])
				pos += 2
				dct[head%cpackDictSize] = v
				head++
			case cls == cpMMXX:
				idx := src[pos]
				if idx >= cpackDictSize {
					return 0, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
				}
				v = dct[idx]&^uint32(0xFFFF) | uint32(src[pos+1]) | uint32(src[pos+2])<<8
				pos += 3
				dct[head%cpackDictSize] = v
				head++
			case cls == cpZZZX:
				v = uint32(src[pos])
				pos++
			}
			isa.ByteOrder.PutUint32(out[l:l+isa.WordSize], v)
			l += isa.WordSize
		}
	}
	return pos, nil
}

// CountPatterns implements PatternReporter: a counting compression pass
// over src whose per-class word and payload-byte totals are merged into
// acc. The shared tag bytes appear under a synthetic "tags" class so
// the byte totals plus the length header sum to the compressed size.
func (c *cpack) CountPatterns(src []byte, acc PatternStats) (PatternStats, error) {
	var pats [cpClassCount]patternAcc
	out, err := c.compressAppend(make([]byte, 0, c.MaxCompressedLen(len(src))), src, &pats)
	if err != nil {
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
	if hdr <= 0 || n > cpackDictSize {
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

func init() { register("cpack", trainCPack, cpackFromModel) }
