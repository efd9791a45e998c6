package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"apbcc/internal/isa"
)

// Group decode: random access inside a compressed block without a full
// DecompressAppend. The pattern codecs already emit fixed word-count
// groups (dict and bdi every 8 words, cpack every cpackGroupWords
// words, identity trivially every 8), and each group's payload is
// self-contained — so a reader that knows where group g starts can
// decode just the words it needs. AppendGroupOffsets recovers those
// start offsets in one cheap tag/mode scan at pack time (no word
// decoding); the pack v3 index persists them so serving a word is a
// seek + slice + DecompressGroup instead of a whole-block decode.
//
// The contract every implementation obeys, pinned by
// TestDecodeGroupMatchesFullDecode and FuzzGroupDecode:
// concatenating DecompressGroup over all groups of a block is
// byte-identical to DecompressAppend on the whole block.

// GroupCodec is implemented by codecs whose wire format is cut into
// independently decodable fixed word-count groups. The entropy codecs
// (huffman, lzss) carry cross-block state or byte-granular framing
// and do not implement it; callers fall back to full-block decode.
type GroupCodec interface {
	Codec

	// GroupWords is the fixed group size in 32-bit words. Every group
	// of a block decodes to exactly GroupWords words except the last,
	// which covers the remainder.
	GroupWords() int

	// AppendGroupOffsets appends the byte offset (within comp) of every
	// group's payload start to dst and returns the extended slice —
	// ceil(words/GroupWords()) offsets for a words-word block. comp is
	// one whole compressed block as produced by CompressAppend. Blocks
	// whose decoded length is not a word multiple are not groupable and
	// fail with ErrUngroupable.
	AppendGroupOffsets(dst []uint32, comp []byte) ([]uint32, error)

	// DecompressGroup appends the decoded form of one group to dst and
	// returns the extended slice. comp must be exactly the group's
	// payload bytes (offset i to offset i+1 of AppendGroupOffsets) and
	// words the group's word count; trailing or missing bytes are
	// ErrCorrupt.
	DecompressGroup(dst, comp []byte, words int) ([]byte, error)
}

// ErrUngroupable reports a block that cannot be group-indexed (decoded
// length not a multiple of the word size). Packers treat it as "emit no
// group directory", not as corruption.
var ErrUngroupable = errors.New("compress: block not group-decodable")

// AsGroupCodec reports whether c supports group decode.
func AsGroupCodec(c Codec) (GroupCodec, bool) {
	gc, ok := c.(GroupCodec)
	return gc, ok
}

// DecodeWordRange appends the plain bytes of words [word, word+nwords)
// of one compressed block to dst, decoding only the covering groups.
// offs must be the block's group offsets (AppendGroupOffsets output or
// the pack v3 directory) and blockWords its decoded word count. The
// appended bytes are exactly nwords*4 long and byte-identical to the
// same slice of a full decode.
func DecodeWordRange(dst []byte, gc GroupCodec, comp []byte, offs []uint32, blockWords, word, nwords int) ([]byte, error) {
	gw := gc.GroupWords()
	if word < 0 || nwords <= 0 || word+nwords > blockWords {
		return nil, fmt.Errorf("%w: word range [%d,%d) outside %d-word block", ErrCorrupt, word, word+nwords, blockWords)
	}
	if ngroups := (blockWords + gw - 1) / gw; len(offs) != ngroups {
		return nil, fmt.Errorf("%w: %d group offsets for %d groups", ErrCorrupt, len(offs), ngroups)
	}
	g0, g1 := word/gw, (word+nwords-1)/gw
	base := len(dst)
	out := dst
	for g := g0; g <= g1; g++ {
		start := int(offs[g])
		end := len(comp)
		if g+1 < len(offs) {
			end = int(offs[g+1])
		}
		if start < 0 || start >= end || end > len(comp) {
			return nil, fmt.Errorf("%w: group %d spans [%d,%d) of %d compressed bytes", ErrCorrupt, g, start, end, len(comp))
		}
		k := blockWords - g*gw
		if k > gw {
			k = gw
		}
		var err error
		out, err = gc.DecompressGroup(out, comp[start:end], k)
		if err != nil {
			return nil, err
		}
	}
	// The decoded groups cover [g0*gw, ...); slide the requested span to
	// the front of the appended region and drop the rest.
	lo := base + (word-g0*gw)*isa.WordSize
	n := nwords * isa.WordSize
	copy(out[base:], out[lo:lo+n])
	return out[:base+n], nil
}

// groupHeader validates and strips the uvarint plain-length header the
// pattern codecs share, returning the payload and the block word count.
func groupHeader(comp []byte, codec string) (body []byte, nWords int, err error) {
	n, hdr := binary.Uvarint(comp)
	if hdr <= 0 || n > math.MaxInt32 {
		return nil, 0, fmt.Errorf("%w: bad %s length header", ErrCorrupt, codec)
	}
	if n%isa.WordSize != 0 {
		return nil, 0, fmt.Errorf("%w: %s block of %d bytes", ErrUngroupable, codec, n)
	}
	return comp[hdr:], int(n) / isa.WordSize, nil
}

// --- identity ---------------------------------------------------------

// identityGroupWords keeps identity's group geometry aligned with the
// other 8-word codecs: a group is a fixed 32-byte slice of the image.
const identityGroupWords = 8

func (identity) GroupWords() int { return identityGroupWords }

func (identity) AppendGroupOffsets(dst []uint32, comp []byte) ([]uint32, error) {
	if len(comp)%isa.WordSize != 0 {
		return nil, fmt.Errorf("%w: identity block of %d bytes", ErrUngroupable, len(comp))
	}
	nWords := len(comp) / isa.WordSize
	for g := 0; g < nWords; g += identityGroupWords {
		dst = append(dst, uint32(g*isa.WordSize))
	}
	return dst, nil
}

func (identity) DecompressGroup(dst, comp []byte, words int) ([]byte, error) {
	if words <= 0 || words > identityGroupWords || len(comp) != words*isa.WordSize {
		return nil, fmt.Errorf("%w: identity group of %d bytes for %d words", ErrCorrupt, len(comp), words)
	}
	return append(dst, comp...), nil
}

// --- dict -------------------------------------------------------------

func (d *dict) GroupWords() int { return 8 }

func (d *dict) AppendGroupOffsets(dst []uint32, comp []byte) ([]uint32, error) {
	src, nWords, err := groupHeader(comp, "dict")
	if err != nil {
		return nil, err
	}
	hdr := len(comp) - len(src)
	pos := 0
	for g := 0; g < nWords; g += 8 {
		k := nWords - g
		if k > 8 {
			k = 8
		}
		if pos >= len(src) {
			return nil, fmt.Errorf("%w: dict stream truncated at group %d", ErrCorrupt, g/8)
		}
		dst = append(dst, uint32(hdr+pos))
		tag := src[pos]
		pos++
		for i := 0; i < k; i++ {
			if tag&(1<<i) != 0 {
				pos++
			} else {
				pos += isa.WordSize
			}
		}
		if pos > len(src) {
			return nil, fmt.Errorf("%w: dict group %d truncated", ErrCorrupt, g/8)
		}
	}
	return dst, nil
}

func (d *dict) DecompressGroup(dst, comp []byte, words int) ([]byte, error) {
	if words <= 0 || words > 8 || len(comp) == 0 {
		return nil, fmt.Errorf("%w: dict group of %d bytes for %d words", ErrCorrupt, len(comp), words)
	}
	tag := comp[0]
	pos := 1
	out := dst
	wordsTab := d.words
	for i := 0; i < words; i++ {
		if tag&(1<<i) != 0 {
			if pos >= len(comp) {
				return nil, fmt.Errorf("%w: dict index truncated", ErrCorrupt)
			}
			idx := int(comp[pos])
			pos++
			if idx >= len(wordsTab) {
				return nil, fmt.Errorf("%w: dict index %d beyond %d entries", ErrCorrupt, idx, len(wordsTab))
			}
			out = isa.ByteOrder.AppendUint32(out, wordsTab[idx])
		} else {
			if pos+isa.WordSize > len(comp) {
				return nil, fmt.Errorf("%w: dict raw word truncated", ErrCorrupt)
			}
			out = append(out, comp[pos:pos+isa.WordSize]...)
			pos += isa.WordSize
		}
	}
	if pos != len(comp) {
		return nil, fmt.Errorf("%w: dict group has %d trailing bytes", ErrCorrupt, len(comp)-pos)
	}
	return out, nil
}

// --- bdi --------------------------------------------------------------

func (bdi) GroupWords() int { return bdiGroupWords }

func (bdi) AppendGroupOffsets(dst []uint32, comp []byte) ([]uint32, error) {
	src, nWords, err := groupHeader(comp, "bdi")
	if err != nil {
		return nil, err
	}
	hdr := len(comp) - len(src)
	pos := 0
	for g := 0; g < nWords; g += bdiGroupWords {
		k := nWords - g
		if k > bdiGroupWords {
			k = bdiGroupWords
		}
		if pos >= len(src) {
			return nil, fmt.Errorf("%w: bdi stream truncated at group %d", ErrCorrupt, g/bdiGroupWords)
		}
		dst = append(dst, uint32(hdr+pos))
		pay := bdiPayLen(src[pos], k)
		if pay < 0 {
			return nil, fmt.Errorf("%w: bdi mode byte %d", ErrCorrupt, src[pos])
		}
		pos += 1 + pay
		if pos > len(src) {
			return nil, fmt.Errorf("%w: bdi group %d truncated", ErrCorrupt, g/bdiGroupWords)
		}
	}
	return dst, nil
}

func (bdi) DecompressGroup(dst, comp []byte, words int) ([]byte, error) {
	if words <= 0 || words > bdiGroupWords || len(comp) == 0 {
		return nil, fmt.Errorf("%w: bdi group of %d bytes for %d words", ErrCorrupt, len(comp), words)
	}
	mode := comp[0]
	pay := bdiPayLen(mode, words)
	if pay < 0 {
		return nil, fmt.Errorf("%w: bdi mode byte %d", ErrCorrupt, mode)
	}
	if 1+pay != len(comp) {
		return nil, fmt.Errorf("%w: bdi group is %d bytes, mode %d wants %d", ErrCorrupt, len(comp), mode, 1+pay)
	}
	out := dst
	src := comp[1:]
	switch mode {
	case bdiZero:
		for i := 0; i < words; i++ {
			out = isa.ByteOrder.AppendUint32(out, 0)
		}
	case bdiRep:
		v := isa.ByteOrder.Uint32(src)
		for i := 0; i < words; i++ {
			out = isa.ByteOrder.AppendUint32(out, v)
		}
	case bdiD1:
		b := isa.ByteOrder.Uint32(src)
		for i := 0; i < words; i++ {
			out = isa.ByteOrder.AppendUint32(out, b+uint32(int32(int8(src[isa.WordSize+i]))))
		}
	case bdiD2:
		b := isa.ByteOrder.Uint32(src)
		for i := 0; i < words; i++ {
			d := int16(binary.LittleEndian.Uint16(src[isa.WordSize+2*i:]))
			out = isa.ByteOrder.AppendUint32(out, b+uint32(int32(d)))
		}
	case bdiRaw:
		out = append(out, src...)
	}
	return out, nil
}

// --- cpack ------------------------------------------------------------

func (c *cpack) GroupWords() int { return cpackGroupWords }

func (c *cpack) AppendGroupOffsets(dst []uint32, comp []byte) ([]uint32, error) {
	src, nWords, err := groupHeader(comp, "cpack")
	if err != nil {
		return nil, err
	}
	hdr := len(comp) - len(src)
	pos := 0
	for g := 0; g < nWords; g += cpackGroupWords {
		k := nWords - g
		if k > cpackGroupWords {
			k = cpackGroupWords
		}
		dst = append(dst, uint32(hdr+pos))
		for w := 0; w < k; w += 2 {
			if pos >= len(src) {
				return nil, fmt.Errorf("%w: cpack stream truncated at word %d", ErrCorrupt, g+w)
			}
			tag := src[pos]
			pos++
			var pay int
			if w+1 < k {
				if cpackPairLen[tag] < 0 {
					return nil, fmt.Errorf("%w: cpack tag %#02x has no pattern class", ErrCorrupt, tag)
				}
				pay = int(cpackPairLen[tag])
			} else {
				// Final odd word of the block: only the low nibble is
				// meaningful, matching the full decoder.
				if cpackPayLen[tag&0xF] < 0 {
					return nil, fmt.Errorf("%w: cpack tag nibble %d has no pattern class", ErrCorrupt, tag&0xF)
				}
				pay = int(cpackPayLen[tag&0xF])
			}
			pos += pay
			if pos > len(src) {
				return nil, fmt.Errorf("%w: cpack payload truncated at word %d", ErrCorrupt, g+w)
			}
		}
	}
	return dst, nil
}

// DecompressGroup decodes one cpack group. The moving dictionary is
// reset to the trained seed at every group boundary by the encoder
// (see compressAppend), which is exactly what makes mid-stream decode
// possible: the group's state is the seed state.
func (c *cpack) DecompressGroup(dst, comp []byte, words int) ([]byte, error) {
	if words <= 0 || words > cpackGroupWords {
		return nil, fmt.Errorf("%w: cpack group of %d words", ErrCorrupt, words)
	}
	out := dst
	pos := 0
	dct := c.seed
	head := c.seedN & (cpackDictSize - 1)
	for w := 0; w < words; {
		if pos >= len(comp) {
			return nil, fmt.Errorf("%w: cpack group truncated at word %d", ErrCorrupt, w)
		}
		tag := comp[pos]
		pos++
		for half := 0; half < 2 && w < words; half++ {
			cls := (tag >> (4 * half)) & 0xF
			pay := cpackPayLen[cls]
			if pay < 0 {
				return nil, fmt.Errorf("%w: cpack tag nibble %d has no pattern class", ErrCorrupt, cls)
			}
			if pos+int(pay) > len(comp) {
				return nil, fmt.Errorf("%w: cpack group payload truncated at word %d", ErrCorrupt, w)
			}
			var v uint32
			switch cls {
			case cpZZZZ:
			case cpMMMM:
				idx := comp[pos]
				pos++
				if idx >= cpackDictSize {
					return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
				}
				v = dct[idx]
			case cpZZZX:
				v = uint32(comp[pos])
				pos++
			case cpMMXX:
				idx := comp[pos]
				if idx >= cpackDictSize {
					return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
				}
				v = dct[idx]&^uint32(0xFFFF) | uint32(comp[pos+1]) | uint32(comp[pos+2])<<8
				pos += 3
				dct[head] = v
				head = (head + 1) & (cpackDictSize - 1)
			case cpMMMX:
				idx := comp[pos]
				if idx >= cpackDictSize {
					return nil, fmt.Errorf("%w: cpack dictionary index out of range", ErrCorrupt)
				}
				v = dct[idx]&^uint32(0xFF) | uint32(comp[pos+1])
				pos += 2
				dct[head] = v
				head = (head + 1) & (cpackDictSize - 1)
			default: // cpXXXX
				v = isa.ByteOrder.Uint32(comp[pos:])
				pos += isa.WordSize
				dct[head] = v
				head = (head + 1) & (cpackDictSize - 1)
			}
			out = isa.ByteOrder.AppendUint32(out, v)
			w++
		}
	}
	if pos != len(comp) {
		return nil, fmt.Errorf("%w: cpack group has %d trailing bytes", ErrCorrupt, len(comp)-pos)
	}
	return out, nil
}
