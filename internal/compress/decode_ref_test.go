package compress

// Reference decoders, kept verbatim as the behavioral oracle for the
// shipped decoders. Each codec's DecompressAppend must match its
// reference below bit for bit on valid input and agree on accept/reject
// for hostile input (FuzzDecodeEquivalence, TestDecodeEquivalenceGolden),
// and so must DecompressGroup of dict, bdi and cpack against the group
// decoders each of them had before they shared one decoder with
// DecompressAppend (FuzzGroupDecodeEquivalence,
// TestGroupDecodeEquivalenceGolden). They live in a test file so the
// shipped binary carries only one decoder per codec.

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"apbcc/internal/isa"
)

// refDecompressAppend routes to the reference decoder for c.
func refDecompressAppend(t testing.TB, c Codec, dst, src []byte) ([]byte, error) {
	t.Helper()
	switch c := c.(type) {
	case *huffman:
		return refHuffmanDecompress(c, dst, src)
	case lzss:
		return refLZSSDecompress(dst, src)
	case *dict:
		return refDictDecompress(c, dst, src)
	case *cpack:
		return refCPackDecompress(c, dst, src)
	case bdi:
		return refBDIDecompress(dst, src)
	case identity:
		return append(dst, src...), nil
	}
	t.Fatalf("no reference decoder for %s", c.Name())
	return nil, nil
}

// refHuffmanDecompress is the retired bit-serial tree walk.
func refHuffmanDecompress(h *huffman, dst, src []byte) ([]byte, error) {
	n, hdr := binary.Uvarint(src)
	if hdr <= 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: bad huffman length header", ErrCorrupt)
	}
	src = src[hdr:]
	out := growCap(dst, clampGrow(n, 8*len(src)))
	base := len(dst)
	var code uint32
	var length int
	bitPos := 0
	for uint64(len(out)-base) < n {
		if bitPos >= len(src)*8 {
			return nil, fmt.Errorf("%w: huffman stream exhausted at %d/%d bytes", ErrCorrupt, len(out)-base, n)
		}
		bit := src[bitPos/8] >> (7 - uint(bitPos%8)) & 1
		bitPos++
		code = code<<1 | uint32(bit)
		length++
		if length > maxCodeLen {
			return nil, fmt.Errorf("%w: huffman code overlong", ErrCorrupt)
		}
		if h.counts[length] > 0 && code >= h.firstCode[length] &&
			code < h.firstCode[length]+uint32(h.counts[length]) {
			sym := h.symbols[h.firstIdx[length]+int(code-h.firstCode[length])]
			out = append(out, sym)
			code, length = 0, 0
		}
	}
	return out, nil
}

// refLZSSDecompress is the retired byte-serial match expansion.
func refLZSSDecompress(dst, src []byte) ([]byte, error) {
	out := dst
	base := len(dst)
	i := 0
	for i < len(src) {
		flags := src[i]
		i++
		for bit := uint(0); bit < 8; bit++ {
			if i >= len(src) {
				if flags>>bit != 0 {
					return nil, fmt.Errorf("%w: LZSS flags claim data past end", ErrCorrupt)
				}
				break
			}
			if flags&(1<<bit) == 0 {
				out = append(out, src[i])
				i++
				continue
			}
			if i+1 >= len(src) {
				return nil, fmt.Errorf("%w: truncated LZSS token at %d", ErrCorrupt, i)
			}
			token := uint16(src[i])<<8 | uint16(src[i+1])
			i += 2
			off := int(token >> 4)
			length := int(token&0xf) + lzMinMatch
			if off == 0 || off > len(out)-base {
				return nil, fmt.Errorf("%w: LZSS offset %d beyond %d output bytes", ErrCorrupt, off, len(out)-base)
			}
			for j := 0; j < length; j++ {
				out = append(out, out[len(out)-off])
			}
		}
	}
	return out, nil
}

// refDictDecompress is the retired per-word decode that re-encoded
// each dictionary hit through AppendUint32.
func refDictDecompress(d *dict, dst, src []byte) ([]byte, error) {
	n, hdr := binary.Uvarint(src)
	if hdr <= 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: bad dict length header", ErrCorrupt)
	}
	src = src[hdr:]
	out := growCap(dst, clampGrow(n, isa.WordSize*len(src)+isa.WordSize))
	nWords := int(n) / isa.WordSize
	pos := 0
	for g := 0; g < nWords; g += 8 {
		end := g + 8
		if end > nWords {
			end = nWords
		}
		if pos >= len(src) {
			return nil, fmt.Errorf("%w: dict stream truncated at group %d", ErrCorrupt, g)
		}
		tag := src[pos]
		pos++
		for i := g; i < end; i++ {
			if tag&(1<<uint(i-g)) != 0 {
				if pos >= len(src) {
					return nil, fmt.Errorf("%w: dict index truncated", ErrCorrupt)
				}
				idx := int(src[pos])
				pos++
				if idx >= len(d.words) {
					return nil, fmt.Errorf("%w: dict index %d beyond %d entries", ErrCorrupt, idx, len(d.words))
				}
				out = isa.ByteOrder.AppendUint32(out, d.words[idx])
			} else {
				if pos+isa.WordSize > len(src) {
					return nil, fmt.Errorf("%w: dict raw word truncated", ErrCorrupt)
				}
				out = append(out, src[pos:pos+isa.WordSize]...)
				pos += isa.WordSize
			}
		}
	}
	tail := int(n) - nWords*isa.WordSize
	if pos+tail > len(src) {
		return nil, fmt.Errorf("%w: dict tail truncated", ErrCorrupt)
	}
	out = append(out, src[pos:pos+tail]...)
	return out, nil
}

// refCPackDecompress is the naive append-per-word C-Pack decoder: no
// pair fast path, no pre-sized output, one fully-checked nibble at a
// time. It is the behavioral oracle for cpack.DecompressAppend.
func refCPackDecompress(c *cpack, dst, src []byte) ([]byte, error) {
	n, hdr := binary.Uvarint(src)
	if hdr <= 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: bad cpack length header", ErrCorrupt)
	}
	src = src[hdr:]
	out := dst
	nWords := int(n) / isa.WordSize
	pos := 0
	dct := c.seed
	head := c.seedN % cpackDictSize
	for w := 0; w < nWords; {
		if w%cpackGroupWords == 0 {
			// Group boundary: the dictionary restarts from the seed state
			// (the wire-behavior change that makes groups independently
			// decodable; mirrors compressAppend).
			dct = c.seed
			head = c.seedN % cpackDictSize
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
			var v uint32
			switch cls {
			case cpZZZZ:
				v = 0
			case cpMMMM:
				idx := src[pos]
				pos++
				if idx >= cpackDictSize {
					return nil, fmt.Errorf("%w: cpack dictionary index %d", ErrCorrupt, idx)
				}
				v = dct[idx]
			case cpZZZX:
				v = uint32(src[pos])
				pos++
			case cpMMXX:
				idx := src[pos]
				if idx >= cpackDictSize {
					return nil, fmt.Errorf("%w: cpack dictionary index %d", ErrCorrupt, idx)
				}
				v = dct[idx]&^uint32(0xFFFF) | uint32(src[pos+1]) | uint32(src[pos+2])<<8
				pos += 3
				dct[head] = v
				head = (head + 1) % cpackDictSize
			case cpMMMX:
				idx := src[pos]
				if idx >= cpackDictSize {
					return nil, fmt.Errorf("%w: cpack dictionary index %d", ErrCorrupt, idx)
				}
				v = dct[idx]&^uint32(0xFF) | uint32(src[pos+1])
				pos += 2
				dct[head] = v
				head = (head + 1) % cpackDictSize
			case cpXXXX:
				v = isa.ByteOrder.Uint32(src[pos:])
				pos += isa.WordSize
				dct[head] = v
				head = (head + 1) % cpackDictSize
			}
			out = isa.ByteOrder.AppendUint32(out, v)
			w++
		}
	}
	tail := int(n) - nWords*isa.WordSize
	if pos+tail > len(src) {
		return nil, fmt.Errorf("%w: cpack tail truncated", ErrCorrupt)
	}
	return append(out, src[pos:pos+tail]...), nil
}

// refBDIDecompress is the naive append-per-word base-delta-immediate
// decoder: every group fully checked, no 32-byte block stores. It is
// the behavioral oracle for bdi.DecompressAppend.
func refBDIDecompress(dst, src []byte) ([]byte, error) {
	n, hdr := binary.Uvarint(src)
	if hdr <= 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: bad bdi length header", ErrCorrupt)
	}
	src = src[hdr:]
	out := dst
	nWords := int(n) / isa.WordSize
	pos := 0
	for w := 0; w < nWords; {
		k := nWords - w
		if k > bdiGroupWords {
			k = bdiGroupWords
		}
		if pos >= len(src) {
			return nil, fmt.Errorf("%w: bdi stream truncated at word %d", ErrCorrupt, w)
		}
		mode := src[pos]
		pos++
		pay := bdiPayLen(mode, k)
		if pay < 0 {
			return nil, fmt.Errorf("%w: bdi mode byte %d", ErrCorrupt, mode)
		}
		if pos+pay > len(src) {
			return nil, fmt.Errorf("%w: bdi group payload truncated at word %d", ErrCorrupt, w)
		}
		for i := 0; i < k; i++ {
			var v uint32
			switch mode {
			case bdiZero:
				v = 0
			case bdiRep:
				v = isa.ByteOrder.Uint32(src[pos:])
			case bdiD1:
				b := isa.ByteOrder.Uint32(src[pos:])
				v = b + uint32(int32(int8(src[pos+isa.WordSize+i])))
			case bdiD2:
				b := isa.ByteOrder.Uint32(src[pos:])
				d := int16(binary.LittleEndian.Uint16(src[pos+isa.WordSize+2*i:]))
				v = b + uint32(int32(d))
			case bdiRaw:
				v = isa.ByteOrder.Uint32(src[pos+i*isa.WordSize:])
			}
			out = isa.ByteOrder.AppendUint32(out, v)
		}
		pos += pay
		w += k
	}
	tail := int(n) - nWords*isa.WordSize
	if pos+tail > len(src) {
		return nil, fmt.Errorf("%w: bdi tail truncated", ErrCorrupt)
	}
	return append(out, src[pos:pos+tail]...), nil
}

// refDecompressGroup routes to the reference group decoder for gc.
func refDecompressGroup(t testing.TB, gc GroupCodec, dst, comp []byte, words int) ([]byte, error) {
	t.Helper()
	switch c := gc.(type) {
	case *dict:
		return refDictDecompressGroup(c, dst, comp, words)
	case bdi:
		return refBDIDecompressGroup(dst, comp, words)
	case *cpack:
		return refCPackDecompressGroup(c, dst, comp, words)
	}
	t.Fatalf("no reference group decoder for %s", gc.Name())
	return nil, nil
}

// The group decoders below are dict's, bdi's and cpack's DecompressGroup
// as they stood before each codec got one decoder for whole blocks and
// groups: word-at-a-time appends with a truncation check per word.

func refDictDecompressGroup(d *dict, dst, comp []byte, words int) ([]byte, error) {
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

func refBDIDecompressGroup(dst, comp []byte, words int) ([]byte, error) {
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

// refCPackDecompressGroup decodes one cpack group. The moving dictionary is
// reset to the trained seed at every group boundary by the encoder
// (see compressAppend), which is exactly what makes mid-stream decode
// possible: the group's state is the seed state.
func refCPackDecompressGroup(c *cpack, dst, comp []byte, words int) ([]byte, error) {
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
