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

// wordDecoder is a word-pattern codec (dict, bdi, cpack) seen through
// its one decoder. decodeWords decodes n words from the group boundary
// at the start of src into out[:4n] and returns how many bytes of src
// they took. Before it stores a group (or, for cpack, a word pair) it
// checks once that the group's exact encoded length lies inside src,
// so the stores themselves need no truncation check. Whole blocks
// (DecompressAppend) and single groups (DecompressGroup) both run it,
// through decompressBlock and decompressGroup.
type wordDecoder interface {
	Name() string
	GroupWords() int
	decodeWords(out, src []byte, n int) (int, error)
}

// decompressBlock is DecompressAppend for a word-pattern codec: the
// uvarint plain-length header, the block's words from its first group
// on, then the raw non-word-multiple tail. expand is the most output
// bytes one stream byte can stand for. It bounds what a corrupt header
// can pre-allocate, and it keeps the decoder's stores inside the
// pre-sized image: a group is stored only once its bytes are known to
// be in src, so a stream that would overrun the image fails on
// truncation first.
func decompressBlock(dst, src []byte, d wordDecoder, expand int) ([]byte, error) {
	n, hdr := binary.Uvarint(src)
	// The MaxInt32 cap keeps every derived int (nWords, tail) positive:
	// a 2^63-range header would otherwise wrap int(n) negative and slip
	// past the truncation checks.
	if hdr <= 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: bad %s length header", ErrCorrupt, d.Name())
	}
	src = src[hdr:]
	need := clampGrow(n, expand*len(src)+isa.WordSize)
	base := len(dst)
	out := growCap(dst, need)[:base+need]
	nWords := int(n) / isa.WordSize
	pos, err := d.decodeWords(out[base:], src, nWords)
	if err != nil {
		return nil, err
	}
	l := base + nWords*isa.WordSize
	tail := int(n) - nWords*isa.WordSize
	if pos+tail > len(src) {
		return nil, fmt.Errorf("%w: %s tail truncated", ErrCorrupt, d.Name())
	}
	copy(out[l:l+tail], src[pos:])
	return out[:l+tail], nil
}

// decompressGroup is DecompressGroup for a word-pattern codec: comp
// must be exactly one group's encoding and words its word count.
func decompressGroup(dst, comp []byte, words int, d wordDecoder) ([]byte, error) {
	if words <= 0 || words > d.GroupWords() {
		return nil, fmt.Errorf("%w: %s group of %d bytes for %d words", ErrCorrupt, d.Name(), len(comp), words)
	}
	base := len(dst)
	out := growCap(dst, words*isa.WordSize)[:base+words*isa.WordSize]
	pos, err := d.decodeWords(out[base:], comp, words)
	if err != nil {
		return nil, err
	}
	if pos != len(comp) {
		return nil, fmt.Errorf("%w: %s group has %d trailing bytes", ErrCorrupt, d.Name(), len(comp)-pos)
	}
	return out, nil
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
		if pos >= len(src) {
			return nil, fmt.Errorf("%w: dict stream truncated at group %d", ErrCorrupt, g/8)
		}
		dst = append(dst, uint32(hdr+pos))
		pos += dictGroupLen(src[pos], min(nWords-g, 8))
		if pos > len(src) {
			return nil, fmt.Errorf("%w: dict group %d truncated", ErrCorrupt, g/8)
		}
	}
	return dst, nil
}

func (d *dict) DecompressGroup(dst, comp []byte, words int) ([]byte, error) {
	return decompressGroup(dst, comp, words, d)
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

func (c bdi) DecompressGroup(dst, comp []byte, words int) ([]byte, error) {
	return decompressGroup(dst, comp, words, c)
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
		k := min(nWords-g, cpackGroupWords)
		dst = append(dst, uint32(hdr+pos))
		for w := 0; w < k; w += 2 {
			if pos >= len(src) {
				return nil, fmt.Errorf("%w: cpack stream truncated at word %d", ErrCorrupt, g+w)
			}
			pay := cpackPairLen[cpackTag(src[pos], k-w)]
			if pay < 0 {
				return nil, fmt.Errorf("%w: cpack tag %#02x has no pattern class", ErrCorrupt, src[pos])
			}
			pos += 1 + int(pay)
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
	return decompressGroup(dst, comp, words, c)
}
