package compress

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"apbcc/internal/isa"
)

// dict is the instruction-dictionary codec: the classic embedded code
// compression scheme (IBM CodePack, Lefurgy et al.) where the most
// frequent 32-bit instruction words of the program are collected into a
// dictionary held by the decompressor, and the code stream stores 1-byte
// dictionary indices for hits and raw words for misses.
//
// Wire format per block: uvarint original byte length, then groups of up
// to 8 words, each group led by a tag byte (bit i set = word i is a
// dictionary index). A non-word-multiple tail is stored raw after the
// groups. Decode is a table lookup per word, which is why this codec has
// the lowest decompression cost in the suite.
type dict struct {
	// words is the dense O(1) decode table: index -> instruction word.
	// The decoder writes straight through it into a pre-sized output
	// image, so a dictionary hit is one load and one 4-byte store.
	words []uint32

	// index (word -> dictionary slot) is only needed by the compressor;
	// decode-only codecs rebuilt from a container model never pay for
	// the map, so it is built lazily on first CompressAppend.
	indexOnce sync.Once
	index     map[uint32]uint16
}

// DictSize is the dictionary capacity: one byte of index space.
const DictSize = 256

// trainDict trains the dictionary codec on a program image: the up-to-256
// most frequent instruction words become the dictionary, ordered by
// descending frequency (ties by ascending word value, for determinism).
func trainDict(train []byte) Codec {
	// Singletons cost more as indices than they save.
	all := rankWords(train, func(w wordCount) bool { return w.c >= 2 })
	d := &dict{words: make([]uint32, min(len(all), DictSize))}
	for i := range d.words {
		d.words[i] = all[i].w
	}
	return d
}

// wordCount is one distinct instruction word of a training image and
// how often it occurs.
type wordCount struct {
	w uint32
	c int
}

// rankWords counts the distinct words of a training image and returns
// those keep accepts, most frequent first, ties by ascending word value.
// That order is total, so the ranking is the same however it is
// computed; here it is two typed sorts, with no map.
func rankWords(train []byte, keep func(wordCount) bool) []wordCount {
	words := make([]uint32, len(train)/isa.WordSize)
	for i := range words {
		words[i] = isa.ByteOrder.Uint32(train[i*isa.WordSize:])
	}
	slices.Sort(words)
	distinct := 0
	for i := range words {
		if i == 0 || words[i] != words[i-1] {
			distinct++
		}
	}
	all := make([]wordCount, 0, distinct)
	for i := 0; i < len(words); {
		j := i + 1
		for j < len(words) && words[j] == words[i] {
			j++
		}
		if e := (wordCount{words[i], j - i}); keep(e) {
			all = append(all, e)
		}
		i = j
	}
	slices.SortFunc(all, func(a, b wordCount) int {
		if a.c != b.c {
			return cmp.Compare(b.c, a.c)
		}
		return cmp.Compare(a.w, b.w)
	})
	return all
}

// ensureIndex builds the compressor's word -> slot map on first use.
func (d *dict) ensureIndex() {
	d.indexOnce.Do(func() {
		d.index = make(map[uint32]uint16, len(d.words))
		for i, w := range d.words {
			d.index[w] = uint16(i)
		}
	})
}

func (d *dict) Name() string { return "dict" }

func (d *dict) Cost() CostModel {
	return CostModel{
		CompressFixed: 24, CompressPerByte: 3,
		DecompressFixed: 12, DecompressPerByte: 1,
	}
}

// MaxCompressedLen is the uvarint header, one tag byte per group of 8
// words, the worst case of every word stored raw, and the raw tail.
func (d *dict) MaxCompressedLen(n int) int {
	nWords := n / isa.WordSize
	return binary.MaxVarintLen64 + (nWords+7)/8 + n
}

func (d *dict) CompressAppend(dst, src []byte) ([]byte, error) {
	d.ensureIndex()
	out := binary.AppendUvarint(dst, uint64(len(src)))
	nWords := len(src) / isa.WordSize
	for g := 0; g < nWords; g += 8 {
		end := g + 8
		if end > nWords {
			end = nWords
		}
		tagPos := len(out)
		out = append(out, 0)
		for i := g; i < end; i++ {
			w := isa.ByteOrder.Uint32(src[i*isa.WordSize:])
			if idx, ok := d.index[w]; ok {
				out[tagPos] |= 1 << uint(i-g)
				out = append(out, byte(idx))
			} else {
				out = append(out, src[i*isa.WordSize:(i+1)*isa.WordSize]...)
			}
		}
	}
	out = append(out, src[nWords*isa.WordSize:]...) // raw tail, if any
	return out, nil
}

// DecompressAppend decodes a whole block with the codec's one decoder.
// Each compressed byte stands for at most one 4-byte word.
func (d *dict) DecompressAppend(dst, src []byte) ([]byte, error) {
	return decompressBlock(dst, src, d, isa.WordSize)
}

// dictGroupLen is the encoded length of a k-word group led by tag: the
// tag byte, one index byte per set bit and four raw bytes per clear bit
// of its k words. Bits at and above k are ignored.
func dictGroupLen(tag byte, k int) int {
	return 1 + isa.WordSize*k - (isa.WordSize-1)*bits.OnesCount8(tag&byte(1<<k-1))
}

// decodeWords is dict's one decoder (see wordDecoder). A dictionary hit
// is one table load and one 4-byte store, a raw word one 4-byte copy.
func (d *dict) decodeWords(out, src []byte, n int) (int, error) {
	l, pos := 0, 0
	// Hoist the decode table: stores through out cannot be proven
	// alias-free with d.words by the compiler, so keeping the slice
	// header in a local avoids a reload per decoded word.
	words := d.words
	for g := 0; g < n; g += 8 {
		k := min(n-g, 8)
		if pos >= len(src) {
			return 0, fmt.Errorf("%w: dict stream truncated at group %d", ErrCorrupt, g/8)
		}
		tag := src[pos]
		if pos+dictGroupLen(tag, k) > len(src) {
			return 0, fmt.Errorf("%w: dict group %d truncated", ErrCorrupt, g/8)
		}
		pos++
		for i := 0; i < k; i++ {
			if tag&1 != 0 {
				idx := int(src[pos])
				pos++
				if idx >= len(words) {
					return 0, fmt.Errorf("%w: dict index %d beyond %d entries", ErrCorrupt, idx, len(words))
				}
				isa.ByteOrder.PutUint32(out[l:l+isa.WordSize], words[idx])
			} else {
				*(*[isa.WordSize]byte)(out[l : l+isa.WordSize]) = *(*[isa.WordSize]byte)(src[pos : pos+isa.WordSize])
				pos += isa.WordSize
			}
			tag >>= 1
			l += isa.WordSize
		}
	}
	return pos, nil
}

// MarshalModel implements ModelMarshaler: uvarint count, then count
// little-endian words.
func (d *dict) MarshalModel() []byte {
	out := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+4*len(d.words)), uint64(len(d.words)))
	for _, w := range d.words {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// dictFromModel rebuilds a dictionary codec from MarshalModel's bytes.
func dictFromModel(model []byte) (Codec, error) {
	n, hdr := binary.Uvarint(model)
	if hdr <= 0 || n > DictSize {
		return nil, fmt.Errorf("%w: bad dict model header", ErrCorrupt)
	}
	model = model[hdr:]
	if len(model) != int(n)*4 {
		return nil, fmt.Errorf("%w: dict model wants %d words, has %d bytes", ErrCorrupt, n, len(model))
	}
	d := &dict{words: make([]uint32, n)}
	for i := 0; i < int(n); i++ {
		d.words[i] = binary.LittleEndian.Uint32(model[i*4:])
	}
	// Decode-side state only: the compressor's word->slot map is built
	// lazily if this codec ever compresses.
	return d, nil
}

func init() { register("dict", trainDict, dictFromModel) }
