package compress

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
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

// NewDict trains the dictionary codec on a program image: the up-to-256
// most frequent instruction words become the dictionary, ordered by
// descending frequency (ties by ascending word value, for determinism).
func NewDict(train []byte) Codec {
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

// DictEntries reports the trained dictionary size; it is exported for
// diagnostics via a type assertion in tools.
func (d *dict) DictEntries() int { return len(d.words) }

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

// DecompressAppend is the fast-path decoder: the output image is sized
// up front from the length header (clamped by what the stream could
// actually encode), then filled by indexed 4-byte stores — a dictionary
// hit is one table load plus one little-endian store, a full all-raw
// group is a single 32-byte copy — with no per-word append or capacity
// checks. Output and accept/reject behavior are identical to the
// append-per-word decoder (pinned by FuzzDecodeEquivalence).
func (d *dict) DecompressAppend(dst, src []byte) ([]byte, error) {
	n, hdr := binary.Uvarint(src)
	// The MaxInt32 cap keeps every derived int (nWords, tail) safely
	// positive: a 2^63-range header would otherwise wrap int(n)
	// negative and slip past the truncation checks.
	if hdr <= 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: bad dict length header", ErrCorrupt)
	}
	src = src[hdr:]
	// Each compressed word is at least an index byte (-> one 4-byte
	// word out), which bounds what a corrupt header can pre-allocate —
	// and also proves the indexed writes below stay inside the
	// pre-sized image even for hostile headers (a stream that would
	// overrun it hits a truncation error first).
	need := clampGrow(n, isa.WordSize*len(src)+isa.WordSize)
	base := len(dst)
	out := growCap(dst, need)
	out = out[:base+need]
	l := base
	nWords := int(n) / isa.WordSize
	pos := 0
	// Hoist the decode table: stores through out cannot be proven
	// alias-free with d.words by the compiler, so keeping the slice
	// header in a local avoids a reload per decoded word.
	words := d.words
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
		// Whole-group fast paths. A full group consumes at most 32
		// payload bytes (8 raw words), so one bound check up front makes
		// every per-word truncation check in the group redundant: an
		// all-raw group collapses to one 32-byte copy, and a mixed group
		// runs with only the dictionary-index bounds check per word.
		// (Short tail groups and near-end groups fall through to the
		// fully-checked loop, whose error behavior is the contract.)
		if end-g == 8 && pos+8*isa.WordSize <= len(src) {
			if tag == 0 {
				copy(out[l:l+8*isa.WordSize], src[pos:])
				pos += 8 * isa.WordSize
				l += 8 * isa.WordSize
				continue
			}
			for bit := 0; bit < 8; bit++ {
				if tag&(1<<bit) != 0 {
					idx := int(src[pos])
					pos++
					if idx >= len(words) {
						return nil, fmt.Errorf("%w: dict index %d beyond %d entries", ErrCorrupt, idx, len(words))
					}
					isa.ByteOrder.PutUint32(out[l:], words[idx])
				} else {
					*(*[4]byte)(out[l:]) = *(*[4]byte)(src[pos:])
					pos += isa.WordSize
				}
				l += isa.WordSize
			}
			continue
		}
		for i := g; i < end; i++ {
			if tag&(1<<uint(i-g)) != 0 {
				if pos >= len(src) {
					return nil, fmt.Errorf("%w: dict index truncated", ErrCorrupt)
				}
				idx := int(src[pos])
				pos++
				if idx >= len(words) {
					return nil, fmt.Errorf("%w: dict index %d beyond %d entries", ErrCorrupt, idx, len(words))
				}
				isa.ByteOrder.PutUint32(out[l:], words[idx])
			} else {
				if pos+isa.WordSize > len(src) {
					return nil, fmt.Errorf("%w: dict raw word truncated", ErrCorrupt)
				}
				// Word-at-a-time raw copy: one 32-bit load + store beats a
				// 4-byte memmove call.
				*(*[4]byte)(out[l:]) = *(*[4]byte)(src[pos:])
				pos += isa.WordSize
			}
			l += isa.WordSize
		}
	}
	tail := int(n) - nWords*isa.WordSize
	if pos+tail > len(src) {
		return nil, fmt.Errorf("%w: dict tail truncated", ErrCorrupt)
	}
	copy(out[l:l+tail], src[pos:])
	return out[:l+tail], nil
}

func (d *dict) Compress(src []byte) ([]byte, error)   { return d.CompressAppend(nil, src) }
func (d *dict) Decompress(src []byte) ([]byte, error) { return d.DecompressAppend(nil, src) }

func init() {
	Register("dict", func(train []byte) (Codec, error) { return NewDict(train), nil })
}
