package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// huffman is a shared-model canonical Huffman codec. The model (one
// code per byte value) is trained once on the whole program image, so
// per-block compressed output carries no table — the arrangement used by
// hardware-assisted schemes like CodePack, where the decode table lives
// with the decompressor. Per-block output is a uvarint original-length
// header followed by the MSB-first bitstream.
type huffman struct {
	lengths [256]uint8  // code length per symbol
	codes   [256]uint32 // canonical code per symbol
	// decode tables per length: firstCode[l] is the smallest code of
	// length l, index[l] the index of its symbol in symbols.
	firstCode [maxCodeLen + 1]uint32
	firstIdx  [maxCodeLen + 1]int
	counts    [maxCodeLen + 1]int
	symbols   []byte // symbols sorted by (length, value)
	// table is the flat decode table (see huffTable), nil until the
	// codec's first decode builds it (decodeTable). Training never
	// decodes, so a build pays neither its 8 KiB nor its fill. Every block
	// decoded under the model then shares it; racing first decoders each
	// build one, and the codec keeps the first stored.
	table atomic.Pointer[huffTable]
}

// huffTable is the flat huffTableBits-bit decode table: entry i decodes
// the bitstream whose next huffTableBits bits are i. Where two whole
// codes fit in the peek window the entry carries both symbols, so one
// lookup emits two bytes — the dependent load chain (peek -> load ->
// shift -> peek) is the decoder's critical path, and pairing halves it
// for the short codes that dominate real streams. Entry layout:
//
//	bits 0..3   length of the first code (1..huffTableBits)
//	bits 4..8   total bits consumed (first + optional second code)
//	bits 9..16  first symbol
//	bits 17..24 second symbol (pair entries only)
//	bit  31     pair flag
//
// A zero entry means the next code is longer than huffTableBits (or
// invalid) and decoding falls back to the canonical per-length ranges.
type huffTable [1 << huffTableBits]uint32

// maxCodeLen bounds code lengths so decode tables stay small; the
// trainer rescales frequencies until the bound holds.
const maxCodeLen = 16

// huffTableBits is the width of the flat decode table: 11 bits = 2048
// entries (8 KiB at 4 bytes each). Codes up to 11 bits — in practice
// all frequent ones — decode with a single table lookup; rarer, longer
// codes (12..16 bits) take the canonical-range fallback.
const huffTableBits = 11

// huffPairFlag marks a table entry carrying two decoded symbols.
const huffPairFlag = 1 << 31

// trainHuffman builds a Huffman codec whose model is trained on the
// given byte image. Every byte value receives a nonzero frequency
// (add-one smoothing) so any input can be encoded.
func trainHuffman(train []byte) Codec {
	var freq [256]uint64
	for i := range freq {
		freq[i] = 1
	}
	for _, b := range train {
		freq[b]++
	}
	h := &huffman{}
	// Flatten the distribution and retry until the depth bound holds.
	for buildCodeLengths(&freq, &h.lengths) > maxCodeLen {
		for i := range freq {
			freq[i] = freq[i]/2 + 1
		}
	}
	h.buildCanonical()
	return h
}

// huffNodes is the node count of a Huffman tree over 256 symbols: the
// leaves 0..255 (node i is symbol i) and the internal nodes 256..510 in
// the order the algorithm creates them.
const huffNodes = 2*256 - 1

// buildCodeLengths runs the classic Huffman algorithm on fixed arrays,
// with no heap and no node allocations, writes every symbol's code
// length (its leaf depth) to lengths and returns the longest.
//
// Each step merges the two lightest live nodes, ties broken by node
// index (a leaf's symbol value, an internal node's creation order).
// That order is total, so the tree is the one any priority queue with
// the same tie-break builds. Here it is the two-queue form: the leaves
// sorted once by (weight, symbol), and the internal nodes, which are
// created in nondecreasing weight and so already sorted by (weight,
// index). The next node is the lighter of the two queue heads; on equal
// weight the leaf, whose index is lower.
func buildCodeLengths(freq *[256]uint64, lengths *[256]uint8) (maxLen uint8) {
	var weight [huffNodes]uint64
	copy(weight[:], freq[:])

	// Leaves in (weight, symbol) order: a stable LSD radix sort of the
	// symbols by weight, one pass per significant weight byte.
	var leaves, tmp [256]uint16
	for i := range leaves {
		leaves[i] = uint16(i)
	}
	var heaviest uint64
	for _, w := range freq {
		heaviest = max(heaviest, w)
	}
	for shift := uint(0); shift < 64 && heaviest>>shift != 0; shift += 8 {
		var start [257]int
		for _, s := range leaves {
			start[weight[s]>>shift&0xff+1]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for _, s := range leaves {
			d := weight[s] >> shift & 0xff
			tmp[start[d]] = s
			start[d]++
		}
		leaves = tmp
	}

	var parent [huffNodes]uint16
	li, ii := 0, 256 // heads of the leaf and internal-node queues
	lightest := func(next int) int {
		if li < len(leaves) && (ii == next || weight[leaves[li]] <= weight[ii]) {
			li++
			return int(leaves[li-1])
		}
		ii++
		return ii - 1
	}
	for next := 256; next < huffNodes; next++ {
		a := lightest(next)
		b := lightest(next)
		weight[next] = weight[a] + weight[b]
		parent[a], parent[b] = uint16(next), uint16(next)
	}
	// Children precede their parent, so one pass down from the root
	// (node huffNodes-1, depth 0) sets every depth.
	var depth [huffNodes]uint8
	for v := huffNodes - 2; v >= 0; v-- {
		depth[v] = depth[parent[v]] + 1
	}
	for sym := range lengths {
		lengths[sym] = depth[sym]
		maxLen = max(maxLen, depth[sym])
	}
	return maxLen
}

// buildCanonical derives canonical codes and the per-length decode
// ranges from lengths; the flat table waits for the first decode.
func (h *huffman) buildCanonical() {
	for _, l := range h.lengths {
		h.counts[l]++
	}
	h.counts[0] = 0
	code := uint32(0)
	idx := 0
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + uint32(h.counts[l-1])) << 1
		h.firstCode[l] = code
		h.firstIdx[l] = idx
		idx += h.counts[l]
	}
	// Assign codes in (length, symbol) order: one counting-sort pass
	// places each symbol after the shorter codes and the smaller symbols
	// of its own length.
	h.symbols = make([]byte, idx)
	next := h.firstIdx
	for sym, l := range h.lengths {
		if l == 0 {
			continue
		}
		h.codes[sym] = h.firstCode[l] + uint32(next[l]-h.firstIdx[l])
		h.symbols[next[l]] = byte(sym)
		next[l]++
	}
}

// decodeTable returns the codec's flat decode table, building it on the
// first call.
func (h *huffman) decodeTable() *huffTable {
	if t := h.table.Load(); t != nil {
		return t
	}
	h.table.CompareAndSwap(nil, h.buildTable())
	return h.table.Load()
}

// buildTable builds the flat decode table from the canonical codes.
// Canonical codes taken in symbols order (length, then value) are
// consecutive, so left-aligned to huffTableBits they tile the table
// from slot 0: a symbol with an l-bit code (l <= huffTableBits) owns
// the next 2^(huffTableBits-l) slots, and the slots past the last short
// code stay zero (long codes fall back to the canonical ranges). The
// first pass writes every short code's slots. The second upgrades the
// slots where a second whole code follows the first: inside the run of
// a code s1 of l1 bits, sub-slot j starts with the code whose slot is
// j<<l1, and the codes short enough to fit in the run's w =
// huffTableBits-l1 low bits come first, so each run is upgraded up to
// the first sub-slot whose code does not fit. That slot's entry may
// already be a pair; its first code reads the same. Prefix-freedom
// (guaranteed by canonical construction and checked via Kraft in
// huffmanFromModel) means no slot is claimed twice, so the table decode
// is exactly the first-match-by-increasing-length walk of the
// bit-serial decoder.
func (h *huffman) buildTable() *huffTable {
	t := new(huffTable)
	slot, shortest := 0, 0
	for l := 1; l <= huffTableBits; l++ {
		if h.counts[l] > 0 && shortest == 0 {
			shortest = l
		}
		w := huffTableBits - l
		for _, sym := range h.symbols[h.firstIdx[l] : h.firstIdx[l]+h.counts[l]] {
			fill(t[slot:slot+1<<w], uint32(l)|uint32(l)<<4|uint32(sym)<<9)
			slot += 1 << w
		}
	}
	slot = 0
	for l1 := 1; l1 <= huffTableBits; l1++ {
		w := huffTableBits - l1
		end := slot + h.counts[l1]<<w
		if shortest == 0 || w < shortest {
			slot = end
			continue
		}
		for ; slot < end; slot += 1 << w {
			run := t[slot : slot+1<<w]
			for j := range run {
				e := t[j<<l1]
				l2 := e & 0xf
				if e == 0 || int(l2) > w {
					break
				}
				run[j] += huffPairFlag | l2<<4 | (e>>9&0xff)<<17
			}
		}
	}
	return t
}

// fill sets every entry of s to e.
func fill(s []uint32, e uint32) {
	for i := range s {
		s[i] = e
	}
}

func (h *huffman) Name() string { return "huffman" }

func (h *huffman) Cost() CostModel {
	return CostModel{
		CompressFixed: 48, CompressPerByte: 10,
		DecompressFixed: 32, DecompressPerByte: 8,
	}
}

// MaxCompressedLen is 2n (the depth bound is 16 bits per symbol) plus
// the uvarint length header.
func (h *huffman) MaxCompressedLen(n int) int {
	return 2*n + binary.MaxVarintLen64
}

func (h *huffman) CompressAppend(dst, src []byte) ([]byte, error) {
	out := binary.AppendUvarint(dst, uint64(len(src)))
	var acc uint64
	var nbits uint
	for _, b := range src {
		acc = acc<<h.lengths[b] | uint64(h.codes[b])
		nbits += uint(h.lengths[b])
		for nbits >= 8 {
			nbits -= 8
			out = append(out, byte(acc>>nbits))
		}
	}
	if nbits > 0 {
		out = append(out, byte(acc<<(8-nbits)))
	}
	return out, nil
}

// DecompressAppend decodes the MSB-first bitstream through the flat
// table: a 64-bit accumulator is refilled a byte at a time, the top
// huffTableBits bits index the table, and one lookup yields both the
// symbol and how many bits to consume. Codes longer than huffTableBits
// fall back to the canonical per-length ranges. The accept/reject
// behavior is bit-identical to the retired bit-serial decoder (pinned
// by FuzzDecodeEquivalence): a code completed only by the zero padding
// beyond the stream is a stream-exhausted error, a bit pattern matching
// no code within maxCodeLen is an overlong-code error.
func (h *huffman) DecompressAppend(dst, src []byte) ([]byte, error) {
	n, hdr := binary.Uvarint(src)
	// Same MaxInt32 cap as dict: keep int conversions of n positive.
	if hdr <= 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: bad huffman length header", ErrCorrupt)
	}
	src = src[hdr:]
	// Pre-size by the claimed output size, capped by what the stream
	// could actually encode (>= 1 bit per symbol) so a corrupt header
	// cannot force a huge allocation — and so the indexed writes below
	// stay in bounds even for hostile headers (a stream that would
	// overrun the cap exhausts first).
	need := clampGrow(n, 8*len(src))
	table := h.decodeTable()
	base := len(dst)
	out := growCap(dst, need)
	out = out[:base+need]
	l := base
	var acc uint64 // next bits of the stream, left-aligned
	nbits := 0     // valid bits at the top of acc
	pos := 0       // bytes of src consumed into acc
	for uint64(l-base) < n {
		// Refill whole 32-bit chunks while far from the stream end; the
		// byte-granular loop only tops up the tail. Both preserve the
		// invariant that bits of acc below nbits are zero, and both keep
		// nbits >= maxCodeLen whenever real bits remain.
		if nbits <= 32 {
			if pos+4 <= len(src) {
				acc |= uint64(binary.BigEndian.Uint32(src[pos:])) << (32 - nbits)
				pos += 4
				nbits += 32
			} else {
				for nbits <= 56 && pos < len(src) {
					acc |= uint64(src[pos]) << (56 - nbits)
					pos++
					nbits += 8
				}
			}
		}
		e := table[acc>>(64-huffTableBits)]
		var sym byte
		var length int
		if e != 0 {
			if e&huffPairFlag != 0 {
				// Two whole codes in the peek window: emit both, consume
				// once — unless the image needs only one more byte or the
				// second code would dip into padding (then take just the
				// first, and let the next iteration decide).
				lt := int(e >> 4 & 0x1f)
				if lt <= nbits && uint64(l-base)+2 <= n {
					out[l] = byte(e >> 9)
					out[l+1] = byte(e >> 17)
					l += 2
					acc <<= uint(lt)
					nbits -= lt
					continue
				}
			}
			length = int(e & 0xf)
			sym = byte(e >> 9)
		} else {
			// Long or invalid code: scan the canonical ranges beyond the
			// table width, first (shortest) match wins.
			for length = huffTableBits + 1; ; length++ {
				if length > maxCodeLen {
					return nil, fmt.Errorf("%w: huffman code overlong", ErrCorrupt)
				}
				code := uint32(acc >> (64 - length))
				if h.counts[length] > 0 && code >= h.firstCode[length] &&
					code < h.firstCode[length]+uint32(h.counts[length]) {
					sym = h.symbols[h.firstIdx[length]+int(code-h.firstCode[length])]
					break
				}
			}
		}
		if length > nbits {
			// The match completed only thanks to zero padding past the end
			// of the stream (the refill loop drained src, so nbits is all
			// the real bits left) — the bit-serial decoder would have run
			// out asking for the next real bit here.
			return nil, fmt.Errorf("%w: huffman stream exhausted at %d/%d bytes", ErrCorrupt, l-base, n)
		}
		out[l] = sym
		l++
		acc <<= uint(length)
		nbits -= length
	}
	return out[:l], nil
}

// MarshalModel implements ModelMarshaler: the 256 code lengths.
func (h *huffman) MarshalModel() []byte {
	out := make([]byte, 256)
	copy(out, h.lengths[:])
	return out
}

// huffmanFromModel rebuilds a Huffman codec from MarshalModel's code
// lengths.
func huffmanFromModel(model []byte) (Codec, error) {
	if len(model) != 256 {
		return nil, fmt.Errorf("%w: huffman model wants 256 lengths, has %d", ErrCorrupt, len(model))
	}
	h := &huffman{}
	for i, l := range model {
		if l == 0 || l > maxCodeLen {
			return nil, fmt.Errorf("%w: huffman model length %d for symbol %d", ErrCorrupt, l, i)
		}
		h.lengths[i] = l
	}
	// Kraft check BEFORE building tables: the lengths must form a
	// prefix code, or canonical code assignment overflows its length
	// slots — the flat table's fill (buildTable) indexes by code, so a
	// Kraft-violating model must be rejected here, not trusted to
	// panic later. The sum is kept exactly, in units of 2^-maxCodeLen.
	sum := 0
	for _, l := range h.lengths {
		sum += 1 << (maxCodeLen - l)
	}
	if sum > 1<<maxCodeLen {
		return nil, fmt.Errorf("%w: huffman model violates Kraft inequality", ErrCorrupt)
	}
	h.buildCanonical()
	return h, nil
}

func init() { register("huffman", trainHuffman, huffmanFromModel) }
