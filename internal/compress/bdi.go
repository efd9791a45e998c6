package compress

import (
	"encoding/binary"
	"fmt"

	"apbcc/internal/isa"
)

// bdi is a base-delta-immediate codec (Pekhimenko et al., "Base-Delta-
// Immediate Compression"): the block is cut into fixed groups of eight
// 32-bit words and each group is stored as one mode byte plus either
// nothing (all zeros), one word (all words equal), a base word plus
// narrow per-word deltas (1- or 2-byte signed immediates against the
// group's first word), or the raw words (the 4-byte-delta degenerate
// case). Modes are per group, so a block mixes them freely.
//
// Group modes (mode byte -> payload for a k-word group, k <= 8):
//
//	ZERO (0) -> 0 bytes        every word zero
//	REP  (1) -> 4 bytes        every word equal (payload = the word)
//	D1   (2) -> 4 + k bytes    base word + k signed 1-byte deltas
//	D2   (3) -> 4 + 2k bytes   base word + k signed 2-byte deltas (LE)
//	RAW  (4) -> 4k bytes       raw little-endian words (Δ4)
//
// Deltas are wrapping differences word - base reconstructed as
// base + delta, so every word is representable and the width check is
// a plain int8/int16 range test. The first delta (word 0 against
// itself) is always zero and still stored: uniform k-delta payloads
// keep the decoder branchless within a group.
//
// Wire format per block: uvarint original byte length, then the
// groups in order (the final group covers the remaining 1..8 words),
// then the raw non-word-multiple tail. Nothing is trained and no
// model is needed.
//
// Decode is the fastest in the suite short of identity: one bound
// check and one mode switch per group, and each arm is straight-line
// word stores — zeros for ZERO, a broadcast for REP, an add and a
// store per word for D1/D2, a copy for RAW (one 32-byte copy for a
// full group).
type bdi struct{}

// bdiGroupWords is the fixed group size: eight words (32 bytes), the
// line granularity used by the BDI literature and small enough that a
// single base covers local address clusters.
const bdiGroupWords = 8

// Group mode bytes; values above bdiRaw are corrupt.
const (
	bdiZero = iota
	bdiRep
	bdiD1
	bdiD2
	bdiRaw
	bdiModeCount
)

// bdiModeNames orders the mode labels for pattern reporting.
var bdiModeNames = [bdiModeCount]string{"ZERO", "REP", "D1", "D2", "RAW"}

func (bdi) Name() string { return "bdi" }

// Cost reflects the decoder's shape: one dispatch per eight-word group
// amortizes to the cheapest per-byte path in the suite after identity,
// and there is no table to set up. Compression is two passes over each
// group (classify, emit) of plain word arithmetic.
func (bdi) Cost() CostModel {
	return CostModel{
		CompressFixed: 12, CompressPerByte: 2,
		DecompressFixed: 4, DecompressPerByte: 1,
	}
}

// MaxCompressedLen is the uvarint header, one mode byte per group, the
// worst case of every group raw, and the raw tail.
func (bdi) MaxCompressedLen(n int) int {
	nWords := n / isa.WordSize
	return binary.MaxVarintLen64 + (nWords+bdiGroupWords-1)/bdiGroupWords + n
}

// bdiClassify picks the narrowest mode for the k words in g.
func bdiClassify(g *[bdiGroupWords]uint32, k int) int {
	base := g[0]
	uniform, zero := true, base == 0
	fit8, fit16 := true, true
	for i := 0; i < k; i++ {
		w := g[i]
		if w != base {
			uniform = false
		}
		if w != 0 {
			zero = false
		}
		d := int32(w - base)
		if int32(int8(d)) != d {
			fit8 = false
		}
		if int32(int16(d)) != d {
			fit16 = false
		}
	}
	switch {
	case zero:
		return bdiZero
	case uniform:
		return bdiRep
	case fit8:
		return bdiD1
	case fit16:
		return bdiD2
	default:
		return bdiRaw
	}
}

func (c bdi) CompressAppend(dst, src []byte) ([]byte, error) {
	return c.compressAppend(dst, src, nil)
}

// compressAppend is CompressAppend with optional per-mode accounting:
// when pats is non-nil it accumulates the words and bytes (mode byte
// included) each group mode absorbed.
func (bdi) compressAppend(dst, src []byte, pats *[bdiModeCount]patternAcc) ([]byte, error) {
	out := binary.AppendUvarint(dst, uint64(len(src)))
	nWords := len(src) / isa.WordSize
	var g [bdiGroupWords]uint32
	for w := 0; w < nWords; w += bdiGroupWords {
		k := nWords - w
		if k > bdiGroupWords {
			k = bdiGroupWords
		}
		for i := 0; i < k; i++ {
			g[i] = isa.ByteOrder.Uint32(src[(w+i)*isa.WordSize:])
		}
		mode := bdiClassify(&g, k)
		before := len(out)
		out = append(out, byte(mode))
		base := g[0]
		switch mode {
		case bdiZero:
		case bdiRep:
			out = isa.ByteOrder.AppendUint32(out, base)
		case bdiD1:
			out = isa.ByteOrder.AppendUint32(out, base)
			for i := 0; i < k; i++ {
				out = append(out, byte(int8(int32(g[i]-base))))
			}
		case bdiD2:
			out = isa.ByteOrder.AppendUint32(out, base)
			for i := 0; i < k; i++ {
				out = binary.LittleEndian.AppendUint16(out, uint16(int16(int32(g[i]-base))))
			}
		case bdiRaw:
			for i := 0; i < k; i++ {
				out = isa.ByteOrder.AppendUint32(out, g[i])
			}
		}
		if pats != nil {
			pats[mode].words += k
			pats[mode].bytes += len(out) - before
		}
	}
	out = append(out, src[nWords*isa.WordSize:]...) // raw tail, if any
	return out, nil
}

// bdiPayLen returns the payload length of mode for a k-word group, or
// -1 for an invalid mode byte.
func bdiPayLen(mode byte, k int) int {
	switch mode {
	case bdiZero:
		return 0
	case bdiRep:
		return isa.WordSize
	case bdiD1:
		return isa.WordSize + k
	case bdiD2:
		return isa.WordSize + 2*k
	case bdiRaw:
		return isa.WordSize * k
	default:
		return -1
	}
}

// DecompressAppend decodes a whole block with the codec's one decoder.
// A lone ZERO mode byte stands for a whole 32-byte group.
func (c bdi) DecompressAppend(dst, src []byte) ([]byte, error) {
	return decompressBlock(dst, src, c, bdiGroupWords*isa.WordSize)
}

// decodeWords is bdi's one decoder (see wordDecoder): one mode switch
// per group, each arm straight-line word stores. A full RAW group, 65%
// of the suite's groups, is copied before the switch once its exact
// length is checked; one cut short takes the switch, which reports it.
func (bdi) decodeWords(out, src []byte, n int) (int, error) {
	l, pos := 0, 0
	for w := 0; w < n; w += bdiGroupWords {
		k := min(n-w, bdiGroupWords)
		if pos >= len(src) {
			return 0, fmt.Errorf("%w: bdi stream truncated at word %d", ErrCorrupt, w)
		}
		mode := src[pos]
		pos++
		if mode == bdiRaw && k == bdiGroupWords && pos+bdiGroupWords*isa.WordSize <= len(src) {
			// Two 16-byte moves: a 32-byte array copy between slices the
			// compiler cannot prove disjoint is a memmove call.
			*(*[16]byte)(out[l:]) = *(*[16]byte)(src[pos:])
			*(*[16]byte)(out[l+16:]) = *(*[16]byte)(src[pos+16:])
			pos += bdiGroupWords * isa.WordSize
			l += bdiGroupWords * isa.WordSize
			continue
		}
		pay := bdiPayLen(mode, k)
		if pay < 0 {
			return 0, fmt.Errorf("%w: bdi mode byte %d", ErrCorrupt, mode)
		}
		if pos+pay > len(src) {
			return 0, fmt.Errorf("%w: bdi group payload truncated at word %d", ErrCorrupt, w)
		}
		switch mode {
		case bdiZero:
			clear(out[l : l+k*isa.WordSize])
		case bdiRep:
			v := isa.ByteOrder.Uint32(src[pos:])
			for i := 0; i < k; i++ {
				isa.ByteOrder.PutUint32(out[l+i*isa.WordSize:], v)
			}
		case bdiD1:
			b := isa.ByteOrder.Uint32(src[pos:])
			for i := 0; i < k; i++ {
				isa.ByteOrder.PutUint32(out[l+i*isa.WordSize:], b+uint32(int32(int8(src[pos+isa.WordSize+i]))))
			}
		case bdiD2:
			b := isa.ByteOrder.Uint32(src[pos:])
			for i := 0; i < k; i++ {
				d := int16(binary.LittleEndian.Uint16(src[pos+isa.WordSize+2*i:]))
				isa.ByteOrder.PutUint32(out[l+i*isa.WordSize:], b+uint32(int32(d)))
			}
		case bdiRaw:
			copy(out[l:l+pay], src[pos:])
		}
		pos += pay
		l += k * isa.WordSize
	}
	return pos, nil
}

// CountPatterns implements PatternReporter: a counting compression pass
// whose per-mode word and byte totals (mode bytes included) are merged
// into acc.
func (c bdi) CountPatterns(src []byte, acc PatternStats) (PatternStats, error) {
	var pats [bdiModeCount]patternAcc
	if _, err := c.compressAppend(make([]byte, 0, c.MaxCompressedLen(len(src))), src, &pats); err != nil {
		return acc, err
	}
	for mode, p := range pats {
		acc = acc.add(bdiModeNames[mode], p.words, p.bytes)
	}
	return acc, nil
}

func init() {
	register("bdi", func([]byte) Codec { return bdi{} }, func([]byte) (Codec, error) { return bdi{}, nil })
}
