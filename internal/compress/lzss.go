package compress

import (
	"fmt"
	"math"
	"sync"
)

// lzss is a classic LZSS codec: a 4KiB sliding window, 3..18-byte
// matches encoded as 16-bit (offset:12, length-3:4) tokens, and flag
// bytes carrying 8 literal/match bits each. It anchors the high end of
// the ratio spectrum at a moderate decompression cost — the software
// decompressor class the paper's related work (Lefurgy et al.) profiles.
type lzss struct{}

const (
	lzWindow   = 4096
	lzMinMatch = 3
	lzMaxMatch = lzMinMatch + 15
	lzHashSize = 1 << 13
)

// lzssMatcher is the pooled hash-chain state of the compressor:
// head[h] is the most recent position with 3-byte hash h and prev links
// positions sharing a hash (bounded chain search). A head entry is
// stamped with the call that wrote it: it stores base+pos, and each
// call starts its base past every value an earlier call stored, so a
// stale entry reads as a negative position, an empty chain. No call
// clears the 32 KiB table, and one call costs O(len(src)) however
// short the block; only when the base would overflow int32 (after 2 GiB
// of input through one matcher) is the table cleared.
type lzssMatcher struct {
	head [lzHashSize]int32
	prev []int32
	base int // every head entry is below base; at least 1, so a zero table is empty
}

var lzssMatchers = sync.Pool{New: func() any { return &lzssMatcher{base: 1} }}

// lzHash hashes the 3 bytes at src[i:].
func lzHash(src []byte, i int) int {
	return int(uint32(src[i])<<7^uint32(src[i+1])<<4^uint32(src[i+2])) & (lzHashSize - 1)
}

// NewLZSS returns the LZSS codec.
func NewLZSS() Codec { return lzss{} }

func (lzss) Name() string { return "lzss" }

func (lzss) Cost() CostModel {
	return CostModel{
		CompressFixed: 64, CompressPerByte: 12,
		DecompressFixed: 24, DecompressPerByte: 4,
	}
}

// MaxCompressedLen is n plus one flag byte per 8 literals (worst case:
// nothing matches) plus one trailing flag byte.
func (lzss) MaxCompressedLen(n int) int { return n + (n+7)/8 + 1 }

func (lzss) CompressAppend(dst, src []byte) ([]byte, error) {
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("compress: lzss input %d bytes exceeds 2 GiB", len(src))
	}
	m := lzssMatchers.Get().(*lzssMatcher)
	defer lzssMatchers.Put(m)
	return m.compress(dst, src), nil
}

// compress is CompressAppend on this matcher's state; len(src) is at
// most math.MaxInt32.
func (m *lzssMatcher) compress(dst, src []byte) []byte {
	if m.base > math.MaxInt32-len(src) {
		clear(m.head[:])
		m.base = 1
	}
	base := m.base
	m.base += len(src)
	if cap(m.prev) < len(src) {
		m.prev = make([]int32, len(src))
	}
	prev := m.prev[:len(src)]
	// chain returns the newest position of this call with hash h, or -1.
	chain := func(h int) int {
		if p := int(m.head[h]) - base; p >= 0 {
			return p
		}
		return -1
	}

	out := dst
	flagPos := len(out)
	out = append(out, 0)
	flagBit := uint(0)
	for i := 0; i < len(src); {
		bestLen, bestOff := 0, 0
		if i+lzMinMatch <= len(src) {
			cand := chain(lzHash(src, i))
			for tries := 0; cand >= 0 && i-cand <= lzWindow-1 && tries < 32; tries++ {
				l := 0
				max := min(len(src)-i, lzMaxMatch)
				for l < max && src[cand+l] == src[i+l] {
					l++
				}
				if l > bestLen {
					bestLen, bestOff = l, i-cand
				}
				cand = int(prev[cand])
			}
		}
		if flagBit == 8 {
			flagPos = len(out)
			out = append(out, 0)
			flagBit = 0
		}
		n := 1 // positions this token covers
		if bestLen >= lzMinMatch {
			out[flagPos] |= 1 << flagBit
			token := uint16(bestOff)<<4 | uint16(bestLen-lzMinMatch)
			out = append(out, byte(token>>8), byte(token))
			n = bestLen
		} else {
			out = append(out, src[i])
		}
		flagBit++
		// Insert every covered position that still has 3 bytes to hash.
		for end := i + n; i < end; i++ {
			if i+lzMinMatch <= len(src) {
				h := lzHash(src, i)
				prev[i] = int32(chain(h))
				m.head[h] = int32(base + i)
			}
		}
	}
	return out
}

// DecompressAppend is the fast-path decoder: all-literal groups (flag
// byte 0) are copied eight bytes at a time, and match expansion runs
// through copy in region-doubling chunks instead of a byte-at-a-time
// append loop. Output and accept/reject behavior are identical to the
// byte-serial decoder (pinned by FuzzDecodeEquivalence).
func (lzss) DecompressAppend(dst, src []byte) ([]byte, error) {
	out := dst
	base := len(dst) // back-references must never reach into dst's prefix
	i := 0
	for i < len(src) {
		flags := src[i]
		i++
		if flags == 0 {
			// Eight literals (or the stream's literal tail): one copy.
			lit := len(src) - i
			if lit > 8 {
				lit = 8
			}
			out = append(out, src[i:i+lit]...)
			i += lit
			continue
		}
		for bit := uint(0); bit < 8; bit++ {
			if i >= len(src) {
				// Trailing zero flag bits are padding; a set bit with no
				// data is corruption.
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
			// Chunked match copy: each pass doubles the copied region, so
			// even off=1 runs finish in O(log length) copies. off >= length
			// (no overlap) completes in the first pass.
			s := len(out) - off
			out = extendLen(out, length)
			end := len(out)
			for d := end - length; d < end; {
				d += copy(out[d:end], out[s:d])
			}
		}
	}
	return out, nil
}

func (c lzss) Compress(src []byte) ([]byte, error)   { return c.CompressAppend(nil, src) }
func (c lzss) Decompress(src []byte) ([]byte, error) { return c.DecompressAppend(nil, src) }

func init() {
	Register("lzss", func([]byte) (Codec, error) { return NewLZSS(), nil })
}
