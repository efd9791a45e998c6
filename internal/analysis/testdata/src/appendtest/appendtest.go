// Package appendtest is the appendapi analyzer's golden fixture: the
// compliant patch-back idiom (indices anchored at a captured
// len(dst)), every contract violation shape, and a reasoned
// suppression.
package appendtest

type codec struct{}

func grow(dst []byte, n int) []byte { return append(dst, make([]byte, n)...) }

// CompressAppend is fully compliant: growth via append and helpers
// that thread dst, writes only at anchored indices.
func (codec) CompressAppend(dst, src []byte) ([]byte, error) {
	base := len(dst)
	dst = append(dst, 0, 0)
	dst[base] = 1
	dst[base+1] = 2
	for _, b := range src {
		dst = append(dst, b)
	}
	dst = grow(dst, len(src))
	copy(dst[base+2:], src)
	j := base + 1
	dst[j]++
	return dst, nil
}

// DecompressAppend violates the contract in every shape the analyzer
// reports.
func (codec) DecompressAppend(dst, comp []byte) ([]byte, error) {
	dst[0] = 1 // want `indexed write to dst may land below the incoming len\(dst\)`
	for i := range comp {
		dst[i] = comp[i] // want `indexed write to dst may land below the incoming len\(dst\)`
	}
	n := 0
	dst[n]++                  // want `indexed write to dst may land below the incoming len\(dst\)`
	copy(dst, comp)           // want `copy into dst writes from index 0`
	copy(dst[n:], comp)       // want `copy into dst at an unanchored offset`
	clear(dst)                // want `clear on dst erases the caller's prefix`
	dst = dst[:0]             // want `dst reassigned outside the append idiom`
	dst = make([]byte, 4, 16) // want `dst reassigned from a call that does not take dst`
	dst = append(dst, comp...)
	return dst, nil
}

// AppendGroupOffsets carries a reviewed suppression.
func (codec) AppendGroupOffsets(dst []uint32, comp []byte) ([]uint32, error) {
	//apcc:allow appendapi fixture demonstrates a reviewed in-place fixup
	dst[0] = 0
	return dst, nil
}

// decompressGroup is a helper the contract covers by name: it may only
// grow dst, like the methods that call it.
func decompressGroup(dst, comp []byte, words int) ([]byte, error) {
	dst = dst[:words] // want `dst reassigned outside the append idiom`
	copy(dst, comp)   // want `copy into dst writes from index 0`
	return dst, nil
}
