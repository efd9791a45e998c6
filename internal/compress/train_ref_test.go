package compress

// Reference trainers, the reference C-Pack classifier and the reference
// LZSS compressor: the implementations the allocation-free and one-pass
// ones replaced, kept verbatim (renamed) as the behavioral oracle. FuzzCompressEquivalence and
// TestCompressEquivalenceGolden require identical models, decode tables
// and compressed bytes from both. They live in a test file so the
// shipped binary carries only the fast path.

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"apbcc/internal/isa"
)

// refTrainDict is the map-and-sort.Slice dictionary trainer.
func refTrainDict(train []byte) *dict {
	freq := make(map[uint32]int)
	for i := 0; i+isa.WordSize <= len(train); i += isa.WordSize {
		freq[isa.ByteOrder.Uint32(train[i:])]++
	}
	type wc struct {
		w uint32
		c int
	}
	all := make([]wc, 0, len(freq))
	for w, c := range freq {
		if c >= 2 { // singletons cost more as indices than they save
			all = append(all, wc{w, c})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].w < all[j].w
	})
	if len(all) > DictSize {
		all = all[:DictSize]
	}
	d := &dict{}
	for _, e := range all {
		d.words = append(d.words, e.w)
	}
	return d
}

// refTrainCPack is the map-and-sort.Slice C-Pack seed trainer.
func refTrainCPack(train []byte) *cpack {
	freq := make(map[uint32]int)
	for i := 0; i+isa.WordSize <= len(train); i += isa.WordSize {
		freq[isa.ByteOrder.Uint32(train[i:])]++
	}
	type wc struct {
		w uint32
		c int
	}
	all := make([]wc, 0, len(freq))
	for w, c := range freq {
		if w > 0xFF {
			all = append(all, wc{w, c})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].w < all[j].w
	})
	if len(all) > cpackDictSize {
		all = all[:cpackDictSize]
	}
	c := &cpack{seedN: len(all)}
	for i, e := range all {
		c.seed[len(all)-1-i] = e.w
	}
	return c
}

// refCpackClassify is the three-scan C-Pack classifier, which searched
// the 16-entry dictionary once per class.
//
// cpackClassify picks the cheapest class for w given the dictionary
// state: with the half-tag share, ZZZZ costs 0.5 bytes, MMMM/ZZZX 1.5,
// MMMX 2.5, MMXX 3.5 and XXXX 4.5 — so classes are tried in cost
// order.
func refCpackClassify(w uint32, dct *[cpackDictSize]uint32) (cls, idx byte) {
	if w == 0 {
		return cpZZZZ, 0
	}
	for i := 0; i < cpackDictSize; i++ {
		if dct[i] == w {
			return cpMMMM, byte(i)
		}
	}
	if w <= 0xFF {
		return cpZZZX, 0
	}
	for i := 0; i < cpackDictSize; i++ {
		if dct[i]>>8 == w>>8 {
			return cpMMMX, byte(i)
		}
	}
	for i := 0; i < cpackDictSize; i++ {
		if dct[i]>>16 == w>>16 {
			return cpMMXX, byte(i)
		}
	}
	return cpXXXX, 0
}

// refCPackCompress is cpack's CompressAppend on refCpackClassify: the
// word-pair loop of compressAppend without its pattern accounting.
func refCPackCompress(c *cpack, dst, src []byte) []byte {
	out := binary.AppendUvarint(dst, uint64(len(src)))
	nWords := len(src) / isa.WordSize
	var dct [cpackDictSize]uint32
	var head int
	for w := 0; w < nWords; {
		if w&(cpackGroupWords-1) == 0 {
			dct = c.seed
			head = c.seedN & (cpackDictSize - 1)
		}
		tagPos := len(out)
		out = append(out, 0)
		v0 := isa.ByteOrder.Uint32(src[w*isa.WordSize:])
		cls0, idx0 := refCpackClassify(v0, &dct)
		out = cpackEmit(out, v0, cls0, idx0, &dct, &head)
		w++
		var cls1 byte
		if w < nWords {
			v1 := isa.ByteOrder.Uint32(src[w*isa.WordSize:])
			var idx1 byte
			cls1, idx1 = refCpackClassify(v1, &dct)
			out = cpackEmit(out, v1, cls1, idx1, &dct, &head)
			w++
		}
		out[tagPos] = cls0 | cls1<<4
	}
	return append(out, src[nWords*isa.WordSize:]...)
}

// refTrainHuffman is the pointer-tree Huffman trainer.
func refTrainHuffman(train []byte) *huffman {
	var freq [256]uint64
	for i := range freq {
		freq[i] = 1
	}
	for _, b := range train {
		freq[b]++
	}
	h := &huffman{}
	for {
		lengths := refBuildCodeLengths(freq[:])
		maxLen := uint8(0)
		for _, l := range lengths {
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen <= maxCodeLen {
			copy(h.lengths[:], lengths)
			break
		}
		// Flatten the distribution and retry until the depth bound holds.
		for i := range freq {
			freq[i] = freq[i]/2 + 1
		}
	}
	refBuildCanonical(h)
	return h
}

// refHuffmanFromLengths is huffmanFromModel's build on the reference
// canonical-code and decode-table construction (lengths already
// validated).
func refHuffmanFromLengths(lengths [256]uint8) *huffman {
	h := &huffman{lengths: lengths}
	refBuildCanonical(h)
	return h
}

type refHuffNode struct {
	weight      uint64
	symbol      int // -1 for internal
	left, right *refHuffNode
	order       int // tie-break for determinism
}

type refHuffHeap []*refHuffNode

func (h refHuffHeap) Len() int { return len(h) }
func (h refHuffHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].order < h[j].order
}
func (h refHuffHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHuffHeap) Push(x any)   { *h = append(*h, x.(*refHuffNode)) }
func (h *refHuffHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refBuildCodeLengths runs the classic Huffman algorithm and returns the
// code length of every symbol.
func refBuildCodeLengths(freq []uint64) []uint8 {
	h := make(refHuffHeap, 0, len(freq))
	order := 0
	for sym, f := range freq {
		h = append(h, &refHuffNode{weight: f, symbol: sym, order: order})
		order++
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*refHuffNode)
		b := heap.Pop(&h).(*refHuffNode)
		heap.Push(&h, &refHuffNode{weight: a.weight + b.weight, symbol: -1, left: a, right: b, order: order})
		order++
	}
	lengths := make([]uint8, len(freq))
	var walk func(n *refHuffNode, depth uint8)
	walk = func(n *refHuffNode, depth uint8) {
		if n.symbol >= 0 {
			if depth == 0 {
				depth = 1 // degenerate single-symbol tree
			}
			lengths[n.symbol] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(h[0], 0)
	return lengths
}

// refBuildCanonical derives canonical codes and decode tables from lengths.
func refBuildCanonical(h *huffman) {
	for _, l := range h.lengths {
		h.counts[l]++
	}
	h.counts[0] = 0
	code := uint32(0)
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + uint32(h.counts[l-1])) << 1
		h.firstCode[l] = code
	}
	// Assign codes in (length, symbol) order.
	next := h.firstCode
	h.symbols = h.symbols[:0]
	idx := 0
	for l := 1; l <= maxCodeLen; l++ {
		h.firstIdx[l] = idx
		for sym := 0; sym < 256; sym++ {
			if int(h.lengths[sym]) == l {
				h.codes[sym] = next[l]
				next[l]++
				h.symbols = append(h.symbols, byte(sym))
				idx++
			}
		}
	}
	refBuildTable(h)
}

// refBuildTable fills the decode table with the 256x256 pair pass. It
// builds the table eagerly and stores it on the codec, where the codec
// itself builds it on its first decode.
func refBuildTable(h *huffman) {
	t := new(huffTable)
	for i := range t {
		t[i] = 0
	}
	for sym := 0; sym < 256; sym++ {
		l := int(h.lengths[sym])
		if l == 0 || l > huffTableBits {
			continue
		}
		entry := uint32(l) | uint32(l)<<4 | uint32(sym)<<9
		base := h.codes[sym] << (huffTableBits - l)
		for j := uint32(0); j < 1<<(huffTableBits-l); j++ {
			t[base+j] = entry
		}
	}
	for s1 := 0; s1 < 256; s1++ {
		l1 := int(h.lengths[s1])
		if l1 == 0 || l1 >= huffTableBits {
			continue
		}
		for s2 := 0; s2 < 256; s2++ {
			l2 := int(h.lengths[s2])
			if l2 == 0 || l1+l2 > huffTableBits {
				continue
			}
			lt := l1 + l2
			entry := huffPairFlag | uint32(l1) | uint32(lt)<<4 | uint32(s1)<<9 | uint32(s2)<<17
			base := h.codes[s1]<<(huffTableBits-l1) | h.codes[s2]<<(huffTableBits-lt)
			for j := uint32(0); j < 1<<(huffTableBits-lt); j++ {
				t[base+j] = entry
			}
		}
	}
	h.table.Store(t)
}

// refLZSSCompress is the LZSS compressor that reset its whole 8192-entry
// hash head table on every call.
func refLZSSCompress(dst, src []byte) ([]byte, error) {
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("compress: lzss input %d bytes exceeds 2 GiB", len(src))
	}
	out := dst
	var head [lzHashSize]int32
	for i := range head {
		head[i] = -1
	}
	prev := make([]int32, len(src))
	hash := func(i int) int {
		return int(uint32(src[i])<<7^uint32(src[i+1])<<4^uint32(src[i+2])) & (lzHashSize - 1)
	}

	var flagPos int
	var flagBit uint
	newFlag := func() {
		flagPos = len(out)
		out = append(out, 0)
		flagBit = 0
	}
	newFlag()
	emit := func(isMatch bool, bytes ...byte) {
		if flagBit == 8 {
			newFlag()
		}
		if isMatch {
			out[flagPos] |= 1 << flagBit
		}
		flagBit++
		out = append(out, bytes...)
	}

	for i := 0; i < len(src); {
		bestLen, bestOff := 0, 0
		if i+lzMinMatch <= len(src) {
			h := hash(i)
			cand := int(head[h])
			for tries := 0; cand >= 0 && i-cand <= lzWindow-1 && tries < 32; tries++ {
				l := 0
				max := len(src) - i
				if max > lzMaxMatch {
					max = lzMaxMatch
				}
				for l < max && src[cand+l] == src[i+l] {
					l++
				}
				if l > bestLen {
					bestLen, bestOff = l, i-cand
				}
				cand = int(prev[cand])
			}
		}
		insert := func(pos int) {
			if pos+lzMinMatch <= len(src) {
				h := hash(pos)
				prev[pos] = head[h]
				head[h] = int32(pos)
			}
		}
		if bestLen >= lzMinMatch {
			token := uint16(bestOff)<<4 | uint16(bestLen-lzMinMatch)
			emit(true, byte(token>>8), byte(token))
			for j := 0; j < bestLen; j++ {
				insert(i + j)
			}
			i += bestLen
		} else {
			emit(false, src[i])
			insert(i)
			i++
		}
	}
	return out, nil
}
