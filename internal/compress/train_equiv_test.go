package compress

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameHuffman reports whether two Huffman codecs carry identical
// models and decode tables. A codec builds its flat decode table on its
// first decode, so each side decodes an empty block before the tables
// are compared.
func sameHuffman(a, b *huffman) bool {
	for _, h := range []*huffman{a, b} {
		if _, err := h.DecompressAppend(nil, []byte{0}); err != nil {
			return false
		}
	}
	return a.lengths == b.lengths && a.codes == b.codes && a.firstCode == b.firstCode &&
		a.firstIdx == b.firstIdx && a.counts == b.counts && slices.Equal(a.symbols, b.symbols) &&
		*a.table.Load() == *b.table.Load()
}

// TestHuffmanTableMatchesReference: the decode table a codec builds on
// its first decode equals the reference's fill-then-pair table for
// models rebuilt from random code lengths, complete or not. Each set of
// lengths starts at 16 bits for every symbol and shortens random codes
// while the Kraft sum stays at most 1, so sets of every shape turn up:
// a few very short codes, many 8-bit ones, slack left at the end of the
// table.
func TestHuffmanTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 200; n++ {
		var lengths [256]uint8
		kraft := 0 // the Kraft sum in units of 2^-maxCodeLen
		for i := range lengths {
			lengths[i] = maxCodeLen
			kraft++
		}
		for steps := rng.Intn(4000); steps > 0; steps-- {
			sym := rng.Intn(256)
			l := lengths[sym]
			if l == 1 {
				continue
			}
			// Shortening by one bit doubles the symbol's share.
			if grown := kraft + 1<<(maxCodeLen-l); grown <= 1<<maxCodeLen {
				lengths[sym], kraft = l-1, grown
			}
		}
		c, err := huffmanFromModel(lengths[:])
		if err != nil {
			t.Fatalf("set %d: %v", n, err)
		}
		if !sameHuffman(c.(*huffman), refHuffmanFromLengths(lengths)) {
			t.Fatalf("set %d (Kraft %d/%d): table differs from the reference's, lengths %v", n, kraft, 1<<maxCodeLen, lengths)
		}
	}
}

// checkCompressEquivalence requires the trainers and the LZSS
// compressor to match their references on one training image and a
// sequence of blocks cut from it: identical dict, cpack and Huffman
// models (Huffman decode tables included, both trained and rebuilt from
// the serialized model) and identical CompressAppend bytes for every
// codec. Every C-Pack payload must also equal refCPackCompress's, the
// compressor on the three-scan classifier. The LZSS blocks go through
// one matcher in turn, so entries left by an earlier call must never
// reach a later one.
func checkCompressEquivalence(t *testing.T, train []byte) {
	t.Helper()
	d, rd := trainDict(train).(*dict), refTrainDict(train)
	if !slices.Equal(d.words, rd.words) {
		t.Fatalf("dict model %v, reference %v", d.words, rd.words)
	}
	c, rc := trainCPack(train).(*cpack), refTrainCPack(train)
	if c.seed != rc.seed || c.seedN != rc.seedN {
		t.Fatalf("cpack seed %v/%d, reference %v/%d", c.seed, c.seedN, rc.seed, rc.seedN)
	}
	h, rh := trainHuffman(train).(*huffman), refTrainHuffman(train)
	if h.table.Load() != nil {
		t.Fatal("huffman training built a decode table")
	}
	if !sameHuffman(h, rh) {
		t.Fatalf("huffman model differs from the reference (lengths %v vs %v)", h.lengths, rh.lengths)
	}
	fm, err := huffmanFromModel(h.MarshalModel())
	if err != nil {
		t.Fatal(err)
	}
	if fm.(*huffman).table.Load() != nil {
		t.Fatal("huffman model rebuild built a decode table before any decode")
	}
	if !sameHuffman(fm.(*huffman), refHuffmanFromLengths(rh.lengths)) {
		t.Fatal("huffman model rebuilt from its serialized lengths differs from the reference")
	}

	blocks := [][]byte{train, train[:len(train)/2], nil, train[len(train)/3:], train[:min(len(train), 7)], train}
	pairs := []struct{ got, want Codec }{{d, rd}, {c, rc}, {h, rh}}
	m := &lzssMatcher{base: 1}
	for _, blk := range blocks {
		for _, p := range pairs {
			got, err := p.got.CompressAppend(nil, blk)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.want.CompressAppend(nil, blk)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %d-byte block compresses differently from the reference model", p.got.Name(), len(blk))
			}
		}
		if got, _ := c.CompressAppend([]byte{0xEE}, blk); !bytes.Equal(got, refCPackCompress(rc, []byte{0xEE}, blk)) {
			t.Fatalf("cpack: %d-byte block compresses differently from the three-scan classifier", len(blk))
		}
		want, err := refLZSSCompress([]byte{0xEE}, blk)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.compress([]byte{0xEE}, blk); !bytes.Equal(got, want) {
			t.Fatalf("lzss: %d-byte block compresses to %d bytes, reference %d", len(blk), len(got), len(want))
		}
		if got, _ := (lzss{}).CompressAppend([]byte{0xEE}, blk); !bytes.Equal(got, want) {
			t.Fatalf("lzss: pooled CompressAppend of a %d-byte block differs from the reference", len(blk))
		}
	}
}

// TestCompressEquivalenceGolden pins the trainers and the LZSS
// compressor against their references on deterministic images.
func TestCompressEquivalenceGolden(t *testing.T) {
	images := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0}, 64),
		bytes.Repeat([]byte{1, 2, 3, 4}, 300),
		trainImage(t, 64),
		trainImage(t, 2048),
	}
	// Skewed enough that the first Huffman tree is deeper than
	// maxCodeLen, so the flatten-and-retry loop runs.
	var skew []byte
	for i := 0; i < 30; i++ {
		skew = append(skew, bytes.Repeat([]byte{byte(i)}, 1<<min(i, 20)>>4+1)...)
	}
	images = append(images, skew)
	images = append(images, generatedImages(t, 16)...)
	for _, img := range images {
		checkCompressEquivalence(t, img)
	}
}

// TestCPackClassifyMatchesReference: the one-pass classifier picks the
// three-scan classifier's class and index for words that share their
// upper 16 or 24 bits, or all 32, with any entries of a dictionary that
// repeats values and halfwords, as the moving dictionary does.
func TestCPackClassifyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for iter := 0; iter < 20000; iter++ {
		var dct [cpackDictSize]uint32
		for i := range dct {
			dct[i] = r.Uint32() >> (8 * r.Intn(4))
			if i > 0 && r.Intn(3) == 0 {
				// Repeat an earlier entry's upper bits, or all of it.
				dct[i] = dct[r.Intn(i)]&^(1<<(8*r.Intn(4))-1) | dct[i]&0xFF
			}
		}
		w := dct[r.Intn(cpackDictSize)]
		switch r.Intn(5) {
		case 0:
			w = r.Uint32() >> (8 * r.Intn(4))
		case 1:
			w ^= uint32(r.Intn(0x100))
		case 2:
			w ^= uint32(r.Intn(0x10000))
		}
		cls, idx := cpackClassify(w, &dct)
		if wantCls, wantIdx := refCpackClassify(w, &dct); cls != wantCls || idx != wantIdx {
			t.Fatalf("word %#x in %#x: class %d index %d, reference %d index %d", w, dct, cls, idx, wantCls, wantIdx)
		}
	}
}

// TestLZSSBaseWrap runs the compressor across the int32 base overflow:
// the matcher clears its table and restarts at base 1, and the output
// stays the reference's.
func TestLZSSBaseWrap(t *testing.T) {
	img := trainImage(t, 512)
	m := &lzssMatcher{base: 1}
	m.compress(nil, img) // leave live entries behind
	m.base = math.MaxInt32 - len(img)/2
	for i := 0; i < 3; i++ {
		want, _ := refLZSSCompress(nil, img)
		if got := m.compress(nil, img); !bytes.Equal(got, want) {
			t.Fatalf("call %d (base %d): output differs from the reference", i, m.base)
		}
	}
	// Restarted at base 1 by the first call, then three inputs later.
	if want := 3*len(img) + 1; m.base != want {
		t.Fatalf("base %d, want %d: the table was not restarted", m.base, want)
	}
}

// FuzzCompressEquivalence is the differential fuzzer of the training
// and LZSS rewrites: any byte string, as a training image and as the
// blocks cut from it, must give identical models and identical
// compressed bytes.
func FuzzCompressEquivalence(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("loop: addi r1, r1, -1"))
	f.Add(bytes.Repeat([]byte{0xA5, 0x00}, 40))
	f.Add(trainImage(f, 257))
	for _, img := range generatedImages(f, 2) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, train []byte) {
		checkCompressEquivalence(t, train)
	})
}
