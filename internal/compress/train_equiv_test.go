package compress

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// sameHuffman reports whether two Huffman codecs carry identical
// models and decode tables.
func sameHuffman(a, b *huffman) bool {
	return a.lengths == b.lengths && a.codes == b.codes && a.firstCode == b.firstCode &&
		a.firstIdx == b.firstIdx && a.counts == b.counts && slices.Equal(a.symbols, b.symbols) &&
		a.table == b.table
}

// checkCompressEquivalence requires the trainers and the LZSS
// compressor to match their references on one training image and a
// sequence of blocks cut from it: identical dict, cpack and Huffman
// models (Huffman decode tables included, both trained and rebuilt from
// the serialized model) and identical CompressAppend bytes for every
// codec. The LZSS blocks go through one matcher in turn, so entries
// left by an earlier call must never reach a later one.
func checkCompressEquivalence(t *testing.T, train []byte) {
	t.Helper()
	d, rd := NewDict(train).(*dict), refNewDict(train)
	if !slices.Equal(d.words, rd.words) {
		t.Fatalf("dict model %v, reference %v", d.words, rd.words)
	}
	c, rc := NewCPack(train).(*cpack), refNewCPack(train)
	if c.seed != rc.seed || c.seedN != rc.seedN {
		t.Fatalf("cpack seed %v/%d, reference %v/%d", c.seed, c.seedN, rc.seed, rc.seedN)
	}
	h, rh := NewHuffman(train).(*huffman), refNewHuffman(train)
	if !sameHuffman(h, rh) {
		t.Fatalf("huffman model differs from the reference (lengths %v vs %v)", h.lengths, rh.lengths)
	}
	fm, err := huffmanFromModel(h.MarshalModel())
	if err != nil {
		t.Fatal(err)
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
		want, err := refLZSSCompress([]byte{0xEE}, blk)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.compress([]byte{0xEE}, blk); !bytes.Equal(got, want) {
			t.Fatalf("lzss: %d-byte block compresses to %d bytes, reference %d", len(blk), len(got), len(want))
		}
		if got, _ := NewLZSS().CompressAppend([]byte{0xEE}, blk); !bytes.Equal(got, want) {
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
