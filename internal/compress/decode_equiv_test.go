package compress

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// checkDecodeEquivalence runs one codec's fast decoder and its
// reference decoder on the same payload and requires identical
// output-or-error behavior: both succeed with byte-identical output
// (and an intact dst prefix), or both reject with ErrCorrupt.
func checkDecodeEquivalence(t *testing.T, c Codec, payload, prefix []byte) {
	t.Helper()
	fast, fastErr := c.DecompressAppend(append([]byte(nil), prefix...), payload)
	ref, refErr := refDecompressAppend(t, c, append([]byte(nil), prefix...), payload)
	if (fastErr == nil) != (refErr == nil) {
		t.Fatalf("%s: fast err = %v, reference err = %v (payload %d bytes)",
			c.Name(), fastErr, refErr, len(payload))
	}
	if fastErr != nil {
		if !errors.Is(fastErr, ErrCorrupt) {
			t.Fatalf("%s: fast decoder error not ErrCorrupt: %v", c.Name(), fastErr)
		}
		if !errors.Is(refErr, ErrCorrupt) {
			t.Fatalf("%s: reference decoder error not ErrCorrupt: %v", c.Name(), refErr)
		}
		return
	}
	if !bytes.Equal(fast, ref) {
		t.Fatalf("%s: fast and reference decoders disagree: %d vs %d bytes",
			c.Name(), len(fast), len(ref))
	}
	if !bytes.Equal(fast[:len(prefix)], prefix) {
		t.Fatalf("%s: fast decoder clobbered the dst prefix", c.Name())
	}
}

// TestDecodeEquivalenceGolden pins the fast decoders against the
// reference decoders on deterministic valid and hostile inputs, so the
// equivalence holds in plain `go test` runs, not only under fuzzing.
func TestDecodeEquivalenceGolden(t *testing.T) {
	valid := [][]byte{
		nil,
		{0},
		[]byte("hello, embedded world"),
		bytes.Repeat([]byte{0xA5}, 64),
		bytes.Repeat([]byte{1, 2, 3, 4}, 200),
		trainImage(t, 64),
		trainImage(t, 512),
		trainImage(t, 8192),
	}
	hostile := [][]byte{
		{0xA5},
		{0x01},
		{0x01, 0xFF, 0xFF},
		{0xFF, 0xFF, 0xFF, 0xFF},
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		bytes.Repeat([]byte{0x55}, 33),
		{0x20, 0x01, 0x00}, // short huffman stream: exhausted mid-image
	}
	for _, c := range allCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			for i, in := range valid {
				comp, err := c.CompressAppend(nil, in)
				if err != nil {
					t.Fatalf("input %d: %v", i, err)
				}
				checkDecodeEquivalence(t, c, comp, []byte{0xEE, 0xEE})
				// Truncations of valid streams probe every mid-stream
				// error branch on both decoders.
				for _, cut := range []int{0, 1, len(comp) / 2, len(comp) - 1} {
					if cut >= 0 && cut < len(comp) {
						checkDecodeEquivalence(t, c, comp[:cut], nil)
					}
				}
			}
			for _, h := range hostile {
				checkDecodeEquivalence(t, c, h, []byte{0xEE})
			}
		})
	}
}

// FuzzDecodeEquivalence is the differential fuzzer of the decode
// refactor: arbitrary bytes are fed to every codec both as a
// compression input (whose compressed form must decode identically
// under fast and reference decoders) and as a raw, potentially hostile
// compressed payload (where both decoders must agree on
// accept-vs-reject, and on the output when accepting).
func FuzzDecodeEquivalence(f *testing.F) {
	f.Add([]byte(nil), uint8(0))
	f.Add([]byte("loop: addi r1, r1, -1"), uint8(3))
	f.Add(bytes.Repeat([]byte{0xA5, 0x00}, 40), uint8(1))
	f.Add(trainImage(f, 257), uint8(16))
	// Hostile regression seeds: 2^63 length header, lone escape, flags
	// claiming data past the end.
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, uint8(5))
	f.Add([]byte{0xFF, 0x41}, uint8(2))

	codecs := allCodecs(f)
	f.Fuzz(func(t *testing.T, data []byte, prefixLen uint8) {
		prefix := bytes.Repeat([]byte{0xEE}, int(prefixLen)%17)
		for _, c := range codecs {
			comp, err := c.CompressAppend(nil, data)
			if err != nil {
				t.Fatalf("%s: CompressAppend: %v", c.Name(), err)
			}
			checkDecodeEquivalence(t, c, comp, prefix)
			checkDecodeEquivalence(t, c, data, prefix)
		}
	})
}

// TestHuffmanModelKraftViolationRejected: a model whose lengths
// violate the Kraft inequality must be rejected with ErrCorrupt
// before canonical code assignment — the flat decode table indexes by
// code, so an overfull code set used to panic in buildTable.
func TestHuffmanModelKraftViolationRejected(t *testing.T) {
	for _, l := range []byte{1, 2, 4, 7} {
		model := bytes.Repeat([]byte{l}, 256) // Kraft sum 256/2^l > 1
		if _, err := FromModel("huffman", model); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("length %d: err = %v, want ErrCorrupt", l, err)
		}
	}
	// A maximally deep but valid set (all 256 codes at length 8 is
	// exactly Kraft = 1) must still load and round-trip.
	c, err := FromModel("huffman", bytes.Repeat([]byte{8}, 256))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := c.CompressAppend(nil, []byte("kraft-complete"))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.DecompressAppend(nil, comp)
	if err != nil || string(plain) != "kraft-complete" {
		t.Fatalf("round trip = %q, %v", plain, err)
	}
}

// TestHuffmanFirstDecodeRace: eight goroutines make the first decodes
// of one freshly trained Huffman codec at once. Each builds the decode
// table or takes the one stored first, and every output equals the
// bit-serial reference decoder's.
func TestHuffmanFirstDecodeRace(t *testing.T) {
	for _, img := range generatedImages(t, 4) {
		h := trainHuffman(img).(*huffman)
		comp, err := h.CompressAppend(nil, img)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refHuffmanDecompress(h, nil, comp)
		if err != nil {
			t.Fatal(err)
		}
		const decoders = 8
		outs := make([][]byte, decoders)
		errs := make([]error, decoders)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				outs[i], errs[i] = h.DecompressAppend(nil, comp)
			}()
		}
		close(start)
		wg.Wait()
		for i := range outs {
			if errs[i] != nil || !bytes.Equal(outs[i], want) {
				t.Errorf("decoder %d: err %v, output equal to the reference %v", i, errs[i], bytes.Equal(outs[i], want))
			}
		}
		if h.table.Load() == nil {
			t.Error("no decode table after the first decodes")
		}
	}
}
