package compress

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"apbcc/internal/isa"
)

// trainImage builds a realistic ERI32 training image: a loop-heavy
// instruction mix with high word-level redundancy.
func trainImage(t testing.TB, n int) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	ins := make([]isa.Instruction, 0, n)
	for i := 0; i < n; i++ {
		switch r.Intn(5) {
		case 0:
			ins = append(ins, isa.Instruction{Op: isa.OpADD, Rd: isa.Reg(r.Intn(8)), Rs1: isa.Reg(r.Intn(8)), Rs2: isa.Reg(r.Intn(8))})
		case 1:
			ins = append(ins, isa.Instruction{Op: isa.OpADDI, Rd: isa.Reg(r.Intn(8)), Rs1: isa.Reg(r.Intn(8)), Imm: int32(r.Intn(16))})
		case 2:
			ins = append(ins, isa.Instruction{Op: isa.OpLW, Rd: isa.Reg(r.Intn(8)), Rs1: 29, Imm: int32(4 * r.Intn(8))})
		case 3:
			ins = append(ins, isa.Instruction{Op: isa.OpNOP})
		default:
			ins = append(ins, isa.Instruction{Op: isa.OpBNE, Rs1: isa.Reg(r.Intn(4)), Rs2: 0, Imm: int32(r.Intn(8) - 4)})
		}
	}
	words, err := isa.EncodeAll(ins)
	if err != nil {
		t.Fatal(err)
	}
	return isa.WordsToBytes(words)
}

func allCodecs(t testing.TB) []Codec {
	t.Helper()
	train := trainImage(t, 2048)
	var out []Codec
	for _, name := range Names() {
		c, err := New(name, train)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		out = append(out, c)
	}
	return out
}

func TestRegistryNames(t *testing.T) {
	want := []string{"bdi", "cpack", "dict", "huffman", "identity", "lzss"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}
	if _, err := New("nope", nil); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate register did not panic")
		}
	}()
	register("lzss", func([]byte) Codec { return lzss{} }, func([]byte) (Codec, error) { return lzss{}, nil })
}

func TestRoundTripFixedInputs(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0},
		{0xA5},
		{0xA5, 0xA5, 0xA5, 0xA5, 0xA5},
		[]byte("hello, embedded world"),
		bytes.Repeat([]byte{0xAA}, 300),
		bytes.Repeat([]byte{1, 2, 3, 4}, 64),
		trainImage(t, 257),
	}
	for _, c := range allCodecs(t) {
		for i, in := range inputs {
			comp, err := c.CompressAppend(nil, in)
			if err != nil {
				t.Fatalf("%s input %d: Compress: %v", c.Name(), i, err)
			}
			got, err := c.DecompressAppend(nil, comp)
			if err != nil {
				t.Fatalf("%s input %d: Decompress: %v", c.Name(), i, err)
			}
			if !bytes.Equal(got, in) {
				t.Errorf("%s input %d: round trip mismatch (%d vs %d bytes)", c.Name(), i, len(got), len(in))
			}
		}
	}
}

func TestRoundTripPropertyRandomBytes(t *testing.T) {
	codecs := allCodecs(t)
	f := func(in []byte) bool {
		for _, c := range codecs {
			comp, err := c.CompressAppend(nil, in)
			if err != nil {
				return false
			}
			got, err := c.DecompressAppend(nil, comp)
			if err != nil || !bytes.Equal(got, in) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripPropertyInstructionImages(t *testing.T) {
	codecs := allCodecs(t)
	f := func(seed int64, sizeRaw uint16) bool {
		size := int(sizeRaw%512) + 1
		r := rand.New(rand.NewSource(seed))
		words := make([]uint32, size)
		for i := range words {
			// Heavily duplicated word stream, like real code.
			if r.Intn(4) > 0 && i > 0 {
				words[i] = words[r.Intn(i)]
			} else {
				words[i] = isa.Instruction{Op: isa.OpADDI, Rd: isa.Reg(r.Intn(32)), Rs1: isa.Reg(r.Intn(32)), Imm: int32(r.Intn(100))}.MustEncode()
			}
		}
		in := isa.WordsToBytes(words)
		for _, c := range codecs {
			comp, err := c.CompressAppend(nil, in)
			if err != nil {
				return false
			}
			got, err := c.DecompressAppend(nil, comp)
			if err != nil || !bytes.Equal(got, in) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCodeImagesCompress(t *testing.T) {
	// On a realistic instruction image, every real codec should beat
	// identity, and dict should do well (code compression literature
	// reports ~60-70% ratios; our synthetic image is more redundant).
	img := trainImage(t, 4096)
	for _, c := range allCodecs(t) {
		comp, err := c.CompressAppend(nil, img)
		if err != nil {
			t.Fatal(err)
		}
		ratio := Ratio(len(img), len(comp))
		t.Logf("%-8s ratio=%.3f", c.Name(), ratio)
		if c.Name() == "identity" {
			if ratio != 1 {
				t.Errorf("identity ratio = %v", ratio)
			}
			continue
		}
		if c.Name() == "bdi" {
			// BDI is a data codec: instruction words inside one 8-word
			// group rarely share a base, so most groups fall back to RAW
			// and code images hover around ratio 1. It earns its keep on
			// zero/uniform regions and as the fastest decoder, not here.
			continue
		}
		if ratio >= 1 {
			t.Errorf("%s did not compress code image: ratio %.3f", c.Name(), ratio)
		}
	}
}

func TestDictBeatsGeneralCodecsOnDecodeCost(t *testing.T) {
	train := trainImage(t, 1024)
	d, _ := New("dict", train)
	l, _ := New("lzss", train)
	h, _ := New("huffman", train)
	n := 1024
	if d.Cost().DecompressCycles(n) >= l.Cost().DecompressCycles(n) {
		t.Error("dict decode should be cheaper than lzss")
	}
	if l.Cost().DecompressCycles(n) >= h.Cost().DecompressCycles(n) {
		t.Error("lzss decode should be cheaper than huffman")
	}
}

func TestCostModelArithmetic(t *testing.T) {
	m := CostModel{CompressFixed: 10, CompressPerByte: 2, DecompressFixed: 5, DecompressPerByte: 1}
	if got := m.CompressCycles(100); got != 210 {
		t.Errorf("CompressCycles = %d", got)
	}
	if got := m.DecompressCycles(100); got != 105 {
		t.Errorf("DecompressCycles = %d", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(0, 5) != 1 {
		t.Error("zero original")
	}
	if Ratio(100, 50) != 0.5 {
		t.Error("half")
	}
}

func TestMeasure(t *testing.T) {
	train := trainImage(t, 512)
	c, _ := New("dict", train)
	blocks := [][]byte{train[:64], train[64:256], train[256:]}
	s, err := Measure(c, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if s.Blocks != 3 {
		t.Errorf("Blocks = %d", s.Blocks)
	}
	if s.OriginalBytes != len(train) {
		t.Errorf("OriginalBytes = %d", s.OriginalBytes)
	}
	if s.Ratio() >= 1 {
		t.Errorf("aggregate ratio = %v", s.Ratio())
	}
	if s.CompressMBps() <= 0 || s.DecompressMBps() <= 0 {
		t.Errorf("throughput unmeasured: %v / %v MB/s", s.CompressMBps(), s.DecompressMBps())
	}
}

func TestCorruptInputs(t *testing.T) {
	train := trainImage(t, 512)
	cases := []struct {
		name string
		bad  []byte
	}{
		{"lzss", []byte{0x01}},             // match flag, no token
		{"lzss", []byte{0x01, 0xFF, 0xFF}}, // offset beyond output
		{"huffman", []byte{}},              // no header
		{"huffman", []byte{200}},           // claims 200 bytes, no stream
		{"dict", []byte{}},                 // no header
		{"dict", []byte{100}},              // claims 100 bytes, no stream
		// Length header of 2^63: would wrap int(n) negative and panic
		// the slice bounds if not rejected up front.
		{"dict", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
		{"huffman", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
		{"cpack", []byte{}},                    // no header
		{"cpack", []byte{8}},                   // claims 2 words, no stream
		{"cpack", []byte{8, 0x66}},             // tag nibble 6: no such class
		{"cpack", []byte{8, 0xF0}},             // low nibble 0 ok, high nibble 15 invalid
		{"cpack", []byte{8, 0x11, 0x20, 0x00}}, // MMMM index 32 beyond 16 entries
		{"cpack", []byte{8, 0x44, 1, 2, 3}},    // raw pair truncated mid-payload
		{"cpack", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
		{"bdi", []byte{}},                  // no header
		{"bdi", []byte{32}},                // claims a group, no stream
		{"bdi", []byte{32, 5}},             // mode byte 5: no such mode
		{"bdi", []byte{32, 2, 1, 2, 3, 4}}, // D1 deltas truncated
		{"bdi", []byte{32, 4, 1, 2, 3}},    // raw group truncated
		{"bdi", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
	}
	for _, c := range cases {
		codec, err := New(c.name, train)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codec.DecompressAppend(nil, c.bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecompressAppend(%v) err = %v, want ErrCorrupt", c.name, c.bad, err)
		}
	}
}

func TestDictIndexOutOfRange(t *testing.T) {
	d := trainDict(nil) // empty dictionary
	// Header says 4 bytes; tag says dict index; index 0 beyond empty dict.
	bad := []byte{4, 0x01, 0}
	if _, err := d.DecompressAppend(nil, bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestDictDeterministicTraining(t *testing.T) {
	train := trainImage(t, 2048)
	a := trainDict(train).(*dict)
	b := trainDict(train).(*dict)
	if len(a.words) != len(b.words) {
		t.Fatal("dict sizes differ across identical training runs")
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			t.Fatal("dict contents differ across identical training runs")
		}
	}
	if len(a.words) == 0 {
		t.Error("trained dictionary is empty")
	}
}

func TestHuffmanDeterministic(t *testing.T) {
	train := trainImage(t, 2048)
	in := trainImage(t, 100)
	a, _ := New("huffman", train)
	b, _ := New("huffman", train)
	ca, _ := a.CompressAppend(nil, in)
	cb, _ := b.CompressAppend(nil, in)
	if !bytes.Equal(ca, cb) {
		t.Error("huffman output differs across identical training runs")
	}
}

func TestHuffmanSkewedDistribution(t *testing.T) {
	// Extremely skewed training data exercises the code-length limiter.
	train := make([]byte, 1<<16)
	for i := range train {
		train[i] = 0 // all zeros: maximally skewed
	}
	h := trainHuffman(train)
	in := []byte{0, 0, 0, 1, 2, 255, 0, 0}
	comp, err := h.CompressAppend(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.DecompressAppend(nil, comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, in) {
		t.Error("skewed huffman round trip failed")
	}
}

func TestIdentityDoesNotAlias(t *testing.T) {
	c := identity{}
	in := []byte{1, 2, 3}
	comp, _ := c.CompressAppend(nil, in)
	comp[0] = 9
	if in[0] != 1 {
		t.Error("CompressAppend aliases its input")
	}
}

func TestLZSSFindsMatches(t *testing.T) {
	c := lzss{}
	in := bytes.Repeat([]byte("abcdefgh"), 100)
	comp, err := c.CompressAppend(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(in)/4 {
		t.Errorf("LZSS on repetitive input: %d -> %d", len(in), len(comp))
	}
}
