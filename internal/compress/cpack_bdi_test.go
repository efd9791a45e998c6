package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"apbcc/internal/isa"
)

// TestCPackPatternSelection checks that handcrafted word streams land
// in the intended pattern classes and that the byte accounting sums to
// the compressed size.
func TestCPackPatternSelection(t *testing.T) {
	words := []uint32{
		0,          // ZZZZ
		0x12345678, // XXXX (cold dictionary), pushed
		0x12345678, // MMMM (full match)
		0x123456FF, // MMMX (upper-24-bit match), pushed
		0x1234ABCD, // MMXX (high halfword match), pushed
		0x0000007F, // ZZZX
		0,          // ZZZZ
	}
	in := isa.WordsToBytes(words)
	c := trainCPack(nil).(*cpack)
	stats, err := c.CountPatterns(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"ZZZZ": 2, "XXXX": 1, "MMMM": 1, "MMMX": 1, "MMXX": 1, "ZZZX": 1}
	for _, pc := range stats {
		if pc.Class == "tags" {
			continue
		}
		if pc.Words != want[pc.Class] {
			t.Errorf("class %s: %d words, want %d", pc.Class, pc.Words, want[pc.Class])
		}
	}
	comp, err := c.CompressAppend(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	hdr := binary.PutUvarint(make([]byte, binary.MaxVarintLen64), uint64(len(in)))
	if got := stats.TotalBytes() + hdr; got != len(comp) {
		t.Errorf("pattern bytes + header = %d, compressed = %d", got, len(comp))
	}
	if stats.TotalWords() != len(words) {
		t.Errorf("pattern words = %d, want %d", stats.TotalWords(), len(words))
	}
	if stats.String() == "-" {
		t.Error("non-empty stats rendered as empty")
	}
}

// TestBDIPatternSelection drives each group mode with a purpose-built
// group and checks both classification and round trip.
func TestBDIPatternSelection(t *testing.T) {
	var words []uint32
	words = append(words, make([]uint32, 8)...) // ZERO
	for i := 0; i < 8; i++ {                    // REP
		words = append(words, 0xDEADBEEF)
	}
	for i := 0; i < 8; i++ { // D1: base + tiny offsets
		words = append(words, 0x1000_0000+uint32(i*3))
	}
	for i := 0; i < 8; i++ { // D2: base + halfword offsets
		words = append(words, 0x2000_0000+uint32(i*1000))
	}
	for i := 0; i < 8; i++ { // RAW: unrelated words
		words = append(words, uint32(i)*0x0100_0001+0x7000_0000)
	}
	in := isa.WordsToBytes(words)
	c := bdi{}
	stats, err := c.CountPatterns(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, wantClass := range []string{"ZERO", "REP", "D1", "D2", "RAW"} {
		found := false
		for _, pc := range stats {
			if pc.Class == wantClass && pc.Words == 8 {
				found = true
			}
		}
		if !found {
			t.Errorf("expected one 8-word %s group, stats: %v", wantClass, stats)
		}
	}
	comp, err := c.CompressAppend(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecompressAppend(nil, comp)
	if err != nil || !bytes.Equal(got, in) {
		t.Fatalf("round trip failed: %v", err)
	}
	hdr := binary.PutUvarint(make([]byte, binary.MaxVarintLen64), uint64(len(in)))
	// ZERO(1) + REP(5) + D1(13) + D2(21) + RAW(33) + header
	if want := 1 + 5 + 13 + 21 + 33 + hdr; len(comp) != want {
		t.Errorf("compressed size = %d, want %d", len(comp), want)
	}
}

// TestBDICompressesDataPatterns: bdi must excel exactly where the BDI
// literature says — zero pages, uniform fills, and clustered values —
// even though instruction streams are not its home turf.
func TestBDICompressesDataPatterns(t *testing.T) {
	c := bdi{}
	cases := []struct {
		name  string
		in    []byte
		under float64 // required ratio bound
	}{
		{"zeros", make([]byte, 4096), 0.05},
		{"uniform", bytes.Repeat([]byte{0xAB, 0xCD, 0xEF, 0x01}, 1024), 0.20},
		{"counter", func() []byte {
			words := make([]uint32, 1024)
			for i := range words {
				words[i] = 0x4000_0000 + uint32(i) // ±int16 within any group
			}
			return isa.WordsToBytes(words)
		}(), 0.45},
	}
	for _, tc := range cases {
		comp, err := c.CompressAppend(nil, tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if r := Ratio(len(tc.in), len(comp)); r > tc.under {
			t.Errorf("%s: ratio %.3f, want <= %.3f", tc.name, r, tc.under)
		}
	}
}

// TestCPackMovingDictionaryRoundTrip stresses the FIFO dictionary with
// word streams engineered to wrap it repeatedly: compressor and
// decompressor must stay in lockstep through evictions.
func TestCPackMovingDictionaryRoundTrip(t *testing.T) {
	c := trainCPack(nil)
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(600)
		words := make([]uint32, n)
		for i := range words {
			switch r.Intn(4) {
			case 0: // revisit an old word: dictionary hit iff still resident
				if i > 0 {
					words[i] = words[r.Intn(i)]
				}
			case 1: // shared high halfword, varying low: MMXX bait
				words[i] = 0xCAFE_0000 | uint32(r.Intn(1<<16))
			default: // fresh word, churns the FIFO
				words[i] = r.Uint32() | 0x100 // keep it out of ZZZX range
			}
		}
		in := isa.WordsToBytes(words)
		// Non-word tails exercise the raw-tail path.
		in = in[:len(in)-r.Intn(4)]
		comp, err := c.CompressAppend(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.DecompressAppend(nil, comp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, in) {
			t.Fatalf("trial %d: round trip mismatch (%d words)", trial, n)
		}
	}
}

// TestCPackBeatsRLEOnCode checks that an untrained cpack compresses the
// synthetic training image at all: its ratio must beat identity's 1
// (the kernel-suite version lives in internal/kernels).
func TestCPackBeatsRLEOnCode(t *testing.T) {
	img := trainImage(t, 4096)
	cp, _ := New("cpack", nil)
	comp, err := cp.CompressAppend(nil, img)
	if err != nil {
		t.Fatal(err)
	}
	cr := Ratio(len(img), len(comp))
	t.Logf("cpack ratio=%.3f", cr)
	if cr >= 1 {
		t.Errorf("cpack ratio %.3f not better than identity on code image", cr)
	}
}

// TestArbiterPicksCheapest: with no decode weight the arbiter must pick
// the smallest encoding; with a huge weight it must pick the cheapest
// decoder regardless of size.
func TestArbiterPicksCheapest(t *testing.T) {
	img := trainImage(t, 1024)
	codecs := allCodecs(t)
	a := &Arbiter{Codecs: codecs}
	choice, scratch, err := a.Choose(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range codecs {
		comp, err := c.CompressAppend(nil, img)
		if err != nil {
			t.Fatal(err)
		}
		if len(comp) < choice.CompressedLen {
			t.Errorf("arbiter chose %s (%d B) but %s is smaller (%d B)",
				codecs[choice.Index].Name(), choice.CompressedLen, codecs[i].Name(), len(comp))
		}
	}
	// Decode cycles dominate: identity (zero cost model) must win.
	a.DecodeWeight = 1e9
	choice, _, err = a.Choose(img, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if got := codecs[choice.Index].Name(); got != "identity" {
		t.Errorf("decode-dominated arbitration chose %s, want identity", got)
	}
	if _, _, err := (&Arbiter{}).Choose(img, nil); err == nil {
		t.Error("empty arbiter did not error")
	}
}

// TestPatternStatsString pins the rendering format the E3 table embeds.
func TestPatternStatsString(t *testing.T) {
	var s PatternStats
	if s.String() != "-" {
		t.Errorf("empty stats = %q", s.String())
	}
	s = s.add("AAAA", 75, 10)
	s = s.add("BBBB", 25, 30)
	s = s.add("CCCC", 0, 0)
	if got, want := s.String(), "AAAA:75%w/25%B BBBB:25%w/75%B"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestCPackSeededModelRoundTrip: training must be deterministic, the
// serialized model must rebuild a behaviorally identical codec, and a
// seeded compressor's output must be rejected-or-decoded identically by
// a model-rebuilt decompressor.
func TestCPackSeededModelRoundTrip(t *testing.T) {
	train := trainImage(t, 2048)
	a := trainCPack(train).(*cpack)
	b := trainCPack(train).(*cpack)
	if a.seedN != b.seedN || a.seed != b.seed {
		t.Fatal("cpack training is not deterministic")
	}
	if a.seedN == 0 {
		t.Fatal("training on a redundant image seeded nothing")
	}
	rebuilt, err := FromModel("cpack", a.MarshalModel())
	if err != nil {
		t.Fatal(err)
	}
	if rb := rebuilt.(*cpack); rb.seedN != a.seedN || rb.seed != a.seed {
		t.Fatal("model round trip changed the seed dictionary")
	}
	img := trainImage(t, 777)
	comp, err := a.CompressAppend(nil, img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rebuilt.DecompressAppend(nil, comp)
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("seeded round trip through model failed: %v", err)
	}
	// A cold codec must NOT decode a seeded stream correctly in general,
	// proving the seed actually participates (MMMM hits resolve through
	// it). This is a sanity check on the test itself more than the codec.
	cold := trainCPack(nil)
	if coldGot, err := cold.DecompressAppend(nil, comp); err == nil && bytes.Equal(coldGot, img) {
		t.Log("cold decode of seeded stream matched (image used no seeded hits)")
	}
	// Hostile models must be rejected.
	for _, bad := range [][]byte{{}, {17}, {2, 1, 2, 3}} {
		if _, err := FromModel("cpack", bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("FromModel(%v) err = %v, want ErrCorrupt", bad, err)
		}
	}
}

// TestNewCodecCorruptTagsNeverDecode: every single-byte mutation of a
// valid stream must either decode to *something* or fail with
// ErrCorrupt — never panic — and fast/ref must agree throughout.
func TestNewCodecCorruptTagsNeverDecode(t *testing.T) {
	img := trainImage(t, 256)
	for _, name := range []string{"cpack", "bdi"} {
		c, err := New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := c.CompressAppend(nil, img)
		if err != nil {
			t.Fatal(err)
		}
		for i := range comp {
			mut := append([]byte(nil), comp...)
			mut[i] ^= 0xFF
			if _, err := c.DecompressAppend(nil, mut); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: mutation at %d: err = %v, want nil or ErrCorrupt", name, i, err)
			}
			checkDecodeEquivalence(t, c, mut, nil)
		}
	}
}
