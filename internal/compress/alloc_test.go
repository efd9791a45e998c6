package compress

import (
	"bytes"
	"testing"
)

// TestAppendPathsAllocFree asserts the tentpole property of the append
// API: with a pre-sized dst, steady-state compression and decompression
// allocate (almost) nothing per operation. The budget of 1 alloc/op
// absorbs rare sync.Pool refills after a GC.
func TestAppendPathsAllocFree(t *testing.T) {
	in := trainImage(t, 512)
	for _, c := range allCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			comp := make([]byte, 0, c.MaxCompressedLen(len(in)))
			plain := make([]byte, 0, len(in))
			var err error
			// Warm pools and verify the round trip once before counting.
			if comp, err = c.CompressAppend(comp[:0], in); err != nil {
				t.Fatal(err)
			}
			if plain, err = c.DecompressAppend(plain[:0], comp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plain, in) {
				t.Fatal("round trip mismatch")
			}

			if allocs := testing.AllocsPerRun(200, func() {
				comp, err = c.CompressAppend(comp[:0], in)
				if err != nil {
					t.Fatal(err)
				}
			}); allocs > 1 {
				t.Errorf("CompressAppend allocs/op = %.1f, want <= 1", allocs)
			}
			if allocs := testing.AllocsPerRun(200, func() {
				plain, err = c.DecompressAppend(plain[:0], comp)
				if err != nil {
					t.Fatal(err)
				}
			}); allocs > 1 {
				t.Errorf("DecompressAppend allocs/op = %.1f, want <= 1", allocs)
			}
		})
	}
}

// TestDecompressAppendZeroAlloc pins the decode fast path at exactly
// zero allocations per op: decode tables are built once at codec
// construction (no per-call warm-up state, unlike the compressors'
// pooled matchers), so with a pre-sized dst a steady-state decode must
// never touch the allocator.
func TestDecompressAppendZeroAlloc(t *testing.T) {
	in := trainImage(t, 2048)
	for _, c := range allCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			comp, err := c.CompressAppend(nil, in)
			if err != nil {
				t.Fatal(err)
			}
			plain := make([]byte, 0, len(in))
			if allocs := testing.AllocsPerRun(200, func() {
				plain, err = c.DecompressAppend(plain[:0], comp)
				if err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("DecompressAppend allocs/op = %.1f, want 0", allocs)
			}
		})
	}
}

// TestMaxCompressedLenBounds verifies that CompressAppend never appends
// more than MaxCompressedLen promises, across adversarial shapes
// (incompressible randomish data, runs of one byte, word-aligned and
// ragged sizes).
func TestMaxCompressedLenBounds(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0xA5},
		bytes.Repeat([]byte{0xA5}, 100),
		trainImage(t, 301),
	}
	// Adversarial: every byte distinct mod 256, no runs, no matches.
	hostile := make([]byte, 997)
	for i := range hostile {
		hostile[i] = byte(i*37 + i/256)
	}
	inputs = append(inputs, hostile)
	for _, c := range allCodecs(t) {
		for i, in := range inputs {
			comp, err := c.CompressAppend(nil, in)
			if err != nil {
				t.Fatalf("%s input %d: %v", c.Name(), i, err)
			}
			if max := c.MaxCompressedLen(len(in)); len(comp) > max {
				t.Errorf("%s input %d: compressed %d bytes > MaxCompressedLen(%d) = %d",
					c.Name(), i, len(comp), len(in), max)
			}
		}
	}
}

// BenchmarkAppendRoundTrip is the codec-level entry of the tracked
// benchmark set (run with -benchmem in CI): one compress + decompress
// of a realistic block image through reused buffers.
func BenchmarkAppendRoundTrip(b *testing.B) {
	in := trainImage(b, 512)
	for _, c := range allCodecs(b) {
		c := c
		b.Run(c.Name(), func(b *testing.B) {
			comp := make([]byte, 0, c.MaxCompressedLen(len(in)))
			plain := make([]byte, 0, len(in))
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				comp, err = c.CompressAppend(comp[:0], in)
				if err != nil {
					b.Fatal(err)
				}
				plain, err = c.DecompressAppend(plain[:0], comp)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocRoundTrip is the pre-refactor shape (fresh slices per
// call) kept as the comparison baseline for the append path above.
func BenchmarkAllocRoundTrip(b *testing.B) {
	in := trainImage(b, 512)
	for _, c := range allCodecs(b) {
		c := c
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				comp, err := c.CompressAppend(nil, in)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.DecompressAppend(nil, comp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
