package compress

import (
	"fmt"
	"testing"

	"apbcc/internal/workloads"
)

// decodeBenchSizes are the instruction counts of the trainImage images
// the decode benchmarks run over: 2 KiB and 64 KiB of code, far larger
// than a basic block. The <codec>/suite rows of BenchmarkDecode measure
// the blocks that exist.
var decodeBenchSizes = []int{512, 16384}

// BenchmarkDecode is the decompress-only half of the tracked set, per
// codec: one DecompressAppend per op through a reused dst for each
// trainImage size, and for the suite row one DecompressAppend of every
// suite basic block per op (171 blocks, 14.6 words on average), each
// by the codec trained on its own program. MB/s is uncompressed output
// per second — the number that sits on the paper's instruction-fetch
// critical path.
func BenchmarkDecode(b *testing.B) {
	suite, err := workloads.Suite()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range allCodecs(b) {
		for _, size := range decodeBenchSizes {
			c, size := c, size
			b.Run(fmt.Sprintf("%s/%d", c.Name(), size), func(b *testing.B) {
				in := trainImage(b, size)
				comp, err := c.CompressAppend(nil, in)
				if err != nil {
					b.Fatal(err)
				}
				plain := make([]byte, 0, len(in))
				b.SetBytes(int64(len(in)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					plain, err = c.DecompressAppend(plain[:0], comp)
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(c.Name()+"/suite", func(b *testing.B) {
			var codecs []Codec
			var comps [][]byte
			total, largest := 0, 0
			for _, w := range suite {
				code, err := w.Program.CodeBytes()
				if err != nil {
					b.Fatal(err)
				}
				pc, err := New(c.Name(), code)
				if err != nil {
					b.Fatal(err)
				}
				for _, blk := range w.Program.Graph.Blocks() {
					img, err := w.Program.BlockBytes(blk.ID)
					if err != nil {
						b.Fatal(err)
					}
					comp, err := pc.CompressAppend(nil, img)
					if err != nil {
						b.Fatal(err)
					}
					codecs = append(codecs, pc)
					comps = append(comps, comp)
					total += len(img)
					largest = max(largest, len(img))
				}
			}
			plain := make([]byte, 0, largest)
			var err error
			b.SetBytes(int64(total))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, comp := range comps {
					plain, err = codecs[j].DecompressAppend(plain[:0], comp)
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDecodeRef runs the retired reference decoders on the same
// inputs, so every BENCH snapshot carries the table-driven speedup as
// a same-host ratio (BenchmarkDecode vs BenchmarkDecodeRef).
func BenchmarkDecodeRef(b *testing.B) {
	for _, c := range allCodecs(b) {
		for _, size := range decodeBenchSizes {
			c, size := c, size
			b.Run(fmt.Sprintf("%s/%d", c.Name(), size), func(b *testing.B) {
				in := trainImage(b, size)
				comp, err := c.CompressAppend(nil, in)
				if err != nil {
					b.Fatal(err)
				}
				plain := make([]byte, 0, len(in))
				b.SetBytes(int64(len(in)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					plain, err = refDecompressAppend(b, c, plain[:0], comp)
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
