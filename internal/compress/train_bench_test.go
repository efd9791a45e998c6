package compress

import (
	"testing"

	"apbcc/internal/asm"
	"apbcc/internal/isa"
	"apbcc/internal/workloads"
)

// generatedImages assembles the n first generated programs the
// pack-write benchmark workload posts and returns their code images:
// the training corpora POST /v1/pack hands to New.
func generatedImages(tb testing.TB, n int) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, src := range workloads.GeneratedAssembly(1, n) {
		r, err := asm.Assemble(src)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, isa.WordsToBytes(r.Words))
	}
	return out
}

// BenchmarkTrain prices codec training (New on a whole program image)
// per codec, rotating over the generated programs' images: the second
// stage of POST /v1/pack.
func BenchmarkTrain(b *testing.B) {
	imgs := generatedImages(b, 256)
	for _, name := range []string{"dict", "bdi", "cpack", "lzss", "huffman"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if _, err := New(name, imgs[i%len(imgs)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}
