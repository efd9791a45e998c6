package pack

import (
	"testing"

	"apbcc/internal/compress"
	"apbcc/internal/program"
	"apbcc/internal/workloads"
)

// postCodecs are the codecs the pack-write benchmark workload rotates
// its POSTs over.
var postCodecs = []string{"dict", "bdi", "cpack", "lzss", "huffman"}

// generatedBuild is one generated program with a trained codec and its
// container, as POST /v1/pack builds them.
type generatedBuild struct {
	prog      *program.Program
	codec     compress.Codec
	container []byte
}

// generatedBuilds assembles the n first generated programs and packs
// each with codecName.
func generatedBuilds(tb testing.TB, codecName string, n int) []generatedBuild {
	tb.Helper()
	out := make([]generatedBuild, 0, n)
	for _, src := range workloads.GeneratedAssembly(1, n) {
		p, err := program.FromAssembly("gen", src)
		if err != nil {
			tb.Fatal(err)
		}
		code, err := p.CodeBytes()
		if err != nil {
			tb.Fatal(err)
		}
		codec, err := compress.New(codecName, code)
		if err != nil {
			tb.Fatal(err)
		}
		container, err := Pack(p, codec)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, generatedBuild{p, codec, container})
	}
	return out
}

// BenchmarkPackGenerated prices Pack per codec on the generated
// programs, rotating over them: the third stage of POST /v1/pack.
func BenchmarkPackGenerated(b *testing.B) {
	for _, name := range postCodecs {
		builds := generatedBuilds(b, name, 64)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				bl := builds[i%len(builds)]
				if _, err := Pack(bl.prog, bl.codec); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}

// BenchmarkVerifyGenerated prices the verification unpack of the
// generated containers, rotating over codecs and programs so no two
// consecutive containers share a metadata prefix: plain Unpack against
// an Unpacker that misses on every call, the path the server's
// verification takes after each distinct build.
func BenchmarkVerifyGenerated(b *testing.B) {
	var builds []generatedBuild
	for _, name := range postCodecs {
		builds = append(builds, generatedBuilds(b, name, 16)...)
	}
	// Interleave codecs: build k of codec c lands at k*len(postCodecs)+c.
	order := make([][]byte, 0, len(builds))
	for k := 0; k < 16; k++ {
		for c := range postCodecs {
			order = append(order, builds[c*16+k].container)
		}
	}
	b.Run("unpack", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if _, _, _, err := Unpack("gen", order[i%len(order)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.Run("unpacker-miss", func(b *testing.B) {
		u := NewUnpacker()
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if _, _, _, err := u.Unpack("gen", order[i%len(order)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
		if st := u.Stats(); st.Reused != 0 {
			b.Fatalf("%d reused unpacks, want every call to miss", st.Reused)
		}
	})
}
