package pack

import (
	"testing"

	"apbcc/internal/compress"
	"apbcc/internal/program"
	"apbcc/internal/workloads"
)

// TestPackBuildAllocBudget pins the build's allocation count so the
// build path cannot silently regress. The budget does not grow with the
// block count: the whole code image is one buffer every block image is
// a window of, all payloads share one arena, and the index and the
// payloads are written into the container at its exact size. Validate
// allocates nothing on a valid program. What remains is the image, the
// payload and CRC tables, the arena, the model marshal, the two
// group-directory tables and the container: at most 8 allocations,
// with one spare.
func TestPackBuildAllocBudget(t *testing.T) {
	w, err := workloads.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	code, err := w.Program.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, codecName := range []string{"dict", "cpack", "bdi"} {
		codec, err := compress.New(codecName, code)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Pack(w.Program, codec); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Pack(w.Program, codec); err != nil {
				t.Fatal(err)
			}
		})
		const budget = 9
		if allocs > budget {
			t.Errorf("%s: Pack allocates %.0f times, budget %d (blocks=%d)",
				codecName, allocs, budget, w.Program.Graph.NumBlocks())
		}
	}
}

// BenchmarkPackBuild is the pack-level entry of the tracked benchmark
// set (run with -benchmem in CI): one container build per codec, with
// allocation counts. The cases keep the <codec>/serial names of earlier
// artifacts so the series stays comparable.
func BenchmarkPackBuild(b *testing.B) {
	w, err := workloads.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	code, err := w.Program.CodeBytes()
	if err != nil {
		b.Fatal(err)
	}
	for _, codecName := range []string{"dict", "lzss", "cpack", "bdi"} {
		codec, err := compress.New(codecName, code)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(codecName+"/serial", func(b *testing.B) {
			b.SetBytes(int64(w.Program.TotalBytes()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Pack(w.Program, codec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUnpack times full container verification (decompress-into-
// image plus CRC and CFG reconstruction) on the append path.
func BenchmarkUnpack(b *testing.B) {
	w, err := workloads.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	code, err := w.Program.CodeBytes()
	if err != nil {
		b.Fatal(err)
	}
	codec, err := compress.New("dict", code)
	if err != nil {
		b.Fatal(err)
	}
	data, err := Pack(w.Program, codec)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(w.Program.TotalBytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Unpack("fft", data); err != nil {
			b.Fatal(err)
		}
	}
}

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
// generated containers: the full Unpack the server runs after each
// build. The unpack row rotates over codecs and programs and is the
// series earlier artifacts carry; each unpack/<codec> row rotates over
// one codec's programs.
func BenchmarkVerifyGenerated(b *testing.B) {
	var builds []generatedBuild
	for _, name := range postCodecs {
		builds = append(builds, generatedBuilds(b, name, 16)...)
	}
	unpackAll := func(containers [][]byte) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if _, _, _, err := Unpack("gen", containers[i%len(containers)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		}
	}
	// Interleave codecs: build k of codec c lands at k*len(postCodecs)+c.
	order := make([][]byte, 0, len(builds))
	for k := 0; k < 16; k++ {
		for c := range postCodecs {
			order = append(order, builds[c*16+k].container)
		}
	}
	// One untimed pass first: the unpack row is the first row the process
	// times, and without it its rounds split between a cold and a warm
	// mode.
	for _, c := range order {
		if _, _, _, err := Unpack("gen", c); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("unpack", unpackAll(order))
	for c, name := range postCodecs {
		containers := make([][]byte, 16)
		for k := range containers {
			containers[k] = builds[c*16+k].container
		}
		b.Run("unpack/"+name, unpackAll(containers))
	}
}
