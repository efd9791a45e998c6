package pack

import (
	"bytes"
	"fmt"
	"testing"

	"apbcc/internal/compress"
	"apbcc/internal/workloads"
)

// TestPackParallelDeterministic asserts the contract behind the
// -parallel flag: serial and parallel builds produce byte-identical
// containers, for every codec and several worker counts (including
// more workers than blocks).
func TestPackParallelDeterministic(t *testing.T) {
	w, err := workloads.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	code, err := w.Program.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, codecName := range compress.Names() {
		codecName := codecName
		t.Run(codecName, func(t *testing.T) {
			codec, err := compress.New(codecName, code)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := Pack(w.Program, codec)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 2, 3, 8, 10000} {
				par, err := PackParallel(w.Program, codec, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !bytes.Equal(serial, par) {
					t.Fatalf("workers=%d: container differs from serial build (%d vs %d bytes)",
						workers, len(par), len(serial))
				}
			}
			// The parallel build must also survive full verification.
			if _, _, _, err := Unpack("fft", serial); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPackBuildAllocBudget pins the serial build's allocation count so
// the build path cannot silently regress. The budget does not grow with
// the block count: the whole code image is a pooled buffer every block
// image is a window of, and all payloads share one arena. What remains
// is Validate's two BranchSites tables, the payload and CRC tables, the
// arena, the model marshal, the two group-directory tables, the
// container itself and the pool's own bookkeeping: at most 10
// allocations, with one spare. A -race build drops sync.Pool entries at
// random, so the pin is skipped there.
func TestPackBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets count on warm sync.Pool entries, which -race drops")
	}
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
		if _, err := Pack(w.Program, codec); err != nil { // warm the pools
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Pack(w.Program, codec); err != nil {
				t.Fatal(err)
			}
		})
		const budget = 11
		if allocs > budget {
			t.Errorf("%s: Pack allocates %.0f times, budget %d (blocks=%d)",
				codecName, allocs, budget, w.Program.Graph.NumBlocks())
		}
	}
}

// BenchmarkPackBuild is the pack-level entry of the tracked benchmark
// set (run with -benchmem in CI): container builds at 1 worker and at
// GOMAXPROCS, so the artifact records the parallel speedup alongside
// allocation counts.
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
		for _, workers := range []int{1, 0} {
			name := fmt.Sprintf("%s/serial", codecName)
			if workers != 1 {
				name = fmt.Sprintf("%s/gomaxprocs", codecName)
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(w.Program.TotalBytes()))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := PackParallel(w.Program, codec, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
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
