package asm_test

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"apbcc/internal/asm"
	"apbcc/internal/workloads"
)

// TestGeneratedMatchReference runs every generated program through the
// reference equivalence check.
func TestGeneratedMatchReference(t *testing.T) {
	for _, src := range workloads.GeneratedAssembly(1, 256) {
		asm.CheckAssembleEquivalence(t, src)
	}
}

// TestAssembleConcurrent: goroutines assembling at once share the
// pooled fixup lists, and each still gets exactly the sequential
// result.
func TestAssembleConcurrent(t *testing.T) {
	srcs := workloads.GeneratedAssembly(2, 32)
	want := make([]*asm.Result, len(srcs))
	for i, src := range srcs {
		r, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range 3 * len(srcs) {
				i := (k + g) % len(srcs)
				got, err := asm.Assemble(srcs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got.Words, want[i].Words) || !maps.Equal(got.Symbols, want[i].Symbols) {
					t.Errorf("goroutine %d: program %d assembled differently", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkAssemble is the assembler's entry in the tracked build-path
// set: one Assemble per op, rotating over the 256 generated programs a
// POST /v1/pack benchmark run sends.
func BenchmarkAssemble(b *testing.B) {
	srcs := workloads.GeneratedAssembly(1, 256)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := asm.Assemble(srcs[i%len(srcs)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
