package asm_test

import (
	"fmt"
	"slices"
	"testing"

	"apbcc/internal/asm"
	"apbcc/internal/kernels"
	"apbcc/internal/program"
	"apbcc/internal/workloads"
)

// checkFromAssemblyEquivalence requires program.FromAssembly and the
// reference front end to agree on src: the same instructions, blocks
// with their ranges and labels, entry, and edges with kind and
// probability, or an error from both. Sources on which the two
// assemblers differ on purpose are skipped.
func checkFromAssemblyEquivalence(t *testing.T, src string) {
	t.Helper()
	got, err := program.FromAssembly("p", src)
	if !asm.ReferenceAgrees(src) {
		return
	}
	want, refErr := refFromAssembly("p", src)
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf("FromAssembly err = %v, reference err = %v\nsource %q", err, refErr, src)
	case err == nil:
		if d := programDiff(got, want); d != "" {
			t.Fatalf("%s\nsource %q", d, src)
		}
	}
}

// programDiff describes the first difference between p and q, or
// returns "".
func programDiff(p, q *program.Program) string {
	switch {
	case p.Name != q.Name:
		return fmt.Sprintf("name %q, reference %q", p.Name, q.Name)
	case !slices.Equal(p.Ins, q.Ins):
		return "instructions differ from the reference"
	case p.Graph.Entry() != q.Graph.Entry():
		return fmt.Sprintf("entry %d, reference %d", p.Graph.Entry(), q.Graph.Entry())
	case p.Graph.NumBlocks() != q.Graph.NumBlocks():
		return fmt.Sprintf("%d blocks, reference %d", p.Graph.NumBlocks(), q.Graph.NumBlocks())
	}
	for _, b := range p.Graph.Blocks() {
		if rb := q.Graph.Block(b.ID); *b != *rb {
			return fmt.Sprintf("block %+v, reference %+v", *b, *rb)
		}
		if s, rs := p.Graph.Succs(b.ID), q.Graph.Succs(b.ID); !slices.Equal(s, rs) {
			return fmt.Sprintf("block %d out-edges %v, reference %v", b.ID, s, rs)
		}
		if s, rs := p.Graph.Preds(b.ID), q.Graph.Preds(b.ID); !slices.Equal(s, rs) {
			return fmt.Sprintf("block %d in-edges %v, reference %v", b.ID, s, rs)
		}
	}
	return ""
}

// frontEndSources are the deterministic inputs of the front-end
// equivalence check: the assembler's own set, the 256 generated
// programs POST /v1/pack benchmarks send, and the kernel sources.
func frontEndSources() []string {
	srcs := slices.Clone(asm.EquivSources)
	srcs = append(srcs, workloads.GeneratedAssembly(1, 256)...)
	for _, k := range kernels.All() {
		srcs = append(srcs, k.Source)
	}
	return srcs
}

// TestFromAssemblyEquivalenceGolden runs the front-end check on the
// deterministic inputs in plain `go test` runs, not only under fuzzing.
func TestFromAssemblyEquivalenceGolden(t *testing.T) {
	for _, src := range frontEndSources() {
		checkFromAssemblyEquivalence(t, src)
	}
}

// FuzzFromAssemblyEquivalence is the differential fuzzer of the front
// end of POST /v1/pack: outside the assembler's intended differences,
// program.FromAssembly must build the reference's Program.
func FuzzFromAssemblyEquivalence(f *testing.F) {
	for _, src := range frontEndSources() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkFromAssemblyEquivalence(t, src)
	})
}
