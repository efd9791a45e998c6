package program_test

import (
	"testing"

	"apbcc/internal/program"
	"apbcc/internal/workloads"
)

// BenchmarkFromAssembly prices the first stage of POST /v1/pack:
// assemble, decode, build the CFG and attach labels, rotating over the
// generated programs the pack-write benchmark workload posts.
func BenchmarkFromAssembly(b *testing.B) {
	srcs := workloads.GeneratedAssembly(1, 256)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := program.FromAssembly("gen", srcs[i%len(srcs)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
