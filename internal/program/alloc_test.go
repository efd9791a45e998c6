package program_test

import (
	"testing"

	"apbcc/internal/program"
	"apbcc/internal/workloads"
)

// TestFromAssemblyAllocBudget pins the allocation count of the front
// end of POST /v1/pack over the 256 generated programs the pack-write
// benchmark posts. The count does not grow with the program: the
// assembler allocates its result, words, instructions and label list
// presized, plus the symbol table (four allocations), and pools its
// fixup list; the CFG is one leader table, one block array, one name
// string, one edge array, which is also the successor store, the graph
// and its three flat tables (block pointers, one array of successor and
// predecessor lists, and the predecessor store, whose offsets are
// counted on the stack), and the Program itself. That is 17
// allocations, and the budget keeps one spare. A -race build drops
// sync.Pool entries at random, so the pin is skipped there.
func TestFromAssemblyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets count on warm sync.Pool entries, which -race drops")
	}
	const budget = 18
	for i, src := range workloads.GeneratedAssembly(1, 256) {
		if _, err := program.FromAssembly("gen", src); err != nil { // warm the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := program.FromAssembly("gen", src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("program %d: FromAssembly allocates %.0f times, budget %d", i, allocs, budget)
		}
	}
}
