package workloads

import (
	"errors"
	"slices"
	"testing"

	"apbcc/internal/trace"
)

func TestSuiteBuilds(t *testing.T) {
	all, err := Suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 11 {
		t.Fatalf("suite size = %d, want 11", len(all))
	}
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		if w.Desc == "" {
			t.Errorf("%s: empty description", w.Name)
		}
		if err := w.Program.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.Program.TotalBytes() < 100 {
			t.Errorf("%s: implausibly small program (%d bytes)", w.Name, w.Program.TotalBytes())
		}
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a, err := Suite()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Suite()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		ai, bi := a[i].Program.Ins, b[i].Program.Ins
		if len(ai) != len(bi) {
			t.Fatalf("%s: image size differs", a[i].Name)
		}
		for j := range ai {
			if ai[j] != bi[j] {
				t.Fatalf("%s: instruction %d differs between builds", a[i].Name, j)
			}
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "crc32" {
		t.Error("wrong workload")
	}
	if _, err := ByName("quake3"); !errors.Is(err, ErrUnknown) {
		t.Errorf("ByName(quake3) = %v, want ErrUnknown", err)
	}
	if err := Check("quake3"); !errors.Is(err, ErrUnknown) {
		t.Errorf("Check(quake3) = %v, want ErrUnknown", err)
	}
	if err := Check("crc32"); err != nil {
		t.Errorf("Check(crc32) = %v", err)
	}
}

// TestByNameMatchesSuite pins ByName's one-program build to the suite:
// the same seeds give the same program, CFG and trace settings, and it
// costs a fraction of the suite's allocations, so a revert to building
// every program fails here.
func TestByNameMatchesSuite(t *testing.T) {
	all, err := Suite()
	if err != nil {
		t.Fatal(err)
	}
	suiteAllocs := testing.AllocsPerRun(3, func() {
		if _, err := Suite(); err != nil {
			t.Fatal(err)
		}
	})
	for _, want := range all {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || got.Desc != want.Desc || got.TraceSteps != want.TraceSteps || got.Seed != want.Seed {
			t.Errorf("%s: ByName = {%q %q %d %d}, Suite = {%q %q %d %d}", want.Name,
				got.Name, got.Desc, got.TraceSteps, got.Seed, want.Name, want.Desc, want.TraceSteps, want.Seed)
		}
		if !slices.Equal(got.Program.Ins, want.Program.Ins) {
			t.Errorf("%s: instruction image differs from Suite's", want.Name)
		}
		gg, wg := got.Program.Graph, want.Program.Graph
		if gg.Entry() != wg.Entry() || gg.NumBlocks() != wg.NumBlocks() {
			t.Fatalf("%s: entry %d of %d blocks, Suite has %d of %d", want.Name,
				gg.Entry(), gg.NumBlocks(), wg.Entry(), wg.NumBlocks())
		}
		for i, wb := range wg.Blocks() {
			gb := gg.Blocks()[i]
			if gb.Label != wb.Label || gb.Func != wb.Func || gb.Start != wb.Start || gb.End != wb.End {
				t.Errorf("%s: block %d = %+v, Suite has %+v", want.Name, i, *gb, *wb)
			}
			if !slices.Equal(gg.Succs(gb.ID), wg.Succs(wb.ID)) {
				t.Errorf("%s: block %d edges %v, Suite has %v", want.Name, i, gg.Succs(gb.ID), wg.Succs(wb.ID))
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ByName(want.Name); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= suiteAllocs/4 {
			t.Errorf("%s: ByName made %.0f allocations, Suite %.0f: want under a quarter", want.Name, allocs, suiteAllocs)
		}
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("names not sorted")
		}
	}
}

func TestTracesAreValidAndLong(t *testing.T) {
	all, err := Suite()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range all {
		tr, err := w.Trace()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := tr.Validate(w.Program.Graph); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		// The canonical trace should be substantial: either it hit the
		// cap or ran at least a few hundred blocks before the program
		// exited.
		if tr.Len() < 500 {
			t.Errorf("%s: canonical trace only %d blocks", w.Name, tr.Len())
		}
	}
}

func TestAccessPatternClasses(t *testing.T) {
	// Spot-check that the suite actually exhibits the patterns its
	// documentation claims.
	t.Run("crc32-reuse", func(t *testing.T) {
		w, err := ByName("crc32")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.Trace()
		if err != nil {
			t.Fatal(err)
		}
		p := trace.NewProfile(w.Program.Graph.NumBlocks())
		p.AddTrace(tr)
		loop, _ := w.Program.Graph.BlockByLabel("crc_loop")
		if loop == nil {
			loop2, ok := w.Program.Graph.BlockByLabel("loop")
			if !ok {
				t.Fatal("no loop block")
			}
			loop = loop2
		}
		if frac := float64(p.VisitCount(loop.ID)) / float64(tr.Len()); frac < 0.9 {
			t.Errorf("crc loop visit fraction = %.2f, want > 0.9", frac)
		}
	})
	t.Run("jpegdct-phases", func(t *testing.T) {
		w, err := ByName("jpegdct")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.Trace()
		if err != nil {
			t.Fatal(err)
		}
		// Within one kernel invocation, once the column pass starts the
		// row pass must never recur (the trace restarts at the entry
		// when the kernel finishes, which resets the phase machine).
		rows, _ := w.Program.Graph.BlockByLabel("row_pass")
		cols, _ := w.Program.Graph.BlockByLabel("col_pass")
		entry := w.Program.Graph.Entry()
		seenCols := false
		for i, b := range tr.Blocks {
			if i > 0 && b == entry {
				seenCols = false // new invocation
			}
			if b == cols.ID {
				seenCols = true
			}
			if seenCols && b == rows.ID {
				t.Fatalf("step %d: row pass revisited after column pass began", i)
			}
		}
		if !seenCols {
			t.Skip("trace ended before phase 2; lengthen TraceSteps")
		}
	})
	t.Run("mpeg2-cold-arms", func(t *testing.T) {
		w, err := ByName("mpeg2motion")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.Trace()
		if err != nil {
			t.Fatal(err)
		}
		p := trace.NewProfile(w.Program.Graph.NumBlocks())
		p.AddTrace(tr)
		hot, _ := w.Program.Graph.BlockByLabel("mode_fwd")
		cold, _ := w.Program.Graph.BlockByLabel("mode_field")
		if p.VisitCount(hot.ID) <= 5*p.VisitCount(cold.ID) {
			t.Errorf("hot arm (%d visits) not clearly hotter than cold arm (%d visits)",
				p.VisitCount(hot.ID), p.VisitCount(cold.ID))
		}
	})
	t.Run("function-labels-present", func(t *testing.T) {
		all, err := Suite()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range all {
			funcs := map[string]int{}
			for _, b := range w.Program.Graph.Blocks() {
				if b.Func == "" {
					t.Errorf("%s: block %s has no function label", w.Name, b)
				}
				funcs[b.Func]++
			}
			if len(funcs) < 3 {
				t.Errorf("%s: only %d functions; granularity ablation needs >= 3", w.Name, len(funcs))
			}
		}
	})
}

// BenchmarkByName is the cold-start cost of one entry build's program
// against the whole suite that ByName used to synthesize to return it.
func BenchmarkByName(b *testing.B) {
	b.Run("one", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ByName("fft"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("suite", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Suite(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
