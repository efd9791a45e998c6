package sim

import (
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/core"
	"apbcc/internal/program"
	"apbcc/internal/trace"
	"apbcc/internal/workloads"
)

// runWorkload simulates one workload under one configuration.
func runWorkload(t testing.TB, name string, tweak func(*core.Config)) *Result {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	code, err := w.Program.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := compress.New("dict", code)
	if err != nil {
		t.Fatal(err)
	}
	conf := core.Config{Codec: codec, CompressK: 4, Strategy: core.OnDemand}
	if tweak != nil {
		tweak(&conf)
	}
	m, err := core.NewManager(w.Program, conf)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, tr, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBasicAccounting(t *testing.T) {
	res := runWorkload(t, "crc32", nil)
	if res.Cycles <= res.BaseCycles {
		t.Error("compressed run not slower than baseline")
	}
	if res.Overhead() <= 0 {
		t.Error("overhead should be positive")
	}
	if res.PeakResident < res.CompressedSize {
		t.Errorf("peak %d below compressed size %d", res.PeakResident, res.CompressedSize)
	}
	if res.PeakResident > res.UncompressedSize+res.CompressedSize {
		t.Errorf("peak %d above comp+uncomp bound", res.PeakResident)
	}
	if res.AvgResident <= 0 || res.AvgResident > float64(res.PeakResident) {
		t.Errorf("avg resident %v out of range", res.AvgResident)
	}
	if res.Core.Entries == 0 || res.HitRate() <= 0 {
		t.Error("no entries or zero hit rate on a hot loop")
	}
	if res.Cycles != res.BaseCycles+res.StallCycles+res.ExceptionOverhead+
		res.PatchOverhead+res.EvictOverhead {
		t.Error("cycle components do not sum to the total")
	}
}

func TestRunEmptyTrace(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	code, _ := w.Program.CodeBytes()
	codec, _ := compress.New("dict", code)
	m, err := core.NewManager(w.Program, core.Config{Codec: codec, CompressK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, &trace.Trace{}, DefaultCosts()); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestSmallKSavesMemoryCostsTime verifies the paper's central tradeoff
// (Section 3): smaller compress-k means lower resident memory and higher
// execution overhead.
func TestSmallKSavesMemoryCostsTime(t *testing.T) {
	k1 := runWorkload(t, "dijkstra", func(c *core.Config) { c.CompressK = 1 })
	k16 := runWorkload(t, "dijkstra", func(c *core.Config) { c.CompressK = 16 })
	if k1.AvgResident >= k16.AvgResident {
		t.Errorf("k=1 avg resident %.0f >= k=16 %.0f", k1.AvgResident, k16.AvgResident)
	}
	if k1.Cycles <= k16.Cycles {
		t.Errorf("k=1 cycles %d <= k=16 cycles %d", k1.Cycles, k16.Cycles)
	}
}

// TestPreAllReducesStalls verifies the Section 4 claim: pre-
// decompression hides decompression latency that on-demand pays on the
// critical path.
func TestPreAllReducesStalls(t *testing.T) {
	for _, name := range []string{"sha", "jpegdct", "mpeg2motion"} {
		od := runWorkload(t, name, nil)
		pa := runWorkload(t, name, func(c *core.Config) {
			c.Strategy = core.PreAll
			c.DecompressK = 3
		})
		if pa.DemandStallCycles >= od.DemandStallCycles {
			t.Errorf("%s: pre-all demand stalls %d >= on-demand %d",
				name, pa.DemandStallCycles, od.DemandStallCycles)
		}
		if pa.Cycles >= od.Cycles {
			t.Errorf("%s: pre-all total %d >= on-demand %d", name, pa.Cycles, od.Cycles)
		}
	}
}

// TestPreAllCostsMemoryVsPreSingle verifies the other side of the
// Figure 3 design space: pre-all favors performance over memory,
// pre-single the reverse.
func TestPreAllCostsMemoryVsPreSingle(t *testing.T) {
	w, err := workloads.ByName("mpeg2motion")
	if err != nil {
		t.Fatal(err)
	}
	// A small compress-k keeps the cold mode arms churning, which is
	// where covering all candidates (pre-all) and covering one
	// (pre-single) actually diverge; in steady state with no churn the
	// two converge on the same resident set.
	pa := runWorkload(t, "mpeg2motion", func(c *core.Config) {
		c.Strategy = core.PreAll
		c.DecompressK = 2
		c.CompressK = 2
	})
	ps := runWorkload(t, "mpeg2motion", func(c *core.Config) {
		c.Strategy = core.PreSingle
		c.DecompressK = 2
		c.CompressK = 2
		c.Predictor = trace.NewStatic(w.Program.Graph)
	})
	if pa.AvgResident <= ps.AvgResident {
		t.Errorf("pre-all avg resident %.0f <= pre-single %.0f", pa.AvgResident, ps.AvgResident)
	}
	// Covering every candidate must miss less than covering one.
	if pa.Core.DemandDecompresses >= ps.Core.DemandDecompresses {
		t.Errorf("pre-all demand misses %d >= pre-single %d",
			pa.Core.DemandDecompresses, ps.Core.DemandDecompresses)
	}
}

// TestFigure4ThreadCooperation verifies the thread choreography of
// Figure 4: the decompression thread leads execution (most entries find
// their block ready) and the compression thread trails it (deletes
// happen, background busy time accrues, and the scheme still beats
// on-demand).
func TestFigure4ThreadCooperation(t *testing.T) {
	res := runWorkload(t, "sha", func(c *core.Config) {
		c.Strategy = core.PreAll
		c.DecompressK = 2
		c.CompressK = 12
	})
	if res.DecompThreadBusy == 0 {
		t.Error("decompression thread never worked")
	}
	if res.CompThreadBusy == 0 {
		t.Error("compression thread never worked")
	}
	if res.Core.Deletes == 0 {
		t.Error("compression thread never deleted (k=12 within footprint)")
	}
	// "In the ideal case, the decompression thread traverses the path
	// before the execution thread ... so that the execution thread finds
	// them directly in the executable state": demand full-cost stalls
	// should be rare relative to entries once the pipeline warms up.
	demandFrac := float64(res.Core.DemandDecompresses) / float64(res.Core.Entries)
	if demandFrac > 0.2 {
		t.Errorf("demand decompression fraction %.2f too high for a led pipeline", demandFrac)
	}
	if res.HitRate() < 0.8 {
		t.Errorf("hit rate %.2f too low for pre-all on a sequential chain", res.HitRate())
	}
}

// TestWritebackModeIsWorse quantifies the Section 5 design argument:
// delete-only compression frees memory instantly and keeps the
// compression thread cheap; writeback holds memory longer and works
// harder.
func TestWritebackModeIsWorse(t *testing.T) {
	del := runWorkload(t, "fft", func(c *core.Config) { c.CompressK = 2 })
	wb := runWorkload(t, "fft", func(c *core.Config) {
		c.CompressK = 2
		c.WritebackCompression = true
		c.ManagedBytes = 1 << 20
	})
	if wb.CompThreadBusy <= del.CompThreadBusy {
		t.Errorf("writeback comp thread busy %d <= delete-only %d", wb.CompThreadBusy, del.CompThreadBusy)
	}
	if wb.AvgResident <= del.AvgResident {
		t.Errorf("writeback avg resident %.0f <= delete-only %.0f", wb.AvgResident, del.AvgResident)
	}
}

// TestBudgetCapsResidentMemory verifies Section 2's budget mode
// end-to-end under simulation.
func TestBudgetCapsResidentMemory(t *testing.T) {
	free := runWorkload(t, "fft", func(c *core.Config) { c.CompressK = 64 })
	if free.Core.Evictions != 0 {
		t.Fatal("unbudgeted run evicted")
	}
	budget := free.CompressedSize + (free.PeakResident-free.CompressedSize)/2
	capped := runWorkload(t, "fft", func(c *core.Config) {
		c.CompressK = 64
		c.BudgetBytes = budget
	})
	if capped.PeakResident > budget {
		t.Errorf("peak %d exceeds budget %d", capped.PeakResident, budget)
	}
	if capped.Core.Evictions == 0 {
		t.Error("tight budget caused no evictions")
	}
	if capped.Cycles <= free.Cycles {
		t.Error("budget pressure should cost cycles")
	}
}

// TestGranularityAblation: block-level units hold less memory than
// function-level units on loop-dominated kernels (Section 6's argument
// against procedure-granularity compression), at the price of more
// exceptions.
func TestGranularityAblation(t *testing.T) {
	blk := runWorkload(t, "susan", func(c *core.Config) { c.CompressK = 2 })
	fn := runWorkload(t, "susan", func(c *core.Config) {
		c.CompressK = 2
		c.Granularity = core.GranFunction
	})
	if blk.AvgResident >= fn.AvgResident {
		t.Errorf("block-granularity avg resident %.0f >= function %.0f",
			blk.AvgResident, fn.AvgResident)
	}
	if blk.Core.Exceptions <= fn.Core.Exceptions {
		t.Error("finer granularity should trap more")
	}
}

// TestIdentityCodecZeroStallCost: with the identity codec the runtime
// machinery still works but decompression stalls are only fixed costs.
func TestIdentityCodecZeroStallCost(t *testing.T) {
	res := runWorkload(t, "crc32", func(c *core.Config) {
		c.Codec, _ = compress.New("identity", nil)
	})
	if res.DemandStallCycles != 0 {
		t.Errorf("identity codec demand stalls = %d, want 0", res.DemandStallCycles)
	}
	if res.Core.Exceptions == 0 {
		t.Error("exceptions should still occur")
	}
}

// TestDeterministicResults: identical configurations give identical
// results.
func TestDeterministicResults(t *testing.T) {
	a := runWorkload(t, "adpcm", nil)
	b := runWorkload(t, "adpcm", nil)
	if a.Cycles != b.Cycles || a.PeakResident != b.PeakResident || a.Core != b.Core {
		t.Error("simulation not deterministic")
	}
}

// TestRestartHandling: traces with kernel restarts simulate cleanly.
func TestRestartHandling(t *testing.T) {
	g := cfg.New()
	a := g.AddBlock("A", 4)
	b := g.AddBlock("B", 4)
	g.MustAddEdge(a, b, cfg.EdgeJump, 1)
	g.Normalize()
	p, err := program.Synthesize("tiny", g, 1)
	if err != nil {
		t.Fatal(err)
	}
	code, _ := p.CodeBytes()
	codec, _ := compress.New("lzss", code)
	m, err := core.NewManager(p, core.Config{Codec: codec, CompressK: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(g, trace.GenConfig{Seed: 1, MaxSteps: 50, Restart: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 50 {
		t.Fatalf("restart trace len = %d", tr.Len())
	}
	if _, err := Run(m, tr, DefaultCosts()); err != nil {
		t.Fatal(err)
	}
}

// TestAllWorkloadsAllStrategies is the integration sweep: every
// workload under every strategy simulates cleanly and produces sane
// metrics.
func TestAllWorkloadsAllStrategies(t *testing.T) {
	all, err := workloads.Suite()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range all {
		for _, strat := range []core.Strategy{core.OnDemand, core.PreAll, core.PreSingle} {
			res := runWorkload(t, w.Name, func(c *core.Config) {
				c.Strategy = strat
				if strat != core.OnDemand {
					c.DecompressK = 2
				}
				if strat == core.PreSingle {
					c.Predictor = trace.NewMarkov(w.Program.Graph)
				}
			})
			if res.Cycles < res.BaseCycles {
				t.Errorf("%s/%s: total cycles below base", w.Name, strat)
			}
			if res.PeakResident > res.UncompressedSize+res.CompressedSize {
				t.Errorf("%s/%s: peak %d above worst-case bound", w.Name, strat, res.PeakResident)
			}
			// On-demand must save memory on every workload (that is the
			// scheme's reason to exist). The pre-decompression
			// strategies may legitimately overshoot on loop kernels
			// whose hot latch sits next to cold code: speculative
			// decompression is the memory cost Section 4 warns about.
			if strat == core.OnDemand && res.AvgSaving() <= 0 {
				t.Errorf("%s/%s: no average memory saving (%.3f)", w.Name, strat, res.AvgSaving())
			}
		}
	}
}
