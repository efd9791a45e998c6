// Benchmarks: one per reproduced figure/experiment (see the experiment
// index in README.md). Each benchmark times the experiment's
// representative configuration end-to-end (manager construction
// excluded, simulation included) and attaches the headline result
// numbers as custom metrics, so `go test -bench=.` both times the
// system and regenerates the paper-shape results. The full row-by-row
// tables are produced by `go run ./cmd/apcc-sweep`.
package apbcc_test

import (
	"fmt"
	"testing"

	"apbcc/internal/bench"
	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/core"
	"apbcc/internal/mem"
	"apbcc/internal/multi"
	"apbcc/internal/policy"
	"apbcc/internal/program"
	"apbcc/internal/rt"
	"apbcc/internal/sim"
	"apbcc/internal/trace"
	"apbcc/internal/workloads"
)

// benchSteps keeps per-iteration work moderate; apcc-sweep's tables
// use bench.DefaultSteps.
const benchSteps = 5000

// runCell builds and simulates one cell, reporting b.Fatal on error.
func runCell(b *testing.B, name string, conf core.Config) *sim.Result {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	res, err := bench.RunCell(w, conf, benchSteps)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// figureProgram synthesizes one of the paper's figure CFGs.
func figureProgram(b *testing.B, g *cfg.Graph) (*program.Program, compress.Codec) {
	b.Helper()
	p, err := program.Synthesize("figure", g, 11)
	if err != nil {
		b.Fatal(err)
	}
	code, err := p.CodeBytes()
	if err != nil {
		b.Fatal(err)
	}
	codec, err := compress.New("dict", code)
	if err != nil {
		b.Fatal(err)
	}
	return p, codec
}

// BenchmarkFigure1KEdge times the Figure 1 worked example: the 2-edge
// algorithm compressing B1 as execution enters B4.
func BenchmarkFigure1KEdge(b *testing.B) {
	p, codec := figureProgram(b, cfg.Figure1())
	tr, err := trace.FromLabels(p.Graph, "B0", "B1", "B3", "B4")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.NewManager(p, core.Config{Codec: codec, CompressK: 2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(m, tr, sim.DefaultCosts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2PreDecompress times the Figure 2 worked example:
// k=3 pre-decompression issuing B7 at the exit of B1.
func BenchmarkFigure2PreDecompress(b *testing.B) {
	p, codec := figureProgram(b, cfg.Figure2())
	tr, err := trace.Generate(p.Graph, trace.GenConfig{Seed: 2, MaxSteps: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.NewManager(p, core.Config{
			Codec: codec, CompressK: 100, Strategy: core.PreAll, DecompressK: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(m, tr, sim.DefaultCosts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3DesignSpace times the design-space cell the paper's
// Figure 3 enumerates, one strategy per sub-benchmark, and reports the
// tradeoff metrics.
func BenchmarkFigure3DesignSpace(b *testing.B) {
	cases := []struct {
		name string
		conf func(g *cfg.Graph) core.Config
	}{
		{"on-demand", func(*cfg.Graph) core.Config {
			return core.Config{CompressK: 4}
		}},
		{"pre-all", func(*cfg.Graph) core.Config {
			return core.Config{CompressK: 4, Strategy: core.PreAll, DecompressK: 2}
		}},
		{"pre-single", func(g *cfg.Graph) core.Config {
			return core.Config{CompressK: 4, Strategy: core.PreSingle, DecompressK: 2,
				Predictor: trace.NewMarkov(g)}
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			w, err := workloads.ByName("mpeg2motion")
			if err != nil {
				b.Fatal(err)
			}
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				res, err = bench.RunCell(w, c.conf(w.Program.Graph), benchSteps)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.Overhead(), "overhead-%")
			b.ReportMetric(100*res.AvgSaving(), "avg-saving-%")
			b.ReportMetric(100*res.HitRate(), "hit-%")
		})
	}
}

// BenchmarkFigure4Threads times the three-thread pipeline of Figure 4
// on the sequential-chain workload where the decompression thread must
// run ahead of execution.
func BenchmarkFigure4Threads(b *testing.B) {
	b.Run("sim", func(b *testing.B) {
		var res *sim.Result
		for i := 0; i < b.N; i++ {
			res = runCell(b, "sha", core.Config{
				CompressK: 12, Strategy: core.PreAll, DecompressK: 2,
			})
		}
		b.ReportMetric(100*res.HitRate(), "hit-%")
		b.ReportMetric(float64(res.DecompThreadBusy), "decomp-busy-cyc")
		b.ReportMetric(float64(res.CompThreadBusy), "comp-busy-cyc")
	})
	b.Run("goroutines", func(b *testing.B) {
		w, err := workloads.ByName("sha")
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
		tr, err := trace.Generate(w.Program.Graph, trace.GenConfig{Seed: 1, MaxSteps: 2000, Restart: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := core.NewManager(w.Program, core.Config{
				Codec: codec, CompressK: 12, Strategy: core.PreAll, DecompressK: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			rtm := rt.New(m, codec)
			if _, err := rtm.Execute(tr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure5OnDemand times the Figure 5 golden scenario.
func BenchmarkFigure5OnDemand(b *testing.B) {
	p, codec := figureProgram(b, cfg.Figure5())
	tr, err := trace.FromLabels(p.Graph, "B0", "B1", "B0", "B1", "B3")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.NewManager(p, core.Config{Codec: codec, CompressK: 2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(m, tr, sim.DefaultCosts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1MemoryVsK reports the memory half of the k tradeoff.
func BenchmarkE1MemoryVsK(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(ksuffix(k), func(b *testing.B) {
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				res = runCell(b, "dijkstra", core.Config{CompressK: k})
			}
			b.ReportMetric(100*res.AvgSaving(), "avg-saving-%")
			b.ReportMetric(100*res.PeakSaving(), "peak-saving-%")
		})
	}
}

// BenchmarkE2OverheadVsK reports the performance half of the k
// tradeoff.
func BenchmarkE2OverheadVsK(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(ksuffix(k), func(b *testing.B) {
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				res = runCell(b, "dijkstra", core.Config{CompressK: k})
			}
			b.ReportMetric(100*res.Overhead(), "overhead-%")
		})
	}
}

// BenchmarkE3Codecs times raw codec compress/decompress throughput on a
// realistic program image and reports the achieved ratio.
func BenchmarkE3Codecs(b *testing.B) {
	w, err := workloads.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	img, err := w.Program.CodeBytes()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range compress.Names() {
		codec, err := compress.New(name, img)
		if err != nil {
			b.Fatal(err)
		}
		comp, err := codec.CompressAppend(nil, img)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/compress", func(b *testing.B) {
			b.SetBytes(int64(len(img)))
			for i := 0; i < b.N; i++ {
				if _, err := codec.CompressAppend(nil, img); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*compress.Ratio(len(img), len(comp)), "ratio-%")
		})
		b.Run(name+"/decompress", func(b *testing.B) {
			b.SetBytes(int64(len(img)))
			for i := 0; i < b.N; i++ {
				if _, err := codec.DecompressAppend(nil, comp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4Policies times one E4 cell per replacement/prefetch
// policy: the zipf workload under a tight budget with pre-all
// lookahead, reporting each policy's hit/eviction/demand counters —
// the tracked perf row for the policy engine itself (its bookkeeping
// runs on every EnterBlock).
func BenchmarkE4Policies(b *testing.B) {
	free := runCell(b, "zipf", core.Config{CompressK: 4, Strategy: core.PreAll, DecompressK: 2})
	budget := free.CompressedSize + (free.PeakResident-free.CompressedSize)/2
	for _, name := range policy.Names() {
		b.Run(name, func(b *testing.B) {
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				pol, err := policy.New[core.UnitID](name)
				if err != nil {
					b.Fatal(err)
				}
				res = runCell(b, "zipf", core.Config{
					CompressK: 4, Strategy: core.PreAll, DecompressK: 2,
					BudgetBytes: budget, Policy: pol,
				})
			}
			b.ReportMetric(float64(res.Core.Hits), "hits")
			b.ReportMetric(float64(res.Core.Evictions), "evictions")
			b.ReportMetric(float64(res.Core.DemandDecompresses), "demand-decomp")
			b.ReportMetric(100*res.Overhead(), "overhead-%")
		})
	}
}

// BenchmarkE4bBudget times the LRU budget mode under a tight cap.
func BenchmarkE4bBudget(b *testing.B) {
	free := runCell(b, "fft", core.Config{CompressK: 64})
	budget := free.CompressedSize + (free.PeakResident-free.CompressedSize)/2
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		res = runCell(b, "fft", core.Config{CompressK: 64, BudgetBytes: budget})
	}
	b.ReportMetric(float64(res.Core.Evictions), "evictions")
	b.ReportMetric(100*res.Overhead(), "overhead-%")
}

// BenchmarkE5Granularity compares block- and function-level units.
func BenchmarkE5Granularity(b *testing.B) {
	for _, g := range []core.Granularity{core.GranBlock, core.GranFunction} {
		b.Run(g.String(), func(b *testing.B) {
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				res = runCell(b, "susan", core.Config{CompressK: 2, Granularity: g})
			}
			b.ReportMetric(100*res.AvgSaving(), "avg-saving-%")
			b.ReportMetric(100*res.Overhead(), "overhead-%")
		})
	}
}

// BenchmarkE6Predictors compares the pre-decompress-single predictors.
func BenchmarkE6Predictors(b *testing.B) {
	w, err := workloads.ByName("dijkstra")
	if err != nil {
		b.Fatal(err)
	}
	preds := map[string]func() trace.Predictor{
		"static": func() trace.Predictor { return trace.NewStatic(w.Program.Graph) },
		"markov": func() trace.Predictor { return trace.NewMarkov(w.Program.Graph) },
	}
	for name, mk := range preds {
		b.Run(name, func(b *testing.B) {
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = bench.RunCell(w, core.Config{
					CompressK: 4, Strategy: core.PreSingle, DecompressK: 2, Predictor: mk(),
				}, benchSteps)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Core.DemandDecompresses), "demand-misses")
			b.ReportMetric(100*res.Overhead(), "overhead-%")
		})
	}
}

// BenchmarkE7CounterSemantics compares visit-based and strict counter
// readings under pre-all (the ablation behind the reproduction's main
// interpretive decision).
func BenchmarkE7CounterSemantics(b *testing.B) {
	for _, strict := range []bool{false, true} {
		name := "visit-based"
		if strict {
			name = "strict"
		}
		b.Run(name, func(b *testing.B) {
			w, err := workloads.ByName("jpegdct")
			if err != nil {
				b.Fatal(err)
			}
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				res, err = bench.RunCell(w, core.Config{
					CompressK: 4, Strategy: core.PreAll, DecompressK: 2,
					StrictCounters: strict,
				}, benchSteps)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.Overhead(), "overhead-%")
			b.ReportMetric(float64(res.Core.Prefetches), "prefetches")
		})
	}
}

// BenchmarkE8Writeback compares delete-only against writeback
// compression (the Section 5 design argument).
func BenchmarkE8Writeback(b *testing.B) {
	for _, wb := range []bool{false, true} {
		name := "delete-only"
		if wb {
			name = "writeback"
		}
		b.Run(name, func(b *testing.B) {
			w, err := workloads.ByName("fft")
			if err != nil {
				b.Fatal(err)
			}
			conf := core.Config{CompressK: 2, WritebackCompression: wb}
			if wb {
				conf.ManagedBytes = 4 * w.Program.TotalBytes()
			}
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				res, err = bench.RunCell(w, conf, benchSteps)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.AvgSaving(), "avg-saving-%")
			b.ReportMetric(float64(res.CompThreadBusy), "comp-busy-cyc")
		})
	}
}

// BenchmarkE9Fragmentation compares allocation policies under copy
// churn (Section 5's fragmentation concern).
func BenchmarkE9Fragmentation(b *testing.B) {
	for _, pol := range []mem.FitPolicy{mem.FirstFit, mem.BestFit} {
		b.Run(pol.String(), func(b *testing.B) {
			w, err := workloads.ByName("fft")
			if err != nil {
				b.Fatal(err)
			}
			probe, err := bench.RunCell(w, core.Config{CompressK: 2}, benchSteps)
			if err != nil {
				b.Fatal(err)
			}
			managed := (probe.PeakResident - probe.CompressedSize) * 8 / 5
			var frag float64
			for i := 0; i < b.N; i++ {
				code, err := w.Program.CodeBytes()
				if err != nil {
					b.Fatal(err)
				}
				codec, err := compress.New("dict", code)
				if err != nil {
					b.Fatal(err)
				}
				m, err := core.NewManager(w.Program, core.Config{
					Codec: codec, CompressK: 2, ManagedBytes: managed, Alloc: pol,
				})
				if err != nil {
					b.Fatal(err)
				}
				tr, err := trace.Generate(w.Program.Graph,
					trace.GenConfig{Seed: w.Seed, MaxSteps: benchSteps, Restart: true})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(m, tr, sim.DefaultCosts()); err != nil {
					b.Fatal(err)
				}
				frag = m.Image().Managed().ExternalFragmentation()
			}
			b.ReportMetric(100*frag, "frag-%")
		})
	}
}

// BenchmarkE10SharedPool times the two-application shared-memory system
// (Section 2's motivation) against a static budget split.
func BenchmarkE10SharedPool(b *testing.B) {
	mk := func(name string) (*multi.App, error) {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		code, err := w.Program.CodeBytes()
		if err != nil {
			return nil, err
		}
		codec, err := compress.New("dict", code)
		if err != nil {
			return nil, err
		}
		m, err := core.NewManager(w.Program, core.Config{Codec: codec, CompressK: 4})
		if err != nil {
			return nil, err
		}
		tr, err := trace.Generate(w.Program.Graph,
			trace.GenConfig{Seed: w.Seed, MaxSteps: benchSteps, Restart: true})
		if err != nil {
			return nil, err
		}
		return &multi.App{Name: name, Manager: m, Trace: tr}, nil
	}
	var evictions int64
	for i := 0; i < b.N; i++ {
		a, err := mk("jpegdct")
		if err != nil {
			b.Fatal(err)
		}
		c, err := mk("mpeg2motion")
		if err != nil {
			b.Fatal(err)
		}
		pool := a.Manager.CompressedSize() + c.Manager.CompressedSize() +
			(a.Manager.UncompressedSize()+c.Manager.UncompressedSize())/8
		sys, err := multi.NewSystem(pool, sim.DefaultCosts(), a, c)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		evictions = res.GlobalEvictions
	}
	b.ReportMetric(float64(evictions), "global-evictions")
}

func ksuffix(k int) string { return fmt.Sprintf("k=%d", k) }
