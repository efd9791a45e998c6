// Command apcc runs one workload of the embedded suite under one
// configuration of the access-pattern-based code compression runtime
// and prints the full metric report.
//
// Usage:
//
//	apcc -workload crc32 -strategy pre-all -kc 4 -kd 2 -codec dict
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"apbcc/internal/compress"
	"apbcc/internal/core"
	"apbcc/internal/policy"
	"apbcc/internal/report"
	"apbcc/internal/sim"
	"apbcc/internal/trace"
	"apbcc/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "crc32", "suite workload name (see -list)")
		codecName = flag.String("codec", "dict", "block codec: "+strings.Join(compress.Names(), " | "))
		strategy  = flag.String("strategy", "on-demand", "on-demand | pre-all | pre-single")
		kc        = flag.Int("kc", 4, "compress-k (k-edge compression parameter)")
		kd        = flag.Int("kd", 2, "decompress-k (pre-decompression lookahead)")
		predictor = flag.String("predictor", "markov", "static | markov | profiled (pre-single only)")
		polName   = flag.String("policy", "klru", "replacement/prefetch policy: "+strings.Join(policy.Names(), " | "))
		budget    = flag.Int("budget", 0, "resident-memory budget in bytes (0 = unlimited)")
		gran      = flag.String("gran", "block", "compression granularity: block | function")
		steps     = flag.Int("steps", 20000, "trace length in block visits")
		seed      = flag.Int64("seed", 0, "trace seed (0 = workload default)")
		writeback = flag.Bool("writeback", false, "model writeback compression instead of delete-only")
		strict    = flag.Bool("strict", false, "strict Section-5 counters (age prefetched blocks too)")
		list      = flag.Bool("list", false, "list workloads and exit")
	)
	flag.Parse()

	if *list {
		all, err := workloads.Suite()
		if err != nil {
			fatal(err)
		}
		tb := report.NewTable("available workloads", "name", "blocks", "bytes", "description")
		for _, w := range all {
			tb.AddRow(w.Name, w.Program.Graph.NumBlocks(), w.Program.TotalBytes(), w.Desc)
		}
		fmt.Print(tb)
		return
	}

	w, err := workloads.ByName(*workload)
	if err != nil {
		fatal(err)
	}
	code, err := w.Program.CodeBytes()
	if err != nil {
		fatal(err)
	}
	codec, err := compress.New(*codecName, code)
	if err != nil {
		fatal(err)
	}

	pol, err := policy.New[core.UnitID](*polName)
	if err != nil {
		fatal(err)
	}
	conf := core.Config{
		Codec:                codec,
		CompressK:            *kc,
		DecompressK:          *kd,
		BudgetBytes:          *budget,
		WritebackCompression: *writeback,
		StrictCounters:       *strict,
		Policy:               pol,
	}
	switch *strategy {
	case "on-demand":
		conf.Strategy = core.OnDemand
	case "pre-all":
		conf.Strategy = core.PreAll
	case "pre-single":
		conf.Strategy = core.PreSingle
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}
	switch *gran {
	case "block":
		conf.Granularity = core.GranBlock
	case "function":
		conf.Granularity = core.GranFunction
	default:
		fatal(fmt.Errorf("unknown granularity %q", *gran))
	}
	if conf.Strategy == core.PreSingle {
		switch *predictor {
		case "static":
			conf.Predictor = trace.NewStatic(w.Program.Graph)
		case "markov":
			conf.Predictor = trace.NewMarkov(w.Program.Graph)
		case "profiled":
			// Train on an independent profiling run.
			ptr, err := trace.Generate(w.Program.Graph, trace.GenConfig{Seed: w.Seed + 1, MaxSteps: *steps, Restart: true})
			if err != nil {
				fatal(err)
			}
			prof := trace.NewProfile()
			prof.AddTrace(ptr)
			conf.Predictor = trace.NewProfiled(w.Program.Graph, prof)
		default:
			fatal(fmt.Errorf("unknown predictor %q", *predictor))
		}
	}

	m, err := core.NewManager(w.Program, conf)
	if err != nil {
		fatal(err)
	}
	s := *seed
	if s == 0 {
		s = w.Seed
	}
	tr, err := trace.Generate(w.Program.Graph, trace.GenConfig{Seed: s, MaxSteps: *steps, Restart: true})
	if err != nil {
		fatal(err)
	}
	res, err := sim.Run(m, tr, sim.DefaultCosts())
	if err != nil {
		fatal(err)
	}

	fmt.Printf("workload %s: %s\n", w.Name, w.Desc)
	fmt.Printf("config: codec=%s strategy=%s policy=%s kc=%d kd=%d gran=%s budget=%d\n\n",
		codec.Name(), conf.Strategy, m.PolicyName(), conf.CompressK, conf.DecompressK, conf.Granularity, conf.BudgetBytes)

	mem := report.NewTable("memory", "metric", "bytes", "vs uncompressed")
	mem.AddRow("uncompressed image", res.UncompressedSize, "100.0%")
	mem.AddRow("compressed area (minimum)", res.CompressedSize,
		report.Pct(float64(res.CompressedSize)/float64(res.UncompressedSize)))
	mem.AddRow("peak resident", res.PeakResident,
		report.Pct(float64(res.PeakResident)/float64(res.UncompressedSize)))
	mem.AddRow("average resident", int(res.AvgResident),
		report.Pct(res.AvgResident/float64(res.UncompressedSize)))
	fmt.Print(mem)
	fmt.Printf("peak saving %s, average saving %s\n\n", report.Pct(res.PeakSaving()), report.Pct(res.AvgSaving()))

	perf := report.NewTable("performance", "metric", "cycles")
	perf.AddRow("baseline execution", res.BaseCycles)
	perf.AddRow("total with compression", res.Cycles)
	perf.AddRow("stalls (decompression)", res.StallCycles)
	perf.AddRow("  of which demand", res.DemandStallCycles)
	perf.AddRow("exception overhead", res.ExceptionOverhead)
	perf.AddRow("patch overhead", res.PatchOverhead)
	perf.AddRow("eviction overhead", res.EvictOverhead)
	perf.AddRow("decompression thread busy", res.DecompThreadBusy)
	perf.AddRow("compression thread busy", res.CompThreadBusy)
	fmt.Print(perf)
	fmt.Printf("overhead %s, hit rate %s\n\n", report.Pct(res.Overhead()), report.Pct(res.HitRate()))

	pc := report.NewTable("policy counters", "counter", "count")
	pc.AddRow("block entries", res.Core.Entries)
	pc.AddRow("exceptions", res.Core.Exceptions)
	pc.AddRow("demand decompressions", res.Core.DemandDecompresses)
	pc.AddRow("prefetches issued", res.Core.Prefetches)
	pc.AddRow("prefetch in-flight hits", res.Core.PrefetchHits)
	pc.AddRow("k-edge deletes", res.Core.Deletes)
	pc.AddRow("wasted prefetches", res.Core.WastedPrefetches)
	pc.AddRow("branch patches", res.Core.Patches)
	pc.AddRow("budget evictions", res.Core.Evictions)
	fmt.Print(pc)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apcc:", err)
	os.Exit(1)
}
