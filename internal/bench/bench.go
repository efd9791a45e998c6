// Package bench contains the experiment harnesses that regenerate every
// figure-level result of the reproduction (the experiment index in
// README.md). Each harness returns a report.Table; cmd/apcc-sweep
// prints them and the root-level benchmarks time them.
package bench

import (
	"fmt"

	"apbcc/internal/compress"
	"apbcc/internal/core"
	"apbcc/internal/mem"
	"apbcc/internal/multi"
	"apbcc/internal/policy"
	"apbcc/internal/report"
	"apbcc/internal/sim"
	"apbcc/internal/trace"
	"apbcc/internal/workloads"
)

// DefaultSteps is the canonical trace length for all experiments.
const DefaultSteps = 20000

// RunCell simulates one (workload, configuration) cell: it trains the
// codec on the workload, builds a fresh Manager and runs the canonical
// trace.
func RunCell(w *workloads.Workload, conf core.Config, steps int) (*sim.Result, error) {
	m, tr, err := newCell(w, conf, steps)
	if err != nil {
		return nil, err
	}
	return sim.Run(m, tr, sim.DefaultCosts())
}

// newCell builds one cell's fresh Manager, with the dict codec trained
// on the workload unless conf names a codec, and its canonical trace of
// steps blocks.
func newCell(w *workloads.Workload, conf core.Config, steps int) (*core.Manager, *trace.Trace, error) {
	if conf.Codec == nil {
		code, err := w.Program.CodeBytes()
		if err != nil {
			return nil, nil, err
		}
		if conf.Codec, err = compress.New("dict", code); err != nil {
			return nil, nil, err
		}
	}
	m, err := core.NewManager(w.Program, conf)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	tr, err := trace.Generate(w.Program.Graph, trace.GenConfig{Seed: w.Seed, MaxSteps: steps, Restart: true})
	if err != nil {
		return nil, nil, err
	}
	return m, tr, nil
}

// strategies enumerated in the paper's Figure 3 order.
var strategies = []core.Strategy{core.OnDemand, core.PreAll, core.PreSingle}

// withStrategy completes a config for the given strategy.
func withStrategy(w *workloads.Workload, conf core.Config, s core.Strategy, kd int) core.Config {
	conf.Strategy = s
	if s != core.OnDemand {
		conf.DecompressK = kd
	}
	if s == core.PreSingle {
		conf.Predictor = trace.NewMarkov(w.Program.Graph)
	}
	return conf
}

// DesignSpace regenerates Figure 3 quantitatively: every workload under
// every decompression strategy at a fixed (kc, kd), reporting both
// sides of the tradeoff.
func DesignSpace(kc, kd, steps int) (*report.Table, error) {
	all, err := workloads.Suite()
	if err != nil {
		return nil, err
	}
	tb := report.NewTable(
		fmt.Sprintf("F3: decompression design space (dict codec, kc=%d, kd=%d)", kc, kd),
		"workload", "strategy", "overhead", "hit-rate", "avg-resident", "peak-resident", "demand-stall-cyc")
	for _, w := range all {
		for _, s := range strategies {
			res, err := RunCell(w, withStrategy(w, core.Config{CompressK: kc}, s, kd), steps)
			if err != nil {
				return nil, err
			}
			tb.AddRow(w.Name, s.String(), report.Pct(res.Overhead()), report.Pct(res.HitRate()),
				report.Pct(res.AvgResident/float64(res.UncompressedSize)),
				report.Pct(float64(res.PeakResident)/float64(res.UncompressedSize)),
				res.DemandStallCycles)
		}
	}
	return tb, nil
}

// MemoryVsK regenerates E1: the Section 3 memory half of the k
// tradeoff — average and peak resident memory versus compress-k under
// on-demand decompression.
func MemoryVsK(ks []int, steps int) (*report.Table, error) {
	all, err := workloads.Suite()
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("E1: resident memory vs compress-k (on-demand, dict codec)",
		"workload", "k", "compressed-area", "avg-resident", "peak-resident", "avg-saving")
	for _, w := range all {
		for _, k := range ks {
			res, err := RunCell(w, core.Config{CompressK: k}, steps)
			if err != nil {
				return nil, err
			}
			tb.AddRow(w.Name, k,
				report.Pct(float64(res.CompressedSize)/float64(res.UncompressedSize)),
				report.Pct(res.AvgResident/float64(res.UncompressedSize)),
				report.Pct(float64(res.PeakResident)/float64(res.UncompressedSize)),
				report.Pct(res.AvgSaving()))
		}
	}
	return tb, nil
}

// OverheadVsK regenerates E2: the performance half of the k tradeoff,
// across all three strategies.
func OverheadVsK(ks []int, kd, steps int) (*report.Table, error) {
	all, err := workloads.Suite()
	if err != nil {
		return nil, err
	}
	tb := report.NewTable(fmt.Sprintf("E2: execution overhead vs compress-k (dict codec, kd=%d)", kd),
		"workload", "k", "on-demand", "pre-all", "pre-single")
	for _, w := range all {
		for _, k := range ks {
			row := []any{w.Name, k}
			for _, s := range strategies {
				res, err := RunCell(w, withStrategy(w, core.Config{CompressK: k}, s, kd), steps)
				if err != nil {
					return nil, err
				}
				row = append(row, report.Pct(res.Overhead()))
			}
			tb.AddRow(row...)
		}
	}
	return tb, nil
}

// Codecs regenerates E3: compression ratio against decompression cost
// across the codec spectrum, and the end-to-end effect of the choice.
// Alongside the modeled cycle costs it reports *measured* codec
// throughput (MB/s of uncompressed bytes, from compress.Measure's
// fastest timed whole pass) so the host-side cost of each codec is
// visible next to the simulated one.
func Codecs(kc, steps int) (*report.Table, error) {
	all, err := workloads.Suite()
	if err != nil {
		return nil, err
	}
	tb := report.NewTable(fmt.Sprintf("E3: codec study (on-demand, kc=%d)", kc),
		"workload", "codec", "ratio", "comp-MB/s", "decomp-MB/s", "overhead", "avg-saving", "demand-stall-cyc", "patterns")
	for _, w := range all {
		code, err := w.Program.CodeBytes()
		if err != nil {
			return nil, err
		}
		blocks, err := w.Program.AllBlockBytes()
		if err != nil {
			return nil, err
		}
		for _, name := range compress.Names() {
			codec, err := compress.New(name, code)
			if err != nil {
				return nil, err
			}
			st, err := compress.Measure(codec, blocks)
			if err != nil {
				return nil, err
			}
			res, err := RunCell(w, core.Config{Codec: codec, CompressK: kc}, steps)
			if err != nil {
				return nil, err
			}
			tb.AddRow(w.Name, name,
				report.Pct(float64(res.CompressedSize)/float64(res.UncompressedSize)),
				fmt.Sprintf("%.0f", st.CompressMBps()), fmt.Sprintf("%.0f", st.DecompressMBps()),
				report.Pct(res.Overhead()), report.Pct(res.AvgSaving()), res.DemandStallCycles,
				st.Patterns.String())
		}
	}
	return tb, nil
}

// CodecArbitration regenerates E3b: cost-aware per-block codec
// arbitration. For every workload the full codec family (trained on
// the workload's code, as the pack pipeline would) competes block by
// block under compress.Arbiter at several decode weights: weight 0 is
// pure size (the smallest encoding wins every block), larger weights
// charge each candidate its modeled decompression cycles, shifting
// choices toward cheap decoders. The table reports how many blocks
// each codec won, the mixed ratio the arbitrated container achieves,
// and the best single codec it must beat — the per-block mix can never
// be worse than the best whole-program codec at weight 0.
func CodecArbitration(weights []float64) (*report.Table, error) {
	all, err := workloads.Suite()
	if err != nil {
		return nil, err
	}
	names := compress.Names()
	cols := []string{"workload", "decode-weight"}
	cols = append(cols, names...)
	cols = append(cols, "mix-ratio", "best-single", "single-ratio")
	tb := report.NewTable("E3b: cost-aware per-block codec arbitration", cols...)
	for _, w := range all {
		code, err := w.Program.CodeBytes()
		if err != nil {
			return nil, err
		}
		blocks, err := w.Program.AllBlockBytes()
		if err != nil {
			return nil, err
		}
		total := 0
		for _, b := range blocks {
			total += len(b)
		}
		codecs := make([]compress.Codec, len(names))
		singles := make([]int, len(names)) // whole-program compressed bytes
		var buf []byte
		for i, name := range names {
			if codecs[i], err = compress.New(name, code); err != nil {
				return nil, err
			}
			for _, b := range blocks {
				if buf, err = codecs[i].CompressAppend(buf[:0], b); err != nil {
					return nil, fmt.Errorf("bench: E3b %s: %w", w.Name, err)
				}
				singles[i] += len(buf)
			}
		}
		bestIdx := 0
		for i, s := range singles {
			if s < singles[bestIdx] {
				bestIdx = i
			}
		}
		for _, wgt := range weights {
			arb := &compress.Arbiter{Codecs: codecs, DecodeWeight: wgt}
			counts := make([]int, len(names))
			mixBytes := 0
			var scratch []byte
			for _, b := range blocks {
				choice, s, err := arb.Choose(b, scratch)
				if err != nil {
					return nil, fmt.Errorf("bench: E3b %s: %w", w.Name, err)
				}
				scratch = s
				counts[choice.Index]++
				mixBytes += choice.CompressedLen
			}
			row := []any{w.Name, fmt.Sprintf("%g", wgt)}
			for _, c := range counts {
				row = append(row, c)
			}
			row = append(row, report.Pct(compress.Ratio(total, mixBytes)),
				names[bestIdx], report.Pct(compress.Ratio(total, singles[bestIdx])))
			tb.AddRow(row...)
		}
	}
	return tb, nil
}

// policyWorkloads is the E4 comparison set: the Zipf-skewed dispatch
// and recurring-phase scenarios built for policy comparison, plus the
// phase-sequential and cold-dispatch originals.
var policyWorkloads = []string{"zipf", "loopphase", "jpegdct", "mpeg2motion"}

// Policies regenerates E4: the replacement & prefetch policy
// comparison. Every policy in the engine runs the same workloads under
// the same memory budget (halfway between the compressed floor and the
// unconstrained peak, from a default-policy probe) with
// pre-decompression enabled, so victim selection and prefetch scoring
// both matter. The table reports the policy-level counters the
// acceptance of the paper's scheme turns on: hits, evictions,
// demand decompressions, prefetches and the end-to-end overhead.
func Policies(kc, kd, steps int) (*report.Table, error) {
	tb := report.NewTable(fmt.Sprintf("E4: replacement & prefetch policies (pre-all, kc=%d, kd=%d, budget=floor+gap/2)", kc, kd),
		"workload", "policy", "hits", "evictions", "demand-decomp", "prefetches", "wasted", "overhead", "avg-resident")
	for _, name := range policyWorkloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		// Probe with the default policy, unconstrained, to size the
		// budget every policy then competes under.
		probe, err := RunCell(w, withStrategy(w, core.Config{CompressK: kc}, core.PreAll, kd), steps)
		if err != nil {
			return nil, err
		}
		budget := probe.CompressedSize + (probe.PeakResident-probe.CompressedSize)/2
		// Feasibility is checked up front (the budget must fit the
		// compressed area plus the largest unit) so that any error out
		// of a cell below is a real failure, never shrugged off as a
		// budget limitation.
		if budget < probe.CompressedSize+largestBlockBytes(w) {
			for _, polName := range policy.Names() {
				tb.AddRow(w.Name, polName, "infeasible", "-", "-", "-", "-", "-", "-")
			}
			continue
		}
		for _, polName := range policy.Names() {
			pol, err := policy.New[core.UnitID](polName)
			if err != nil {
				return nil, err
			}
			conf := withStrategy(w, core.Config{CompressK: kc, BudgetBytes: budget, Policy: pol}, core.PreAll, kd)
			res, err := RunCell(w, conf, steps)
			if err != nil {
				return nil, fmt.Errorf("bench: E4 %s/%s: %w", w.Name, polName, err)
			}
			tb.AddRow(w.Name, polName, res.Core.Hits, res.Core.Evictions,
				res.Core.DemandDecompresses, res.Core.Prefetches, res.Core.WastedPrefetches,
				report.Pct(res.Overhead()),
				report.Pct(res.AvgResident/float64(res.UncompressedSize)))
		}
	}
	return tb, nil
}

// largestBlockBytes is the workload's largest block, and so its
// largest compression unit at block granularity: the feasibility floor
// for any resident-memory budget.
func largestBlockBytes(w *workloads.Workload) int {
	largest := 0
	for _, b := range w.Program.Graph.Blocks() {
		largest = max(largest, b.Bytes())
	}
	return largest
}

// Budget regenerates E4b: Section 2's memory-budget mode under the
// default policy. The budget is swept as a fraction of the gap between
// the compressed minimum and the uncompressed image.
func Budget(kc, steps int) (*report.Table, error) {
	all, err := workloads.Suite()
	if err != nil {
		return nil, err
	}
	fractions := []float64{0.25, 0.5, 0.75, 1.0}
	tb := report.NewTable(fmt.Sprintf("E4b: LRU budget mode (on-demand, kc=%d)", kc),
		"workload", "budget-frac", "budget-bytes", "peak-resident", "evictions", "overhead")
	for _, w := range all {
		// Establish the unconstrained peak first.
		free, err := RunCell(w, core.Config{CompressK: kc}, steps)
		if err != nil {
			return nil, err
		}
		span := free.PeakResident - free.CompressedSize
		for _, f := range fractions {
			budget := free.CompressedSize + int(f*float64(span))
			res, err := RunCell(w, core.Config{CompressK: kc, BudgetBytes: budget}, steps)
			if err != nil {
				// Budgets below the largest unit are infeasible; record
				// the rejection rather than fail the sweep.
				tb.AddRow(w.Name, f, budget, "infeasible", "-", "-")
				continue
			}
			tb.AddRow(w.Name, f, budget,
				report.Pct(float64(res.PeakResident)/float64(res.UncompressedSize)),
				res.Core.Evictions, report.Pct(res.Overhead()))
		}
	}
	return tb, nil
}

// Granularity regenerates E5: basic-block units versus Debray &
// Evans-style function units (Section 6's comparison).
func Granularity(kc, steps int) (*report.Table, error) {
	all, err := workloads.Suite()
	if err != nil {
		return nil, err
	}
	tb := report.NewTable(fmt.Sprintf("E5: granularity ablation (on-demand, kc=%d)", kc),
		"workload", "granularity", "units", "avg-resident", "overhead", "exceptions")
	for _, w := range all {
		for _, g := range []core.Granularity{core.GranBlock, core.GranFunction} {
			m, tr, err := newCell(w, core.Config{CompressK: kc, Granularity: g}, steps)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(m, tr, sim.DefaultCosts())
			if err != nil {
				return nil, err
			}
			tb.AddRow(w.Name, g.String(), m.NumUnits(),
				report.Pct(res.AvgResident/float64(res.UncompressedSize)),
				report.Pct(res.Overhead()), res.Core.Exceptions)
		}
	}
	return tb, nil
}

// Predictors regenerates E6: the pre-decompress-single predictor
// ablation — static annotation, online Markov, and offline profile.
func Predictors(kc, kd, steps int) (*report.Table, error) {
	all, err := workloads.Suite()
	if err != nil {
		return nil, err
	}
	tb := report.NewTable(fmt.Sprintf("E6: pre-decompress-single predictors (kc=%d, kd=%d)", kc, kd),
		"workload", "predictor", "overhead", "demand-misses", "avg-resident")
	for _, w := range all {
		preds := []func() trace.Predictor{
			func() trace.Predictor { return trace.NewStatic(w.Program.Graph) },
			func() trace.Predictor { return trace.NewMarkov(w.Program.Graph) },
			func() trace.Predictor {
				ptr, perr := trace.Generate(w.Program.Graph, trace.GenConfig{Seed: w.Seed + 1, MaxSteps: steps, Restart: true})
				if perr != nil {
					return trace.NewStatic(w.Program.Graph)
				}
				prof := trace.NewProfile()
				prof.AddTrace(ptr)
				return trace.NewProfiled(w.Program.Graph, prof)
			},
		}
		for _, mk := range preds {
			p := mk()
			conf := core.Config{CompressK: kc, Strategy: core.PreSingle, DecompressK: kd, Predictor: p}
			res, err := RunCell(w, conf, steps)
			if err != nil {
				return nil, err
			}
			tb.AddRow(w.Name, p.Name(), report.Pct(res.Overhead()),
				res.Core.DemandDecompresses,
				report.Pct(res.AvgResident/float64(res.UncompressedSize)))
		}
	}
	return tb, nil
}

// CounterSemantics regenerates E7: the Section-3 (visit-based) versus
// literal Section-5 (strict) counter reading under pre-decompress-all —
// the ablation that shows why the strict reading defeats
// pre-decompression.
func CounterSemantics(kc, kd, steps int) (*report.Table, error) {
	all, err := workloads.Suite()
	if err != nil {
		return nil, err
	}
	tb := report.NewTable(fmt.Sprintf("E7: counter semantics ablation (pre-all, kc=%d, kd=%d)", kc, kd),
		"workload", "counters", "overhead", "prefetches", "wasted", "avg-resident")
	for _, w := range all {
		for _, strict := range []bool{false, true} {
			conf := withStrategy(w, core.Config{CompressK: kc, StrictCounters: strict}, core.PreAll, kd)
			res, err := RunCell(w, conf, steps)
			if err != nil {
				return nil, err
			}
			name := "visit-based"
			if strict {
				name = "strict"
			}
			tb.AddRow(w.Name, name, report.Pct(res.Overhead()),
				res.Core.Prefetches, res.Core.WastedPrefetches,
				report.Pct(res.AvgResident/float64(res.UncompressedSize)))
		}
	}
	return tb, nil
}

// SharedPool regenerates E10: Section 2's motivation quantified. Two
// applications share one code memory sized between their combined
// compressed floor and combined unconstrained peak; the dynamic global
// pool (internal/multi) is compared against splitting the same bytes
// statically into per-application budgets.
func SharedPool(kc, steps int) (*report.Table, error) {
	pairs := [][2]string{
		{"jpegdct", "adpcm"},
		{"jpegdct", "mpeg2motion"},
		{"crc32", "fft"},
		{"sha", "susan"},
	}
	tb := report.NewTable(fmt.Sprintf("E10: shared pool vs static split (on-demand, kc=%d)", kc),
		"apps", "pool-bytes", "dynamic-overhead", "static-overhead", "dynamic-evictions")
	for _, pair := range pairs {
		mk := func(name string, budget int) (*core.Manager, *trace.Trace, error) {
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, nil, err
			}
			return newCell(w, core.Config{CompressK: kc, BudgetBytes: budget}, steps)
		}
		// Unconstrained probes give the floor and peak.
		floor, peak := 0, 0
		for _, n := range pair {
			m, tr, err := mk(n, 0)
			if err != nil {
				return nil, err
			}
			r, err := sim.Run(m, tr, sim.DefaultCosts())
			if err != nil {
				return nil, err
			}
			floor += r.CompressedSize
			peak += r.PeakResident
		}
		pool := floor + (peak-floor)/2

		// Dynamic shared pool.
		var apps []*multi.App
		for _, n := range pair {
			m, tr, err := mk(n, 0)
			if err != nil {
				return nil, err
			}
			apps = append(apps, &multi.App{Name: n, Manager: m, Trace: tr})
		}
		sys, err := multi.NewSystem(pool, sim.DefaultCosts(), apps...)
		if err != nil {
			return nil, err
		}
		dyn, err := sys.Run()
		if err != nil {
			return nil, err
		}
		var dynC, dynB int64
		for _, ar := range dyn.Apps {
			dynC += ar.Cycles
			dynB += ar.BaseCycles
		}

		// Static split: each app gets its compressed floor plus an
		// equal share of the slack, enforced by budget mode.
		var statC, statB int64
		infeasible := false
		for _, n := range pair {
			probe, tr, err := mk(n, 0)
			if err != nil {
				return nil, err
			}
			share := probe.CompressedSize() + (pool-floor)/2
			m2, _, err := mk(n, share)
			if err != nil {
				infeasible = true
				break
			}
			r, err := sim.Run(m2, tr, sim.DefaultCosts())
			if err != nil {
				return nil, err
			}
			statC += r.Cycles
			statB += r.BaseCycles
		}
		dynOv := report.Pct(float64(dynC-dynB) / float64(dynB))
		statOv := "infeasible"
		if !infeasible {
			statOv = report.Pct(float64(statC-statB) / float64(statB))
		}
		tb.AddRow(pair[0]+"+"+pair[1], pool, dynOv, statOv, dyn.GlobalEvictions)
	}
	return tb, nil
}

// Fragmentation regenerates E9: Section 5's fragmentation concern.
// The managed copy area churns under small compress-k; the experiment
// reports the external fragmentation of the saved space (1 − largest
// free span / total free) and the effect of the allocation policy, on a
// managed area sized just 60% above the unconstrained peak so the
// pressure is realistic.
func Fragmentation(kc, steps int) (*report.Table, error) {
	all, err := workloads.Suite()
	if err != nil {
		return nil, err
	}
	tb := report.NewTable(fmt.Sprintf("E9: managed-area fragmentation (on-demand, kc=%d)", kc),
		"workload", "policy", "frag-end", "largest-free", "failed-allocs", "overhead")
	for _, w := range all {
		// Size the managed area from an unconstrained probe run.
		probe, err := RunCell(w, core.Config{CompressK: kc}, steps)
		if err != nil {
			return nil, err
		}
		managed := (probe.PeakResident - probe.CompressedSize) * 8 / 5
		for _, pol := range []mem.FitPolicy{mem.FirstFit, mem.BestFit} {
			m, tr, err := newCell(w, core.Config{CompressK: kc, ManagedBytes: managed, Alloc: pol}, steps)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(m, tr, sim.DefaultCosts())
			if err != nil {
				return nil, err
			}
			ar := m.Image().Managed()
			_, _, failed := ar.Counters()
			tb.AddRow(w.Name, pol.String(), report.Pct(ar.ExternalFragmentation()),
				ar.LargestFree(), failed, report.Pct(res.Overhead()))
		}
	}
	return tb, nil
}

// Writeback regenerates E8: delete-only (Section 5's design) versus
// writeback compression.
func Writeback(kc, steps int) (*report.Table, error) {
	all, err := workloads.Suite()
	if err != nil {
		return nil, err
	}
	tb := report.NewTable(fmt.Sprintf("E8: delete-only vs writeback compression (on-demand, kc=%d)", kc),
		"workload", "mode", "avg-resident", "comp-thread-busy", "overhead")
	for _, w := range all {
		for _, wb := range []bool{false, true} {
			conf := core.Config{CompressK: kc, WritebackCompression: wb}
			if wb {
				conf.ManagedBytes = 4 * w.Program.TotalBytes()
			}
			res, err := RunCell(w, conf, steps)
			if err != nil {
				return nil, err
			}
			mode := "delete-only"
			if wb {
				mode = "writeback"
			}
			tb.AddRow(w.Name, mode,
				report.Pct(res.AvgResident/float64(res.UncompressedSize)),
				res.CompThreadBusy, report.Pct(res.Overhead()))
		}
	}
	return tb, nil
}
