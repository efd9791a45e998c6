// Package workloads provides the synthetic embedded benchmark suite the
// reproduction evaluates on. DATE'05-era code compression papers used
// MediaBench/MiBench-style kernels; the paper itself does not name its
// benchmarks, so this suite synthesizes eleven ERI32 programs whose CFG
// shapes, block sizes and branch probabilities reproduce the
// *access-pattern classes* that drive the technique's behaviour:
//
//   - tight hot loops with high temporal reuse (adpcm, crc32, fir),
//     where small compress-k thrashes and large k holds the loop
//     resident;
//   - nested loops with data-dependent branches (dijkstra, fft, susan),
//     where prediction quality matters for pre-decompress-single;
//   - phase-sequential pipelines (jpegdct), where blocks go cold after
//     their phase and aggressive compression is nearly free;
//   - dispatch-style code with many cold arms (mpeg2motion), the case
//     for keeping rarely-used blocks compressed;
//   - large straight-line unrolled bodies (sha), where the per-visit
//     footprint is big and lookahead hides decompression latency;
//   - Zipf-skewed dispatch (zipf), where a heavy-tailed popularity law
//     over many handler arms separates replacement policies: keeping
//     the hot head resident is easy, ranking the warm middle is not;
//   - recurring phase rotation (loopphase), where four loop nests take
//     turns being hot — the phase-change trace that punishes pure
//     frequency policies and rewards recency and prefetch.
//
// Every workload is deterministic: CFG, instruction bytes and the
// recommended trace are all seeded.
package workloads

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"apbcc/internal/cfg"
	"apbcc/internal/program"
	"apbcc/internal/trace"
)

// ErrUnknown reports a workload name not in the suite; callers branch
// on it with errors.Is.
var ErrUnknown = errors.New("workloads: unknown workload")

// Workload is one synthetic benchmark.
type Workload struct {
	// Name is the suite-unique identifier.
	Name string
	// Desc is a one-line description of the access-pattern class.
	Desc string
	// Program is the synthesized ERI32 program.
	Program *program.Program
	// TraceSteps is the recommended trace length for evaluation.
	TraceSteps int
	// Seed drives trace generation for the canonical run.
	Seed int64
}

// Trace generates the workload's canonical evaluation trace: the kernel
// invoked repeatedly (restarting at the entry whenever it finishes)
// until the step budget is consumed.
func (w *Workload) Trace() (*trace.Trace, error) {
	return trace.Generate(w.Program.Graph, trace.GenConfig{Seed: w.Seed, MaxSteps: w.TraceSteps, Restart: true})
}

type builder struct {
	name  string
	desc  string
	steps int
	graph func() *cfg.Graph
}

var builders = []builder{
	{"adpcm", "hot codec loop with a 50/50 quantizer branch", 20000, adpcmGraph},
	{"crc32", "single ultra-hot small loop", 20000, crc32Graph},
	{"dijkstra", "nested relaxation loops, 30% taken branch", 20000, dijkstraGraph},
	{"fft", "nested butterfly loops with large bodies", 20000, fftGraph},
	{"fir", "filter loop with a rare saturation path", 20000, firGraph},
	{"jpegdct", "three sequential phase loops, cold after use", 20000, jpegdctGraph},
	{"mpeg2motion", "mode dispatch with two hot and four cold arms", 20000, mpeg2Graph},
	{"sha", "long unrolled round chain inside a loop", 20000, shaGraph},
	{"susan", "scan loop with a 10% heavy neighborhood path", 20000, susanGraph},
	// Appended after the original nine: builder index feeds the synth
	// seed, so insertion order here is part of the suite's determinism
	// contract — always add new workloads at the end.
	{"zipf", "dispatch over 8 arms with Zipf(1.2)-skewed popularity", 20000, zipfGraph},
	{"loopphase", "four loop nests rotating as recurring hot phases", 20000, loopphaseGraph},
}

// Suite builds every workload in the suite, sorted by name. Each
// program is synthesized from its own builder-table seeds, so an entry
// of Suite equals what ByName returns for its name.
func Suite() ([]*Workload, error) {
	out := make([]*Workload, 0, len(builders))
	for i, b := range builders {
		w, err := build(i, b)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ByName builds one workload, synthesizing no other program: a caller
// that needs one program pays for one, not for the suite. The result
// equals Suite's entry of the same name. An unknown name reports
// ErrUnknown.
func ByName(name string) (*Workload, error) {
	i, err := index(name)
	if err != nil {
		return nil, err
	}
	return build(i, builders[i])
}

// Check reports whether name is a suite workload, with the error ByName
// would give, without synthesizing anything.
func Check(name string) error {
	_, err := index(name)
	return err
}

// index finds name in the builder table.
func index(name string) (int, error) {
	for i, b := range builders {
		if b.name == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w %q (have %v)", ErrUnknown, name, Names())
}

// build synthesizes builder i. Its index fixes both seeds, 1000+i for
// the program and 77+i for the trace, which is why builders only ever
// grow at the end.
func build(i int, b builder) (*Workload, error) {
	g := b.graph()
	g.Normalize()
	if err := g.Validate(true); err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", b.name, err)
	}
	p, err := program.Synthesize(b.name, g, int64(1000+i))
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", b.name, err)
	}
	return &Workload{
		Name:       b.name,
		Desc:       b.desc,
		Program:    p,
		TraceSteps: b.steps,
		Seed:       int64(77 + i),
	}, nil
}

// Names lists the suite's workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(builders))
	for _, b := range builders {
		names = append(names, b.name)
	}
	sort.Strings(names)
	return names
}

// adpcmGraph: init -> loop{head -> (qtrue|qfalse) -> latch} -> exit.
func adpcmGraph() *cfg.Graph {
	g := cfg.New()
	init := g.AddBlock("init", 14)
	head := g.AddBlock("loop_head", 8)
	qt := g.AddBlock("quant_true", 9)
	qf := g.AddBlock("quant_false", 8)
	latch := g.AddBlock("latch", 6)
	exit := g.AddBlock("exit", 5)
	setFunc(g, "adpcm_init", init)
	setFunc(g, "adpcm_loop", head, qt, qf, latch)
	setFunc(g, "adpcm_exit", exit)
	g.MustAddEdge(init, head, cfg.EdgeJump, 1)
	g.MustAddEdge(head, qt, cfg.EdgeTaken, 0.5)
	g.MustAddEdge(head, qf, cfg.EdgeFallthrough, 0.5)
	g.MustAddEdge(qt, latch, cfg.EdgeJump, 1)
	g.MustAddEdge(qf, latch, cfg.EdgeJump, 1)
	g.MustAddEdge(latch, head, cfg.EdgeTaken, 0.985)
	g.MustAddEdge(latch, exit, cfg.EdgeFallthrough, 0.015)
	addColdRegion(g, "adpcm_agc_reset", latch, head, 6, 16, 0.002)
	return g
}

// crc32Graph: init -> loop(body) -> exit; the loop body is tiny and
// revisited thousands of times.
func crc32Graph() *cfg.Graph {
	g := cfg.New()
	init := g.AddBlock("init", 10)
	loop := g.AddBlock("loop", 13)
	exit := g.AddBlock("exit", 4)
	setFunc(g, "crc_init", init)
	setFunc(g, "crc_loop", loop)
	setFunc(g, "crc_exit", exit)
	g.MustAddEdge(init, loop, cfg.EdgeJump, 1)
	g.MustAddEdge(loop, loop, cfg.EdgeTaken, 0.996)
	g.MustAddEdge(loop, exit, cfg.EdgeFallthrough, 0.004)
	addColdRegion(g, "crc_table_regen", loop, loop, 8, 18, 0.001)
	return g
}

// dijkstraGraph: outer loop over nodes, inner loop over edges with a
// 30%-taken relaxation branch.
func dijkstraGraph() *cfg.Graph {
	g := cfg.New()
	init := g.AddBlock("init", 16)
	outer := g.AddBlock("outer_head", 8)
	inner := g.AddBlock("inner_head", 7)
	test := g.AddBlock("relax_test", 9)
	relax := g.AddBlock("relax_do", 12)
	ilatch := g.AddBlock("inner_latch", 5)
	olatch := g.AddBlock("outer_latch", 6)
	exit := g.AddBlock("exit", 5)
	setFunc(g, "dij_init", init)
	setFunc(g, "dij_outer", outer, olatch)
	setFunc(g, "dij_inner", inner, test, relax, ilatch)
	setFunc(g, "dij_exit", exit)
	g.MustAddEdge(init, outer, cfg.EdgeJump, 1)
	g.MustAddEdge(outer, inner, cfg.EdgeJump, 1)
	g.MustAddEdge(inner, test, cfg.EdgeJump, 1)
	g.MustAddEdge(test, relax, cfg.EdgeTaken, 0.3)
	g.MustAddEdge(test, ilatch, cfg.EdgeFallthrough, 0.7)
	g.MustAddEdge(relax, ilatch, cfg.EdgeJump, 1)
	g.MustAddEdge(ilatch, inner, cfg.EdgeTaken, 0.9)
	g.MustAddEdge(ilatch, olatch, cfg.EdgeFallthrough, 0.1)
	g.MustAddEdge(olatch, outer, cfg.EdgeTaken, 0.95)
	g.MustAddEdge(olatch, exit, cfg.EdgeFallthrough, 0.05)
	addColdRegion(g, "dij_overflow_fix", olatch, outer, 7, 15, 0.002)
	return g
}

// fftGraph: stage loop around a butterfly loop with large numeric
// bodies and a twiddle-refresh branch.
func fftGraph() *cfg.Graph {
	g := cfg.New()
	init := g.AddBlock("init", 18)
	stage := g.AddBlock("stage_head", 8)
	bfly := g.AddBlock("butterfly", 26)
	twid := g.AddBlock("twiddle", 16)
	blatch := g.AddBlock("bfly_latch", 5)
	slatch := g.AddBlock("stage_latch", 6)
	exit := g.AddBlock("exit", 6)
	setFunc(g, "fft_init", init)
	setFunc(g, "fft_stage", stage, slatch)
	setFunc(g, "fft_bfly", bfly, twid, blatch)
	setFunc(g, "fft_exit", exit)
	g.MustAddEdge(init, stage, cfg.EdgeJump, 1)
	g.MustAddEdge(stage, bfly, cfg.EdgeJump, 1)
	g.MustAddEdge(bfly, twid, cfg.EdgeTaken, 0.12)
	g.MustAddEdge(bfly, blatch, cfg.EdgeFallthrough, 0.88)
	g.MustAddEdge(twid, blatch, cfg.EdgeJump, 1)
	g.MustAddEdge(blatch, bfly, cfg.EdgeTaken, 0.93)
	g.MustAddEdge(blatch, slatch, cfg.EdgeFallthrough, 0.07)
	g.MustAddEdge(slatch, stage, cfg.EdgeTaken, 0.9)
	g.MustAddEdge(slatch, exit, cfg.EdgeFallthrough, 0.1)
	addColdRegion(g, "fft_bitrev_rebuild", slatch, stage, 8, 18, 0.002)
	return g
}

// firGraph: accumulate loop with a rare saturation path.
func firGraph() *cfg.Graph {
	g := cfg.New()
	init := g.AddBlock("init", 12)
	loop := g.AddBlock("mac_loop", 15)
	sat := g.AddBlock("saturate", 10)
	latch := g.AddBlock("latch", 5)
	exit := g.AddBlock("exit", 4)
	setFunc(g, "fir_init", init)
	setFunc(g, "fir_loop", loop, sat, latch)
	setFunc(g, "fir_exit", exit)
	g.MustAddEdge(init, loop, cfg.EdgeJump, 1)
	g.MustAddEdge(loop, sat, cfg.EdgeTaken, 0.02)
	g.MustAddEdge(loop, latch, cfg.EdgeFallthrough, 0.98)
	g.MustAddEdge(sat, latch, cfg.EdgeJump, 1)
	g.MustAddEdge(latch, loop, cfg.EdgeTaken, 0.99)
	g.MustAddEdge(latch, exit, cfg.EdgeFallthrough, 0.01)
	addColdRegion(g, "fir_coeff_reload", latch, loop, 6, 16, 0.002)
	return g
}

// jpegdctGraph: three sequential phase loops (row pass, column pass,
// quantization); each phase goes cold once finished — the access
// pattern where the k-edge algorithm recovers the most memory.
func jpegdctGraph() *cfg.Graph {
	g := cfg.New()
	init := g.AddBlock("init", 12)
	rows := g.AddBlock("row_pass", 22)
	rlatch := g.AddBlock("row_latch", 5)
	cols := g.AddBlock("col_pass", 22)
	clatch := g.AddBlock("col_latch", 5)
	quant := g.AddBlock("quant_pass", 18)
	qlatch := g.AddBlock("quant_latch", 5)
	exit := g.AddBlock("exit", 5)
	setFunc(g, "dct_init", init)
	setFunc(g, "dct_rows", rows, rlatch)
	setFunc(g, "dct_cols", cols, clatch)
	setFunc(g, "dct_quant", quant, qlatch)
	setFunc(g, "dct_exit", exit)
	g.MustAddEdge(init, rows, cfg.EdgeJump, 1)
	g.MustAddEdge(rows, rlatch, cfg.EdgeFallthrough, 1)
	g.MustAddEdge(rlatch, rows, cfg.EdgeTaken, 0.975)
	g.MustAddEdge(rlatch, cols, cfg.EdgeFallthrough, 0.025)
	g.MustAddEdge(cols, clatch, cfg.EdgeFallthrough, 1)
	g.MustAddEdge(clatch, cols, cfg.EdgeTaken, 0.975)
	g.MustAddEdge(clatch, quant, cfg.EdgeFallthrough, 0.025)
	g.MustAddEdge(quant, qlatch, cfg.EdgeFallthrough, 1)
	g.MustAddEdge(qlatch, quant, cfg.EdgeTaken, 0.97)
	g.MustAddEdge(qlatch, exit, cfg.EdgeFallthrough, 0.03)
	addColdRegion(g, "dct_huff_reset", qlatch, quant, 7, 16, 0.002)
	return g
}

// mpeg2Graph: a motion-compensation dispatch loop with six mode arms;
// two are hot, four are cold — the many-cold-blocks case.
func mpeg2Graph() *cfg.Graph {
	g := cfg.New()
	init := g.AddBlock("init", 14)
	disp := g.AddBlock("dispatch", 10)
	modes := []struct {
		label string
		words int
		prob  float64
	}{
		{"mode_fwd", 20, 0.40},
		{"mode_bwd", 18, 0.35},
		{"mode_bidir", 25, 0.10},
		{"mode_intra", 22, 0.07},
		{"mode_skip", 15, 0.05},
		{"mode_field", 24, 0.03},
	}
	latch := g.AddBlock("latch", 6)
	exit := g.AddBlock("exit", 5)
	setFunc(g, "mc_init", init)
	setFunc(g, "mc_dispatch", disp, latch)
	g.MustAddEdge(init, disp, cfg.EdgeJump, 1)
	for _, m := range modes {
		id := g.AddBlock(m.label, m.words)
		setFunc(g, "mc_"+m.label, id)
		g.MustAddEdge(disp, id, cfg.EdgeTaken, m.prob)
		g.MustAddEdge(id, latch, cfg.EdgeJump, 1)
	}
	setFunc(g, "mc_exit", exit)
	g.MustAddEdge(latch, disp, cfg.EdgeTaken, 0.99)
	g.MustAddEdge(latch, exit, cfg.EdgeFallthrough, 0.01)
	addColdRegion(g, "mc_error_conceal", latch, disp, 8, 20, 0.002)
	return g
}

// shaGraph: a loop over a chain of unrolled round blocks, each large —
// high per-iteration footprint with strictly sequential access.
func shaGraph() *cfg.Graph {
	g := cfg.New()
	init := g.AddBlock("init", 14)
	const rounds = 8
	ids := make([]cfg.BlockID, rounds)
	for i := range ids {
		ids[i] = g.AddBlock(fmt.Sprintf("round%d", i), 20)
	}
	latch := g.AddBlock("latch", 6)
	exit := g.AddBlock("exit", 5)
	setFunc(g, "sha_init", init)
	setFunc(g, "sha_rounds", ids...)
	setFunc(g, "sha_exit", exit)
	g.MustAddEdge(init, ids[0], cfg.EdgeJump, 1)
	for i := 0; i+1 < rounds; i++ {
		g.MustAddEdge(ids[i], ids[i+1], cfg.EdgeJump, 1)
	}
	g.MustAddEdge(ids[rounds-1], latch, cfg.EdgeJump, 1)
	setFuncID(g, "sha_rounds", latch)
	g.MustAddEdge(latch, ids[0], cfg.EdgeTaken, 0.97)
	g.MustAddEdge(latch, exit, cfg.EdgeFallthrough, 0.03)
	addColdRegion(g, "sha_key_schedule", latch, ids[0], 10, 20, 0.002)
	return g
}

// susanGraph: image scan loop; 10% of pixels take a heavy neighborhood
// analysis block.
func susanGraph() *cfg.Graph {
	g := cfg.New()
	init := g.AddBlock("init", 12)
	scan := g.AddBlock("scan", 10)
	heavy := g.AddBlock("neighborhood", 30)
	light := g.AddBlock("skip_pixel", 6)
	latch := g.AddBlock("latch", 5)
	exit := g.AddBlock("exit", 4)
	setFunc(g, "susan_init", init)
	setFunc(g, "susan_scan", scan, light, latch)
	setFunc(g, "susan_heavy", heavy)
	setFunc(g, "susan_exit", exit)
	g.MustAddEdge(init, scan, cfg.EdgeJump, 1)
	g.MustAddEdge(scan, heavy, cfg.EdgeTaken, 0.1)
	g.MustAddEdge(scan, light, cfg.EdgeFallthrough, 0.9)
	g.MustAddEdge(heavy, latch, cfg.EdgeJump, 1)
	g.MustAddEdge(light, latch, cfg.EdgeJump, 1)
	g.MustAddEdge(latch, scan, cfg.EdgeTaken, 0.992)
	g.MustAddEdge(latch, exit, cfg.EdgeFallthrough, 0.008)
	addColdRegion(g, "susan_border_fix", latch, scan, 6, 18, 0.002)
	return g
}

// zipfGraph: a dispatch loop over eight handler arms whose selection
// probabilities follow a Zipf law with exponent 1.2 — the skewed
// popularity distribution of content-serving workloads. The head arm
// dominates, the tail arms are individually cold but collectively
// large, and the warm middle is where replacement policies diverge:
// LRU churns it, LFU pins it, cost-aware ranks it by rebuild price.
func zipfGraph() *cfg.Graph {
	g := cfg.New()
	init := g.AddBlock("init", 12)
	disp := g.AddBlock("dispatch", 9)
	latch := g.AddBlock("latch", 6)
	exit := g.AddBlock("exit", 5)
	setFunc(g, "zipf_init", init)
	setFunc(g, "zipf_dispatch", disp, latch)
	setFunc(g, "zipf_exit", exit)
	g.MustAddEdge(init, disp, cfg.EdgeJump, 1)
	const arms = 8
	const s = 1.2
	total := 0.0
	weights := make([]float64, arms)
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		total += weights[i]
	}
	for i, w := range weights {
		// Arm bodies grow down the tail: the rarely-hit arms are the
		// big ones, so keeping them compressed is what pays.
		id := g.AddBlock(fmt.Sprintf("arm%d", i), 12+2*i)
		setFunc(g, fmt.Sprintf("zipf_arm%d", i), id)
		g.MustAddEdge(disp, id, cfg.EdgeTaken, w/total)
		g.MustAddEdge(id, latch, cfg.EdgeJump, 1)
	}
	g.MustAddEdge(latch, disp, cfg.EdgeTaken, 0.995)
	g.MustAddEdge(latch, exit, cfg.EdgeFallthrough, 0.005)
	addColdRegion(g, "zipf_stats_flush", latch, disp, 7, 16, 0.002)
	return g
}

// loopphaseGraph: four loop nests executed as rotating phases inside
// an outer loop — phase changes recur instead of happening once (the
// jpegdct pattern), so a policy must keep re-learning which nest is
// hot. Bodies differ in size so eviction choices have asymmetric cost.
func loopphaseGraph() *cfg.Graph {
	g := cfg.New()
	init := g.AddBlock("init", 12)
	outer := g.AddBlock("outer_head", 7)
	exit := g.AddBlock("exit", 5)
	setFunc(g, "lp_init", init)
	setFunc(g, "lp_outer", outer)
	setFunc(g, "lp_exit", exit)
	g.MustAddEdge(init, outer, cfg.EdgeJump, 1)
	const phases = 4
	prevLatch := outer
	prevKind := cfg.EdgeJump
	prevProb := 1.0
	for p := 0; p < phases; p++ {
		head := g.AddBlock(fmt.Sprintf("phase%d_head", p), 8)
		body := g.AddBlock(fmt.Sprintf("phase%d_body", p), 16+4*p)
		latch := g.AddBlock(fmt.Sprintf("phase%d_latch", p), 5)
		setFunc(g, fmt.Sprintf("lp_phase%d", p), head, body, latch)
		g.MustAddEdge(prevLatch, head, prevKind, prevProb)
		g.MustAddEdge(head, body, cfg.EdgeFallthrough, 1)
		g.MustAddEdge(body, latch, cfg.EdgeJump, 1)
		g.MustAddEdge(latch, head, cfg.EdgeTaken, 0.96)
		prevLatch, prevKind, prevProb = latch, cfg.EdgeFallthrough, 0.04
	}
	// The last phase hands back to the outer loop: phases recur.
	olatch := g.AddBlock("outer_latch", 6)
	setFunc(g, "lp_outer", olatch)
	g.MustAddEdge(prevLatch, olatch, cfg.EdgeFallthrough, 0.04)
	g.MustAddEdge(olatch, outer, cfg.EdgeTaken, 0.9)
	g.MustAddEdge(olatch, exit, cfg.EdgeFallthrough, 0.1)
	addColdRegion(g, "lp_phase_reset", olatch, outer, 6, 15, 0.002)
	return g
}

// addColdRegion hangs a rarely-executed region — error handling,
// re-initialization, diagnostic paths — off an existing block,
// rejoining the main flow afterwards. Embedded binaries devote most of
// their bytes to such code ("for most programs, a large fraction of the
// code is rarely touched", Section 6 citing Debray & Evans); it is what
// makes keeping blocks compressed profitable, so every workload carries
// a realistic cold fraction.
func addColdRegion(g *cfg.Graph, fn string, from, rejoin cfg.BlockID, n, words int, prob float64) {
	prev := from
	for i := 0; i < n; i++ {
		id := g.AddBlock(fmt.Sprintf("%s%d", fn, i), words)
		g.Block(id).Func = fn
		if i == 0 {
			g.MustAddEdge(prev, id, cfg.EdgeTaken, prob)
		} else {
			g.MustAddEdge(prev, id, cfg.EdgeJump, 1)
		}
		prev = id
	}
	g.MustAddEdge(prev, rejoin, cfg.EdgeJump, 1)
}

// setFunc labels blocks with a function name for the granularity
// ablation.
func setFunc(g *cfg.Graph, fn string, ids ...cfg.BlockID) {
	for _, id := range ids {
		g.Block(id).Func = fn
	}
}

// setFuncID is setFunc for a single block (readability at call sites
// that add blocks late).
func setFuncID(g *cfg.Graph, fn string, id cfg.BlockID) { g.Block(id).Func = fn }
