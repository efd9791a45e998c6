package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/program"
	"apbcc/internal/trace"
)

// buildProgram synthesizes a program from a figure CFG.
func buildProgram(t testing.TB, g *cfg.Graph) *program.Program {
	t.Helper()
	p, err := program.Synthesize("test", g, 11)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newManager builds a Manager over a program with a trained dict codec
// and the given tweaks applied to a default config.
func newManager(t testing.TB, p *program.Program, tweak func(*Config)) *Manager {
	t.Helper()
	code, err := p.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := compress.New("dict", code)
	if err != nil {
		t.Fatal(err)
	}
	conf := Config{Codec: codec, CompressK: 2, Strategy: OnDemand, RecordEvents: true}
	if tweak != nil {
		tweak(&conf)
	}
	m, err := NewManager(p, conf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// drive feeds a label path through the manager, returning transitions.
func drive(t testing.TB, m *Manager, p *program.Program, labels ...string) []*Transition {
	t.Helper()
	tr, err := trace.FromLabels(p.Graph, labels...)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Transition
	prev := cfg.None
	for _, b := range tr.Blocks {
		x, err := m.EnterBlock(prev, b)
		if err != nil {
			t.Fatalf("EnterBlock(%v,%v): %v", prev, b, err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after EnterBlock(%v,%v): %v", prev, b, err)
		}
		out = append(out, x)
		prev = b
	}
	return out
}

func unitOfLabel(t testing.TB, m *Manager, p *program.Program, label string) UnitID {
	t.Helper()
	b, ok := p.Graph.BlockByLabel(label)
	if !ok {
		t.Fatalf("no block %q", label)
	}
	return m.UnitOf(b.ID)
}

func TestConfigValidate(t *testing.T) {
	codec, err := compress.New("identity", nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		conf Config
		ok   bool
	}{
		{"missing codec", Config{CompressK: 1}, false},
		{"bad k", Config{Codec: codec, CompressK: 0}, false},
		{"ok on-demand", Config{Codec: codec, CompressK: 1}, true},
		{"preall no k", Config{Codec: codec, CompressK: 1, Strategy: PreAll}, false},
		{"preall ok", Config{Codec: codec, CompressK: 1, Strategy: PreAll, DecompressK: 2}, true},
		{"presingle no predictor", Config{Codec: codec, CompressK: 1, Strategy: PreSingle, DecompressK: 1}, false},
		{"bad strategy", Config{Codec: codec, CompressK: 1, Strategy: Strategy(9)}, false},
		{"negative budget", Config{Codec: codec, CompressK: 1, BudgetBytes: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.conf.Validate()
			if (err == nil) != c.ok {
				t.Errorf("Validate = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

// TestFigure5GoldenTrace replays the paper's Figure 5 scenario: all
// blocks start compressed, the access pattern is B0,B1,B0,B1,B3,
// on-demand decompression, k=2. The nine numbered steps of the figure
// map onto five transitions.
func TestFigure5GoldenTrace(t *testing.T) {
	p := buildProgram(t, cfg.Figure5())
	m := newManager(t, p, nil) // on-demand, k=2
	u := func(l string) UnitID { return unitOfLabel(t, m, p, l) }

	trs := drive(t, m, p, "B0", "B1", "B0", "B1", "B3")

	// Steps (1)-(2): initial fetch of B0 traps and decompresses B0'.
	if !trs[0].Exception || trs[0].Demand == nil || trs[0].Demand.Unit != u("B0") {
		t.Errorf("step 1-2: %+v", trs[0])
	}
	if trs[0].Patches != 0 {
		t.Errorf("step 1-2: initial entry patched %d sites", trs[0].Patches)
	}

	// Steps (3)-(4): B1 traps, decompresses B1', patches B0's branch.
	if !trs[1].Exception || trs[1].Demand == nil || trs[1].Demand.Unit != u("B1") {
		t.Errorf("step 3-4: %+v", trs[1])
	}
	if trs[1].Patches != 1 {
		t.Errorf("step 3-4: patches = %d, want 1", trs[1].Patches)
	}
	if len(trs[1].Deletes) != 0 {
		t.Errorf("step 3-4: unexpected deletes (k=2)")
	}

	// Steps (5)-(6): revisiting B0 traps (stale branch) but does NOT
	// decompress again; the handler just patches B1's branch to B0'.
	if !trs[2].Exception {
		t.Error("step 5-6: no exception")
	}
	if trs[2].Demand != nil {
		t.Error("step 5-6: B0 was decompressed twice")
	}
	if trs[2].Patches != 1 {
		t.Errorf("step 5-6: patches = %d, want 1", trs[2].Patches)
	}

	// Step (7): B0'->B1' directly, no exception at all.
	if trs[3].Exception || trs[3].Demand != nil || trs[3].Patches != 0 {
		t.Errorf("step 7: %+v", trs[3])
	}

	// Steps (8)-(9): entering B3 traps, decompresses B3', and the k=2
	// counter deletes B0' (B1' survives with counter 1).
	if !trs[4].Exception || trs[4].Demand == nil || trs[4].Demand.Unit != u("B3") {
		t.Errorf("step 8-9: %+v", trs[4])
	}
	if len(trs[4].Deletes) != 1 || trs[4].Deletes[0].Unit != u("B0") {
		t.Errorf("step 8-9: deletes = %+v, want exactly B0", trs[4].Deletes)
	}
	if !m.IsLive(u("B1")) || !m.IsLive(u("B3")) {
		t.Error("step 9: B1' or B3' missing")
	}
	if m.IsLive(u("B0")) || m.IsLive(u("B2")) {
		t.Error("step 9: B0' still live or B2 materialized")
	}

	// The delete of B0' must unpatch both directions: B1's site into B0'
	// and B0's own patched site into B1'.
	if trs[4].Deletes[0].Sites != 2 {
		t.Errorf("step 9: delete patched %d sites, want 2", trs[4].Deletes[0].Sites)
	}

	// Whole-run stats: 4 exceptions (steps 2,4,6,9), 3 demand
	// decompressions (B0,B1,B3), 1 delete.
	s := m.Stats()
	if s.Exceptions != 4 {
		t.Errorf("exceptions = %d, want 4", s.Exceptions)
	}
	if s.DemandDecompresses != 3 {
		t.Errorf("demand decompressions = %d, want 3", s.DemandDecompresses)
	}
	if s.Deletes != 1 {
		t.Errorf("deletes = %d, want 1", s.Deletes)
	}
	if s.Prefetches != 0 {
		t.Errorf("prefetches = %d under on-demand", s.Prefetches)
	}

	// Event log sanity: the decompress events are B0, B1, B3 in order.
	var dec []string
	for _, e := range filterEvents(m.Events(), EvDecompress) {
		dec = append(dec, p.Graph.Block(e.Block).Label)
	}
	if got := strings.Join(dec, ","); got != "B0,B1,B3" {
		t.Errorf("decompress order = %s, want B0,B1,B3", got)
	}
}

// TestFigure1GoldenKEdge replays the Figure 1 worked example: after
// visiting B1 and traversing edges a (B1->B3) and b (B3->B4), the
// 2-edge algorithm compresses B1 just before execution enters B4.
func TestFigure1GoldenKEdge(t *testing.T) {
	p := buildProgram(t, cfg.Figure1())
	m := newManager(t, p, nil) // k = 2
	u := func(l string) UnitID { return unitOfLabel(t, m, p, l) }

	// Drive up to B3 first (edge a traversed): B1's counter is 1, so it
	// must still be live; B0's counter hits 2 and is deleted.
	trs := drive(t, m, p, "B0", "B1", "B3")
	if !m.IsLive(u("B1")) {
		t.Fatal("B1 deleted too early (after edge a)")
	}
	foundB0 := false
	for _, d := range trs[2].Deletes {
		if d.Unit == u("B0") {
			foundB0 = true
		}
	}
	if !foundB0 {
		t.Error("B0 not compressed two edges after its execution")
	}
	// Traverse edge b into B4: B1's counter reaches 2 — the figure's
	// "Compress B1" arrow fires just before execution enters B4.
	b3, _ := p.Graph.BlockByLabel("B3")
	b4, _ := p.Graph.BlockByLabel("B4")
	x, err := m.EnterBlock(b3.ID, b4.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Deletes) != 1 || x.Deletes[0].Unit != u("B1") {
		t.Errorf("entering B4: deletes = %+v, want exactly B1", x.Deletes)
	}
	if m.IsLive(u("B1")) {
		t.Error("B1 still live after entering B4")
	}
}

// TestFigure2GoldenPreDecompression verifies the two Section 4 worked
// examples on the Figure 2 CFG.
func TestFigure2GoldenPreDecompression(t *testing.T) {
	t.Run("k3-single-path", func(t *testing.T) {
		// k=3: B7's pre-decompression is issued when execution exits B1.
		p := buildProgram(t, cfg.Figure2())
		m := newManager(t, p, func(c *Config) {
			c.Strategy = PreAll
			c.DecompressK = 3
			c.CompressK = 100 // keep copies alive; this test is about issue timing
		})
		u := func(l string) UnitID { return unitOfLabel(t, m, p, l) }
		trs := drive(t, m, p, "B1", "B0")
		// Transition 0 is the initial entry into B1 (anchored at B1 but
		// covering its k=3 look-ahead row {B0,B3,B4,B5,B7,B8,B9}); the figure's
		// moment is the exit of B1 = transition 1. B7 must have been
		// issued by then and not before the exit of B1's entry edge...
		// The defining property: B7 is issued at the *exit* of B1, i.e.
		// no later than transition 1, because dist(B1->B7) == 3 == k.
		issued := map[UnitID]bool{}
		for _, x := range trs[:2] {
			for _, j := range x.Prefetches {
				issued[j.Unit] = true
			}
		}
		if !issued[u("B7")] {
			t.Error("B7 not pre-decompressed by the time execution exits B1 (k=3)")
		}
		// With k=2 instead, B7 (3 edges away) must NOT be prefetched at
		// B1's exit.
		p2 := buildProgram(t, cfg.Figure2())
		m2 := newManager(t, p2, func(c *Config) {
			c.Strategy = PreAll
			c.DecompressK = 2
			c.CompressK = 100
		})
		u2 := func(l string) UnitID { return unitOfLabel(t, m2, p2, l) }
		trs2 := drive(t, m2, p2, "B1", "B0")
		for _, x := range trs2 {
			for _, j := range x.Prefetches {
				if j.Unit == u2("B7") {
					t.Error("B7 prefetched with k=2 although it is 3 edges from B1")
				}
			}
		}
	})

	t.Run("k2-pre-all", func(t *testing.T) {
		// Pre-decompress-all with k=2: when execution leaves B0, every
		// still-compressed block within 2 edges of B0's exit is issued.
		p := buildProgram(t, cfg.Figure2())
		m := newManager(t, p, func(c *Config) {
			c.Strategy = PreAll
			c.DecompressK = 2
			c.CompressK = 100
		})
		u := func(l string) UnitID { return unitOfLabel(t, m, p, l) }
		trs := drive(t, m, p, "B1", "B0", "B3")
		// After entering B0 (transition 1, anchor B1, k=2) the issued
		// set is {B0 demand, B3, B4 prefetched}. Leaving B0 (transition
		// 2, anchor B0) must issue exactly the compressed remainder of
		// B0's k=2 look-ahead row, {B5, B7, B8, B9}.
		got := map[UnitID]bool{}
		for _, j := range trs[2].Prefetches {
			got[j.Unit] = true
		}
		for _, want := range []string{"B5", "B7", "B8", "B9"} {
			if !got[u(want)] {
				t.Errorf("pre-all at B0 exit: %s not issued", want)
			}
		}
		if got[u("B4")] {
			t.Error("pre-all re-issued already-live B4")
		}
		if len(got) != 4 {
			t.Errorf("pre-all issued %d units, want 4", len(got))
		}
	})

	t.Run("k2-pre-single", func(t *testing.T) {
		// Pre-decompress-single picks exactly one block among the
		// still-compressed candidates within 2 edges of B0's exit —
		// the paper's "predict the block (among these four) that is to
		// be the most likely one to be reached". At B0's exit the
		// compressed candidates are {B4, B5, B7, B8, B9} (B3 was the
		// single prefetch of the previous edge) and the most probable
		// is B4 at 0.4.
		p := buildProgram(t, cfg.Figure2())
		m := newManager(t, p, func(c *Config) {
			c.Strategy = PreSingle
			c.DecompressK = 2
			c.CompressK = 100
			c.Predictor = trace.NewStatic(p.Graph)
		})
		u := func(l string) UnitID { return unitOfLabel(t, m, p, l) }
		trs := drive(t, m, p, "B1", "B0", "B3")
		// Each transition issues at most one prefetch.
		for i, x := range trs {
			if len(x.Prefetches) > 1 {
				t.Errorf("transition %d issued %d prefetches", i, len(x.Prefetches))
			}
		}
		if len(trs[2].Prefetches) != 1 {
			t.Fatalf("pre-single issued %d prefetches, want 1", len(trs[2].Prefetches))
		}
		if got := trs[2].Prefetches[0].Unit; got != u("B4") {
			t.Errorf("pre-single picked unit %d, want B4 (p=0.4)", got)
		}
	})
}

func TestOnDemandNeverPrefetches(t *testing.T) {
	p := buildProgram(t, cfg.Figure2())
	m := newManager(t, p, nil)
	tr, err := trace.Generate(p.Graph, trace.GenConfig{Seed: 3, MaxSteps: 500})
	if err != nil {
		t.Fatal(err)
	}
	prev := cfg.None
	for _, b := range tr.Blocks {
		x, err := m.EnterBlock(prev, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(x.Prefetches) != 0 {
			t.Fatal("on-demand issued a prefetch")
		}
		prev = b
	}
	if m.Stats().Prefetches != 0 {
		t.Error("prefetch counter nonzero")
	}
}

func TestEnterBlockRejectsNonEdge(t *testing.T) {
	p := buildProgram(t, cfg.Figure5())
	m := newManager(t, p, nil)
	b0, _ := p.Graph.BlockByLabel("B0")
	b3, _ := p.Graph.BlockByLabel("B3")
	if _, err := m.EnterBlock(cfg.None, b0.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnterBlock(b0.ID, b3.ID); err == nil {
		t.Error("non-edge traversal accepted")
	}
	if _, err := m.EnterBlock(b0.ID, 99); err == nil {
		t.Error("unknown block accepted")
	}
}

func TestKEdgeCounterResetOnRevisit(t *testing.T) {
	// A loop B0<->B1 with k=2 must never delete either block: counters
	// are reset on each execution before reaching k.
	p := buildProgram(t, cfg.Figure5())
	m := newManager(t, p, nil)
	trs := drive(t, m, p, "B0", "B1", "B0", "B1", "B0", "B1", "B0")
	for i, x := range trs {
		if len(x.Deletes) != 0 {
			t.Errorf("transition %d deleted %v", i, x.Deletes)
		}
	}
	if m.Stats().Deletes != 0 {
		t.Error("deletes in a tight loop with k=2")
	}
	// Only the first two entries trap for decompression; afterwards both
	// directions are patched.
	if m.Stats().DemandDecompresses != 2 {
		t.Errorf("demand decompresses = %d, want 2", m.Stats().DemandDecompresses)
	}
	// Traps: B0 initial (decompress), B1 (decompress + patch B0->B1),
	// B0 revisit (patch B1->B0 only); every later entry branches
	// directly into the copies.
	if m.Stats().Exceptions != 3 {
		t.Errorf("exceptions = %d, want 3", m.Stats().Exceptions)
	}
}

func TestK1DeletesAggressively(t *testing.T) {
	// k=1: the block left behind is compressed after one edge, so every
	// revisit re-decompresses (the paper's "frequent compressions and
	// decompressions" warning for small k).
	p := buildProgram(t, cfg.Figure5())
	m := newManager(t, p, func(c *Config) { c.CompressK = 1 })
	drive(t, m, p, "B0", "B1", "B0", "B1", "B3")
	s := m.Stats()
	if s.DemandDecompresses != 5 {
		t.Errorf("demand decompresses = %d, want 5 (every entry)", s.DemandDecompresses)
	}
	if s.Deletes != 4 {
		t.Errorf("deletes = %d, want 4", s.Deletes)
	}
}

func TestLargeKKeepsEverything(t *testing.T) {
	p := buildProgram(t, cfg.Figure5())
	m := newManager(t, p, func(c *Config) { c.CompressK = 1000 })
	drive(t, m, p, "B0", "B1", "B0", "B1", "B3")
	if m.Stats().Deletes != 0 {
		t.Error("deletes with huge k")
	}
	if m.Stats().DemandDecompresses != 3 {
		t.Errorf("demand = %d, want 3 (B0,B1,B3 once each)", m.Stats().DemandDecompresses)
	}
}

func TestResidentAccounting(t *testing.T) {
	p := buildProgram(t, cfg.Figure5())
	m := newManager(t, p, func(c *Config) { c.CompressK = 1000 })
	if m.Resident() != m.CompressedSize() {
		t.Error("initial resident != compressed size")
	}
	drive(t, m, p, "B0", "B1")
	b0, _ := p.Graph.BlockByLabel("B0")
	b1, _ := p.Graph.BlockByLabel("B1")
	want := m.CompressedSize() + b0.Bytes() + b1.Bytes()
	if m.Resident() != want {
		t.Errorf("resident = %d, want %d", m.Resident(), want)
	}
	if m.CompressedSize() >= m.UncompressedSize() {
		t.Errorf("compressed %d >= uncompressed %d: dict codec failed on this program",
			m.CompressedSize(), m.UncompressedSize())
	}
}

// copyBytes returns the decompressed image of a live unit, validating
// it against the original program bytes, so tests can prove the
// runtime executes exactly the original code.
func copyBytes(m *Manager, id UnitID) ([]byte, error) {
	u := m.units[id]
	if u.state != stateLive && u.state != stateIssued {
		return nil, fmt.Errorf("core: unit %d has no copy", id)
	}
	out, err := m.conf.Codec.DecompressAppend(make([]byte, 0, len(u.plain)), u.comp)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(out, u.plain) {
		return nil, fmt.Errorf("core: unit %d copy diverges from original", id)
	}
	return out, nil
}

func TestCopyBytesMatchOriginal(t *testing.T) {
	p := buildProgram(t, cfg.Figure5())
	m := newManager(t, p, nil)
	drive(t, m, p, "B0", "B1")
	b1, _ := p.Graph.BlockByLabel("B1")
	img, err := copyBytes(m, m.UnitOf(b1.ID))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := p.BlockBytes(b1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(img) != string(orig) {
		t.Error("decompressed copy differs from original block image")
	}
	b2, _ := p.Graph.BlockByLabel("B2")
	if _, err := copyBytes(m, m.UnitOf(b2.ID)); err == nil {
		t.Error("copyBytes of a compressed unit succeeded")
	}
}

func TestBudgetEviction(t *testing.T) {
	p := buildProgram(t, cfg.Figure5())
	// Budget: compressed area + room for ~1.5 blocks. Entering blocks
	// in sequence must evict LRU copies rather than fail.
	code, _ := p.CodeBytes()
	codec, _ := compress.New("dict", code)
	probe, err := NewManager(p, Config{Codec: codec, CompressK: 100})
	if err != nil {
		t.Fatal(err)
	}
	b0, _ := p.Graph.BlockByLabel("B0")
	b1, _ := p.Graph.BlockByLabel("B1")
	budget := probe.CompressedSize() + b0.Bytes() + b1.Bytes()/2

	m := newManager(t, p, func(c *Config) {
		c.CompressK = 100
		c.BudgetBytes = budget
	})
	trs := drive(t, m, p, "B0", "B1", "B0", "B1", "B3")
	if m.Stats().Evictions == 0 {
		t.Fatal("no evictions under a tight budget")
	}
	evicted := 0
	for _, x := range trs {
		evicted += x.Evicted
	}
	if int64(evicted) != m.Stats().Evictions {
		t.Errorf("transition evictions %d != stats %d", evicted, m.Stats().Evictions)
	}
}

// TestEvictionPatchesCharged: every branch-site update is charged,
// either to the handler (Transition.Patches: the entry patch plus the
// sites a synchronous eviction unpatches) or to the compression thread
// (a delete Job's Sites). The budgeted run must include evictions that
// unpatch sites, or it would prove nothing.
func TestEvictionPatchesCharged(t *testing.T) {
	p := buildProgram(t, cfg.Figure2())
	code, _ := p.CodeBytes()
	codec, _ := compress.New("dict", code)
	probe, err := NewManager(p, Config{Codec: codec, CompressK: 4})
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.CompressedSize() + p.TotalBytes()/2
	m := newManager(t, p, func(c *Config) {
		c.CompressK = 4
		c.BudgetBytes = budget
	})
	tr, err := trace.Generate(p.Graph, trace.GenConfig{Seed: 5, MaxSteps: 2000, Restart: true})
	if err != nil {
		t.Fatal(err)
	}
	prev := cfg.None
	evictionPatches := 0
	for step, b := range tr.Blocks {
		if prev != cfg.None && len(p.Graph.Succs(prev)) == 0 {
			prev = cfg.None
		}
		before := m.Stats().Patches
		x, err := m.EnterBlock(prev, b)
		if err != nil {
			t.Fatal(err)
		}
		charged := x.Patches
		for _, d := range x.Deletes {
			charged += d.Sites
		}
		if got := m.Stats().Patches - before; got != int64(charged) {
			t.Fatalf("step %d: %d sites updated, %d charged (transition %+v)", step, got, charged, x)
		}
		if x.Evicted > 0 && x.Patches > 1 { // at most one entry patch per edge
			evictionPatches++
		}
		prev = b
	}
	if evictionPatches == 0 {
		t.Fatal("no eviction unpatched a site; the budget exercises nothing")
	}
}

func TestBudgetTooSmallRejected(t *testing.T) {
	p := buildProgram(t, cfg.Figure5())
	code, _ := p.CodeBytes()
	codec, _ := compress.New("dict", code)
	_, err := NewManager(p, Config{Codec: codec, CompressK: 2, BudgetBytes: 10})
	if err == nil {
		t.Error("infeasible budget accepted")
	}
}

func TestManagedAreaExhaustion(t *testing.T) {
	p := buildProgram(t, cfg.Figure5())
	code, _ := p.CodeBytes()
	codec, _ := compress.New("dict", code)
	// Managed area fits only one large block; no budget, so no LRU: the
	// second demand decompression must fail loudly.
	m, err := NewManager(p, Config{Codec: codec, CompressK: 1000, ManagedBytes: 40})
	if err != nil {
		t.Fatal(err)
	}
	b0, _ := p.Graph.BlockByLabel("B0")
	b1, _ := p.Graph.BlockByLabel("B1")
	if _, err := m.EnterBlock(cfg.None, b0.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnterBlock(b0.ID, b1.ID); err == nil {
		t.Error("exhausted managed area did not error on demand decompression")
	}
}

func TestWritebackModeDefersFree(t *testing.T) {
	p := buildProgram(t, cfg.Figure1())
	m := newManager(t, p, func(c *Config) { c.WritebackCompression = true })
	u := func(l string) UnitID { return unitOfLabel(t, m, p, l) }
	trs := drive(t, m, p, "B0", "B1", "B3")
	// Entering B3 deletes B0 (k=2) as a writeback job; its memory stays
	// claimed until FinishDelete.
	var job *Job
	for i := range trs[2].Deletes {
		if trs[2].Deletes[i].Unit == u("B0") {
			job = &trs[2].Deletes[i]
		}
	}
	if job == nil || job.Kind != JobWriteback {
		t.Fatalf("deletes = %+v, want writeback of B0", trs[2].Deletes)
	}
	b0, _ := p.Graph.BlockByLabel("B0")
	before := m.Resident()
	if err := m.FinishDelete(m.UnitOf(b0.ID)); err != nil {
		t.Fatal(err)
	}
	if m.Resident() != before-b0.Bytes() {
		t.Errorf("resident %d -> %d, want drop of %d", before, m.Resident(), b0.Bytes())
	}
	if err := m.FinishDelete(m.UnitOf(b0.ID)); err != nil {
		t.Error("FinishDelete must be idempotent")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDeleteOnlyModeFreesInstantly(t *testing.T) {
	p := buildProgram(t, cfg.Figure1())
	m := newManager(t, p, nil)
	b0, _ := p.Graph.BlockByLabel("B0")
	drive(t, m, p, "B0", "B1", "B3")
	// B0 deleted on entering B3; in delete-only mode it is already free.
	if m.IsLive(m.UnitOf(b0.ID)) {
		t.Error("B0 live after k-edge delete")
	}
	comp := m.CompressedSize()
	b1, _ := p.Graph.BlockByLabel("B1")
	b3, _ := p.Graph.BlockByLabel("B3")
	if got, want := m.Resident(), comp+b1.Bytes()+b3.Bytes(); got != want {
		t.Errorf("resident = %d, want %d", got, want)
	}
}

func TestFunctionGranularity(t *testing.T) {
	g := cfg.Figure5()
	// Cluster B0+B1 into one function, B2+B3 into another.
	for _, b := range g.Blocks() {
		if b.Label == "B0" || b.Label == "B1" {
			b.Func = "f"
		} else {
			b.Func = "g"
		}
	}
	p, err := program.Synthesize("fn", g, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := newManager(t, p, func(c *Config) { c.Granularity = GranFunction })
	if m.NumUnits() != 2 {
		t.Fatalf("units = %d, want 2", m.NumUnits())
	}
	b0, _ := p.Graph.BlockByLabel("B0")
	b1, _ := p.Graph.BlockByLabel("B1")
	if m.UnitOf(b0.ID) != m.UnitOf(b1.ID) {
		t.Error("B0 and B1 not clustered")
	}
	trs := drive(t, m, p, "B0", "B1", "B0", "B1")
	// One demand decompression brings the whole f unit in; the B0<->B1
	// loop then runs without any further exceptions (unit-internal).
	s := m.Stats()
	if s.DemandDecompresses != 1 {
		t.Errorf("demand = %d, want 1 (whole function at once)", s.DemandDecompresses)
	}
	if s.Exceptions != 1 {
		t.Errorf("exceptions = %d, want 1", s.Exceptions)
	}
	for i, x := range trs[1:] {
		if x.Exception {
			t.Errorf("transition %d: unit-internal edge trapped", i+1)
		}
	}
	// Function granularity holds more bytes resident than the loop
	// needs: the whole f unit vs just B0+B1... here they're equal, but
	// against block granularity the unit also costs B0+B1 even when
	// only B0 is hot. Check resident = comp + f bytes.
	if m.Resident() != m.CompressedSize()+m.UnitBytes(m.UnitOf(b0.ID)) {
		t.Error("resident accounting under function granularity")
	}
}

func TestPrefetchInFlightSemantics(t *testing.T) {
	p := buildProgram(t, cfg.Figure2())
	m := newManager(t, p, func(c *Config) {
		c.Strategy = PreAll
		c.DecompressK = 1
		c.CompressK = 100
	})
	// Entering B1 prefetches B0 (1 edge ahead). Entering B0 then finds
	// the prefetch in flight: InFlight set, exception still taken (the
	// branch was never patched), but no demand decompression.
	trs := drive(t, m, p, "B1", "B0")
	x := trs[1]
	if x.Demand != nil {
		t.Error("prefetched block demanded again")
	}
	if !x.InFlight {
		t.Error("InFlight not reported")
	}
	if !x.Exception {
		t.Error("first entry through an unpatched branch must trap")
	}
	if m.Stats().PrefetchHits != 1 {
		t.Errorf("prefetch hits = %d, want 1", m.Stats().PrefetchHits)
	}
}

func TestFinishDecompressPromotes(t *testing.T) {
	p := buildProgram(t, cfg.Figure2())
	m := newManager(t, p, func(c *Config) {
		c.Strategy = PreAll
		c.DecompressK = 1
		c.CompressK = 100
	})
	b1, _ := p.Graph.BlockByLabel("B1")
	b0, _ := p.Graph.BlockByLabel("B0")
	x, err := m.EnterBlock(cfg.None, b1.ID)
	if err != nil {
		t.Fatal(err)
	}
	u := m.UnitOf(b0.ID)
	if len(x.Prefetches) != 1 || x.Prefetches[0].Unit != u {
		t.Fatalf("prefetches = %+v, want one job for B0", x.Prefetches)
	}
	m.FinishDecompress(x.Prefetches[0])
	// Entering B0 now is a plain prefetch hit with no in-flight wait.
	x, err = m.EnterBlock(b1.ID, b0.ID)
	if err != nil {
		t.Fatal(err)
	}
	if x.InFlight {
		t.Error("completed prefetch still reported in flight")
	}
}

// TestStaleJobDoesNotPromote: once the Manager drops a copy, the job
// issued for it is stale. Finishing it must not promote a copy issued
// again since; only the new job's completion does.
func TestStaleJobDoesNotPromote(t *testing.T) {
	p := buildProgram(t, cfg.Figure2())
	m := newManager(t, p, func(c *Config) {
		c.Strategy = PreAll
		c.DecompressK = 1
		c.CompressK = 100
	})
	trs := drive(t, m, p, "B1")
	stale := trs[0].Prefetches[0] // B0
	if !m.Current(stale) {
		t.Fatal("fresh prefetch not current")
	}
	if _, _, ok := m.ForceEvict(); !ok || m.IsLive(stale.Unit) {
		t.Fatal("ForceEvict did not drop B0's copy")
	}
	if m.Current(stale) {
		t.Error("job of a dropped copy still current")
	}
	// Entering B1 again from the graph's entry is a restart; it issues
	// B0 once more under the next generation.
	trs = append(trs, drive(t, m, p, "B1")...)
	fresh := trs[1].Prefetches[0]
	if fresh.Unit != stale.Unit || fresh.Gen == stale.Gen || m.Current(stale) || !m.Current(fresh) {
		t.Fatalf("re-issued job %+v, stale %+v", fresh, stale)
	}
	m.FinishDecompress(stale)
	b1, _ := p.Graph.BlockByLabel("B1")
	b0, _ := p.Graph.BlockByLabel("B0")
	x, err := m.EnterBlock(b1.ID, b0.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !x.InFlight {
		t.Error("a stale job's completion promoted the re-issued copy")
	}
}

func TestWastedPrefetchAccounting(t *testing.T) {
	p := buildProgram(t, cfg.Figure2())
	// The strict-counter ablation with aggressive lookahead and tiny
	// compressK: prefetched blocks are deleted before use.
	m := newManager(t, p, func(c *Config) {
		c.Strategy = PreAll
		c.DecompressK = 3
		c.CompressK = 1
		c.StrictCounters = true
	})
	tr, err := trace.Generate(p.Graph, trace.GenConfig{Seed: 4, MaxSteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	prev := cfg.None
	for _, b := range tr.Blocks {
		if _, err := m.EnterBlock(prev, b); err != nil {
			t.Fatal(err)
		}
		prev = b
	}
	s := m.Stats()
	if s.WastedPrefetches == 0 {
		t.Error("no wasted prefetches with k_c=1, k_d=3")
	}
	if s.Prefetches < s.WastedPrefetches {
		t.Error("more waste than prefetches")
	}
}

func TestStatsHitRateImprovesWithPreAll(t *testing.T) {
	run := func(strategy Strategy) Stats {
		p := buildProgram(t, cfg.Figure2())
		m := newManager(t, p, func(c *Config) {
			c.Strategy = strategy
			c.DecompressK = 2
			c.CompressK = 4
		})
		tr, err := trace.Generate(p.Graph, trace.GenConfig{Seed: 9, MaxSteps: 2000})
		if err != nil {
			t.Fatal(err)
		}
		prev := cfg.None
		for _, b := range tr.Blocks {
			if _, err := m.EnterBlock(prev, b); err != nil {
				t.Fatal(err)
			}
			prev = b
		}
		return m.Stats()
	}
	od := run(OnDemand)
	pa := run(PreAll)
	if pa.DemandDecompresses >= od.DemandDecompresses {
		t.Errorf("pre-all demand %d >= on-demand %d", pa.DemandDecompresses, od.DemandDecompresses)
	}
	if pa.Hits <= od.Hits {
		t.Errorf("pre-all hits %d <= on-demand hits %d", pa.Hits, od.Hits)
	}
}

func TestStrategyAndKindStrings(t *testing.T) {
	if OnDemand.String() != "on-demand" || PreAll.String() != "pre-decompress-all" ||
		PreSingle.String() != "pre-decompress-single" {
		t.Error("strategy names")
	}
	if GranBlock.String() != "block" || GranFunction.String() != "function" {
		t.Error("granularity names")
	}
	if JobDecompress.String() != "decompress" || JobDelete.String() != "delete" ||
		JobWriteback.String() != "writeback" {
		t.Error("job kind names")
	}
	if EvException.String() != "exception" || EvEnter.String() != "enter" {
		t.Error("event names")
	}
	e := Event{Kind: EvDelete, Block: 2, Clock: 7}
	if e.String() != "7:delete b2" {
		t.Errorf("event String = %q", e.String())
	}
}
