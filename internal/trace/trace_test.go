package trace

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"apbcc/internal/cfg"
)

func TestGenerateFigure1(t *testing.T) {
	g := cfg.Figure1()
	tr, err := Generate(g, GenConfig{Seed: 1, MaxSteps: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	if tr.Blocks[0] != g.Entry() {
		t.Error("trace does not start at entry")
	}
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}
	if tr.Edges() != tr.Len()-1 {
		t.Error("Edges arithmetic")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := cfg.Figure2()
	a, err := Generate(g, GenConfig{Seed: 5, MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(g, GenConfig{Seed: 5, MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			t.Fatalf("step %d differs", i)
		}
	}
}

func TestGenerateStopsAtHalt(t *testing.T) {
	g := cfg.New()
	a := g.AddBlock("A", 1)
	b := g.AddBlock("B", 1)
	g.MustAddEdge(a, b, cfg.EdgeJump, 1)
	tr, err := Generate(g, GenConfig{Seed: 0, MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Errorf("trace len = %d, want 2 (A then terminal B)", tr.Len())
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(cfg.New(), GenConfig{Seed: 0, MaxSteps: 10}); !errors.Is(err, ErrNoEntry) {
		t.Error("no-entry graph accepted")
	}
	g := cfg.Figure1()
	if _, err := Generate(g, GenConfig{Seed: 0, MaxSteps: 0}); err == nil {
		t.Error("zero MaxSteps accepted")
	}
}

func TestGenerateFollowsProbabilities(t *testing.T) {
	// A block with a 90/10 split: frequencies should approximate it.
	g := cfg.New()
	a := g.AddBlock("A", 1)
	b := g.AddBlock("B", 1)
	c := g.AddBlock("C", 1)
	g.MustAddEdge(a, b, cfg.EdgeTaken, 0.9)
	g.MustAddEdge(a, c, cfg.EdgeFallthrough, 0.1)
	g.MustAddEdge(b, a, cfg.EdgeJump, 1)
	g.MustAddEdge(c, a, cfg.EdgeJump, 1)
	g.Normalize()
	tr, err := Generate(g, GenConfig{Seed: 99, MaxSteps: 20000})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProfile()
	p.AddTrace(tr)
	ratio := float64(p.EdgeCount(a, b)) / float64(p.EdgeCount(a, b)+p.EdgeCount(a, c))
	if math.Abs(ratio-0.9) > 0.03 {
		t.Errorf("taken ratio = %.3f, want ~0.9", ratio)
	}
}

func TestFromLabels(t *testing.T) {
	g := cfg.Figure5()
	tr, err := FromLabels(g, "B0", "B1", "B0", "B1", "B3")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5 {
		t.Fatalf("len = %d", tr.Len())
	}
	if err := tr.Validate(g); err != nil {
		t.Errorf("figure-5 pattern invalid: %v", err)
	}
	if _, err := FromLabels(g, "B9"); err == nil {
		t.Error("unknown label accepted")
	}
}

func TestValidateRejectsNonEdge(t *testing.T) {
	g := cfg.Figure5()
	b0, _ := g.BlockByLabel("B0")
	b3, _ := g.BlockByLabel("B3")
	tr := &Trace{Blocks: []cfg.BlockID{b0.ID, b3.ID}}
	if err := tr.Validate(g); err == nil {
		t.Error("non-edge step accepted")
	}
}

func TestProfileCounts(t *testing.T) {
	g := cfg.Figure5()
	tr, _ := FromLabels(g, "B0", "B1", "B0", "B1", "B3")
	p := NewProfile()
	p.AddTrace(tr)
	b0, _ := g.BlockByLabel("B0")
	b1, _ := g.BlockByLabel("B1")
	b3, _ := g.BlockByLabel("B3")
	if p.EdgeCount(b0.ID, b1.ID) != 2 {
		t.Errorf("edge count B0->B1 = %d", p.EdgeCount(b0.ID, b1.ID))
	}
	if p.EdgeCount(b1.ID, b3.ID) != 1 {
		t.Errorf("edge count B1->B3 = %d", p.EdgeCount(b1.ID, b3.ID))
	}
}

func TestStaticPredictor(t *testing.T) {
	g := cfg.Figure5()
	b0, _ := g.BlockByLabel("B0")
	b1, _ := g.BlockByLabel("B1")
	b3, _ := g.BlockByLabel("B3")
	s := NewStatic(g)
	if s.Name() != "static" {
		t.Error("name")
	}
	if p := s.Prob(b0.ID, b1.ID); math.Abs(p-0.6) > 1e-9 {
		t.Errorf("P(B0->B1) = %v, want 0.6", p)
	}
	if p := s.Prob(b0.ID, b3.ID); p != 0 {
		t.Errorf("P over non-edge = %v", p)
	}
	s.Observe(b0.ID, b1.ID) // must be a no-op
	if p := s.Prob(b0.ID, b1.ID); math.Abs(p-0.6) > 1e-9 {
		t.Error("static predictor adapted")
	}
}

func TestMarkovPredictorAdapts(t *testing.T) {
	g := cfg.Figure5()
	b0, _ := g.BlockByLabel("B0")
	b1, _ := g.BlockByLabel("B1")
	b2, _ := g.BlockByLabel("B2")
	m := NewMarkov(g)
	// Below MinSamples: falls back to static annotation (0.6).
	if p := m.Prob(b0.ID, b1.ID); math.Abs(p-0.6) > 1e-9 {
		t.Errorf("cold Prob = %v, want static 0.6", p)
	}
	// Feed a run that always goes B0->B2.
	for i := 0; i < 10; i++ {
		m.Observe(b0.ID, b2.ID)
	}
	if p := m.Prob(b0.ID, b2.ID); p != 1 {
		t.Errorf("trained Prob(B0->B2) = %v, want 1", p)
	}
	if p := m.Prob(b0.ID, b1.ID); p != 0 {
		t.Errorf("trained Prob(B0->B1) = %v, want 0", p)
	}
}

func TestProfiledPredictor(t *testing.T) {
	g := cfg.Figure5()
	b0, _ := g.BlockByLabel("B0")
	b1, _ := g.BlockByLabel("B1")
	b2, _ := g.BlockByLabel("B2")
	p := NewProfile()
	for i := 0; i < 3; i++ {
		p.AddEdge(b0.ID, b1.ID)
	}
	p.AddEdge(b0.ID, b2.ID)
	pp := NewProfiled(g, p)
	if got := pp.Prob(b0.ID, b1.ID); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("Prob = %v, want 0.75", got)
	}
	// Unprofiled block falls back to static annotation.
	if got := pp.Prob(b1.ID, b0.ID); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("fallback Prob = %v, want 0.5", got)
	}
}

func TestGeneratePropertyTracesAreValid(t *testing.T) {
	figs := []func() *cfg.Graph{cfg.Figure1, cfg.Figure2, cfg.Figure5}
	f := func(seed int64) bool {
		for _, fig := range figs {
			g := fig()
			tr, err := Generate(g, GenConfig{Seed: seed, MaxSteps: 500})
			if err != nil {
				return false
			}
			if tr.Validate(g) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
