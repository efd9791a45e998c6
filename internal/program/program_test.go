package program

import (
	"testing"
	"testing/quick"

	"apbcc/internal/cfg"
	"apbcc/internal/isa"
)

const countdownSrc = `
	entry:
		addi r1, r0, 10
	loop:
		addi r1, r1, -1
		bne  r1, r0, loop
	done:
		halt
`

func TestFromAssembly(t *testing.T) {
	p, err := FromAssembly("countdown", countdownSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Graph.NumBlocks() != 3 {
		t.Fatalf("blocks = %d", p.Graph.NumBlocks())
	}
	if _, ok := p.Graph.BlockByLabel("loop"); !ok {
		t.Error("label loop not attached to block")
	}
	if _, ok := p.Graph.BlockByLabel("done"); !ok {
		t.Error("label done not attached to block")
	}
	if p.TotalBytes() != 4*isa.WordSize {
		t.Errorf("TotalBytes = %d", p.TotalBytes())
	}
}

// TestFromAssemblySharedLabelsDeterministic: where several labels mark
// one block start, the lexically smallest names the block on every
// run, so the block's label (and with it the packed container) does
// not depend on the symbol table's iteration order.
func TestFromAssemblySharedLabelsDeterministic(t *testing.T) {
	const src = "top: nop\n  zeta: beta: alpha: gamma: addi r1, r0, 1\n  bne r1, r0, beta\n  halt"
	for i := 0; i < 50; i++ {
		p, err := FromAssembly("shared", src)
		if err != nil {
			t.Fatal(err)
		}
		b := p.Graph.Block(1)
		if b == nil || b.Label != "alpha" {
			t.Fatalf("run %d: block 1 = %v, want label alpha", i, b)
		}
	}
}

func TestBlockBytes(t *testing.T) {
	p, err := FromAssembly("countdown", countdownSrc)
	if err != nil {
		t.Fatal(err)
	}
	loop, _ := p.Graph.BlockByLabel("loop")
	img, err := p.BlockBytes(loop.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != loop.Bytes() {
		t.Errorf("image = %d bytes, block = %d", len(img), loop.Bytes())
	}
	words, err := isa.BytesToWords(img)
	if err != nil {
		t.Fatal(err)
	}
	in, err := isa.Decode(words[len(words)-1])
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != isa.OpBNE {
		t.Errorf("loop terminator = %v", in.Op)
	}
}

func TestBlockBytesUnknownBlock(t *testing.T) {
	p, err := FromAssembly("countdown", countdownSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.BlockBytes(99); err == nil {
		t.Error("unknown block accepted")
	}
}

func TestAllBlockBytesCoverImage(t *testing.T) {
	p, err := FromAssembly("countdown", countdownSrc)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := p.AllBlockBytes()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	if total != p.TotalBytes() {
		t.Errorf("blocks cover %d bytes, image is %d", total, p.TotalBytes())
	}
	code, err := p.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != p.TotalBytes() {
		t.Errorf("CodeBytes = %d", len(code))
	}
}

func TestBranchSites(t *testing.T) {
	p, err := FromAssembly("countdown", countdownSrc)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := p.BranchSites()
	if err != nil {
		t.Fatal(err)
	}
	// Three sites: the entry block's fallthrough into loop, the bne's
	// taken edge back to loop, and the bne's fallthrough into done.
	if len(sites) != 3 {
		t.Fatalf("sites = %v", sites)
	}
	entry := p.Graph.Entry()
	loop, _ := p.Graph.BlockByLabel("loop")
	done, _ := p.Graph.BlockByLabel("done")
	type key struct {
		block, target cfg.BlockID
		fall          bool
	}
	got := map[key]int{} // -> word
	for _, s := range sites {
		got[key{s.Block, s.Target, s.Fallthrough}] = s.Word
	}
	if w, ok := got[key{entry, loop.ID, true}]; !ok || w != 0 {
		t.Errorf("entry fallthrough site missing or wrong word: %v", got)
	}
	if w, ok := got[key{loop.ID, loop.ID, false}]; !ok || w != 2 {
		t.Errorf("loop taken site missing: %v", got)
	}
	if w, ok := got[key{loop.ID, done.ID, true}]; !ok || w != 2 {
		t.Errorf("loop fallthrough site missing: %v", got)
	}
}

func TestSynthesizeFigure1(t *testing.T) {
	p, err := Synthesize("fig1", cfg.Figure1(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	src := cfg.Figure1()
	if p.Graph.NumBlocks() != src.NumBlocks() {
		t.Fatalf("blocks = %d, want %d", p.Graph.NumBlocks(), src.NumBlocks())
	}
	if len(p.Ins) != src.TotalWords() {
		t.Errorf("image = %d words, want %d", len(p.Ins), src.TotalWords())
	}
	// Every block's size must be preserved.
	for _, b := range src.Blocks() {
		nb := p.Graph.Block(b.ID)
		if nb.Words() != b.Words() {
			t.Errorf("block %s resized %d -> %d", b, b.Words(), nb.Words())
		}
	}
	// The synthesized instruction stream must encode exactly the CFG's
	// edges as static targets.
	sites, err := p.BranchSites()
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ from, to cfg.BlockID }
	wantEdges := map[pair]bool{}
	for _, b := range src.Blocks() {
		for _, e := range src.Succs(b.ID) {
			wantEdges[pair{e.From, e.To}] = true
		}
	}
	gotEdges := map[pair]bool{}
	for _, s := range sites {
		gotEdges[pair{s.Block, s.Target}] = true
	}
	for e := range wantEdges {
		if !gotEdges[e] {
			t.Errorf("edge %v->%v not realized in code", e.from, e.to)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, err := Synthesize("x", cfg.Figure2(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize("x", cfg.Figure2(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ins) != len(b.Ins) {
		t.Fatal("lengths differ")
	}
	for i := range a.Ins {
		if a.Ins[i] != b.Ins[i] {
			t.Fatalf("instruction %d differs across identical seeds", i)
		}
	}
	c, err := Synthesize("x", cfg.Figure2(), 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Ins {
		if a.Ins[i] != c.Ins[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical programs")
	}
}

func TestSynthesizeRejectsTooSmallBlock(t *testing.T) {
	g := cfg.New()
	a := g.AddBlock("A", 1) // needs 2 words for 2 out-edges
	b := g.AddBlock("B", 1)
	c := g.AddBlock("C", 1)
	g.MustAddEdge(a, b, cfg.EdgeTaken, 0.5)
	g.MustAddEdge(a, c, cfg.EdgeFallthrough, 0.5)
	if _, err := Synthesize("bad", g, 1); err == nil {
		t.Error("undersized block accepted")
	}
}

func TestSynthesizeHighOutDegree(t *testing.T) {
	g := cfg.New()
	a := g.AddBlock("A", 4)
	targets := []cfg.BlockID{
		g.AddBlock("B", 2), g.AddBlock("C", 2), g.AddBlock("D", 2),
	}
	for _, to := range targets {
		g.MustAddEdge(a, to, cfg.EdgeTaken, 1)
	}
	g.Normalize()
	p, err := Synthesize("multi", g, 3)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := p.BranchSites()
	if err != nil {
		t.Fatal(err)
	}
	got := map[cfg.BlockID]bool{}
	for _, s := range sites {
		if s.Block == a {
			got[s.Target] = true
		}
	}
	for _, to := range targets {
		if !got[to] {
			t.Errorf("3-way block misses target %v", to)
		}
	}
}

func TestSynthesizeDoesNotMutateInput(t *testing.T) {
	g := cfg.Figure5()
	before := g.Block(2).Start
	if _, err := Synthesize("f5", g, 1); err != nil {
		t.Fatal(err)
	}
	if g.Block(2).Start != before {
		t.Error("Synthesize mutated the input graph")
	}
}

func TestSynthesizePropertyAllFigures(t *testing.T) {
	figs := map[string]func() *cfg.Graph{
		"fig1": cfg.Figure1, "fig2": cfg.Figure2, "fig5": cfg.Figure5,
	}
	f := func(seed int64) bool {
		for name, fig := range figs {
			p, err := Synthesize(name, fig(), seed)
			if err != nil {
				return false
			}
			if p.Validate() != nil {
				return false
			}
			// Round-trip the image through bytes.
			code, err := p.CodeBytes()
			if err != nil {
				return false
			}
			words, err := isa.BytesToWords(code)
			if err != nil || len(words) != len(p.Ins) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFromInstructionsBadEntry(t *testing.T) {
	if _, err := FromInstructions("x", nil, 0); err == nil {
		t.Error("empty program accepted")
	}
}

func TestFromAssemblyBadSource(t *testing.T) {
	if _, err := FromAssembly("x", "bogus r1"); err == nil {
		t.Error("bad source accepted")
	}
}
