package cfg

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"apbcc/internal/asm"
	"apbcc/internal/isa"
)

// diamond builds the canonical diamond A->{B,C}->D.
func diamond(t *testing.T) (*Graph, [4]BlockID) {
	t.Helper()
	g := New()
	a := g.AddBlock("A", 4)
	b := g.AddBlock("B", 2)
	c := g.AddBlock("C", 3)
	d := g.AddBlock("D", 1)
	g.MustAddEdge(a, b, EdgeTaken, 0.5)
	g.MustAddEdge(a, c, EdgeFallthrough, 0.5)
	g.MustAddEdge(b, d, EdgeJump, 1)
	g.MustAddEdge(c, d, EdgeFallthrough, 1)
	return g, [4]BlockID{a, b, c, d}
}

func TestAddBlockAndEdges(t *testing.T) {
	g, ids := diamond(t)
	if g.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d", g.NumBlocks())
	}
	if g.Entry() != ids[0] {
		t.Errorf("entry = %v, want %v", g.Entry(), ids[0])
	}
	if len(g.Succs(ids[0])) != 2 || len(g.Preds(ids[3])) != 2 {
		t.Error("edge counts wrong")
	}
	if g.Block(ids[1]).Words() != 2 || g.Block(ids[1]).Bytes() != 8 {
		t.Error("block size wrong")
	}
	if g.TotalWords() != 10 {
		t.Errorf("TotalWords = %d", g.TotalWords())
	}
	if g.TotalBytes() != 40 {
		t.Errorf("TotalBytes = %d", g.TotalBytes())
	}
	if err := g.Validate(true); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDuplicateEdgeRejected(t *testing.T) {
	g, ids := diamond(t)
	if err := g.AddEdge(ids[0], ids[1], EdgeTaken, 0); err == nil {
		t.Error("duplicate edge accepted")
	}
	// Same endpoints, different kind is allowed.
	if err := g.AddEdge(ids[0], ids[1], EdgeJump, 0); err != nil {
		t.Errorf("distinct-kind edge rejected: %v", err)
	}
}

func TestEdgeBadEndpoint(t *testing.T) {
	g, _ := diamond(t)
	if err := g.AddEdge(0, 99, EdgeJump, 0); err == nil {
		t.Error("edge to unknown block accepted")
	}
	if err := g.SetEntry(50); err == nil {
		t.Error("unknown entry accepted")
	}
}

func TestBlockByLabel(t *testing.T) {
	g, _ := diamond(t)
	b, ok := g.BlockByLabel("C")
	if !ok || b.Label != "C" {
		t.Error("BlockByLabel C")
	}
	if _, ok := g.BlockByLabel("Z"); ok {
		t.Error("BlockByLabel Z found")
	}
}

func TestValidateUnreachable(t *testing.T) {
	g := New()
	g.AddBlock("A", 1)
	g.AddBlock("orphan", 1)
	if err := g.Validate(true); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	if err := g.Validate(false); err != nil {
		t.Errorf("non-reachability Validate: %v", err)
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := New().Validate(false); !errors.Is(err, ErrNoEntry) {
		t.Error("empty graph validated")
	}
}

func TestNormalizeUniform(t *testing.T) {
	g := New()
	a := g.AddBlock("A", 1)
	b := g.AddBlock("B", 1)
	c := g.AddBlock("C", 1)
	g.MustAddEdge(a, b, EdgeTaken, 0)
	g.MustAddEdge(a, c, EdgeFallthrough, 0)
	g.Normalize()
	for _, e := range g.Succs(a) {
		if math.Abs(e.Prob-0.5) > 1e-9 {
			t.Errorf("prob = %v, want 0.5", e.Prob)
		}
	}
}

func TestNormalizeRescalesAndMirrors(t *testing.T) {
	g := New()
	a := g.AddBlock("A", 1)
	b := g.AddBlock("B", 1)
	c := g.AddBlock("C", 1)
	g.MustAddEdge(a, b, EdgeTaken, 3)
	g.MustAddEdge(a, c, EdgeFallthrough, 1)
	g.Normalize()
	if p := g.Succs(a)[0].Prob; math.Abs(p-0.75) > 1e-9 {
		t.Errorf("succ prob = %v, want 0.75", p)
	}
	if p := g.Preds(b)[0].Prob; math.Abs(p-0.75) > 1e-9 {
		t.Errorf("pred prob = %v, want 0.75 (mirror)", p)
	}
}

func TestReversePostorder(t *testing.T) {
	g, ids := diamond(t)
	rpo := g.ReversePostorder()
	if len(rpo) != 4 {
		t.Fatalf("rpo len = %d", len(rpo))
	}
	pos := make(map[BlockID]int)
	for i, id := range rpo {
		pos[id] = i
	}
	if pos[ids[0]] != 0 {
		t.Error("entry not first in RPO")
	}
	if pos[ids[3]] != 3 {
		t.Error("join not last in RPO")
	}
}

func TestDominatorsDiamond(t *testing.T) {
	g, ids := diamond(t)
	idom := g.Dominators()
	if idom[ids[0]] != ids[0] {
		t.Error("entry idom")
	}
	if idom[ids[1]] != ids[0] || idom[ids[2]] != ids[0] {
		t.Error("branch arms idom")
	}
	if idom[ids[3]] != ids[0] {
		t.Error("join idom should be the fork, not an arm")
	}
	if !Dominates(idom, ids[0], ids[3]) {
		t.Error("A should dominate D")
	}
	if Dominates(idom, ids[1], ids[3]) {
		t.Error("B should not dominate D")
	}
}

func TestDominatorsUnreachable(t *testing.T) {
	g := New()
	g.AddBlock("A", 1)
	orphan := g.AddBlock("X", 1)
	idom := g.Dominators()
	if idom[orphan] != None {
		t.Error("unreachable block has a dominator")
	}
}

func TestNaturalLoopsFigure1(t *testing.T) {
	g := Figure1()
	loops := g.NaturalLoops()
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2 (the figure contains two loops)", len(loops))
	}
	// Inner loop {B3,B4} headed at B3; outer loop headed at B0.
	var inner, outer *Loop
	for i := range loops {
		switch g.Block(loops[i].Header).Label {
		case "B3":
			inner = &loops[i]
		case "B0":
			outer = &loops[i]
		}
	}
	if inner == nil || outer == nil {
		t.Fatalf("headers = %v", loops)
	}
	if len(inner.Body) != 2 {
		t.Errorf("inner body = %v", inner.Body)
	}
	if len(outer.Body) != 6 {
		t.Errorf("outer body = %v", outer.Body)
	}
	if !outer.Contains(inner.Header) {
		t.Error("outer loop should contain inner header")
	}
}

func TestLoopDepths(t *testing.T) {
	g := Figure1()
	depth := g.LoopDepths()
	b3, _ := g.BlockByLabel("B3")
	b1, _ := g.BlockByLabel("B1")
	if depth[b3.ID] != 2 {
		t.Errorf("depth(B3) = %d, want 2", depth[b3.ID])
	}
	if depth[b1.ID] != 1 {
		t.Errorf("depth(B1) = %d, want 1", depth[b1.ID])
	}
}

func TestDistancesFrom(t *testing.T) {
	g, ids := diamond(t)
	row, dist := g.Lookahead(2).Row(ids[0])
	want := []BlockID{ids[1], ids[2], ids[3]}
	if !slices.Equal(row, want) || !slices.Equal(dist, []int{1, 1, 2}) {
		t.Errorf("row(A, k=2) = %v at distances %v, want %v at [1 1 2]", row, dist, want)
	}
}

func TestWithinK(t *testing.T) {
	g, ids := diamond(t)
	got, _ := g.Lookahead(1).Row(ids[0])
	if len(got) != 2 {
		t.Fatalf("row(A, k=1) = %v", got)
	}
	got, _ = g.Lookahead(2).Row(ids[0])
	if len(got) != 3 {
		t.Fatalf("row(A, k=2) = %v", got)
	}
	if got[len(got)-1] != ids[3] {
		t.Error("farthest block should sort last")
	}
	if got, _ := g.Lookahead(0).Row(ids[0]); len(got) != 0 {
		t.Errorf("row(A, k=0) = %v, want empty", got)
	}
	if got, dist := g.Lookahead(2).Row(None); got != nil || dist != nil {
		t.Errorf("row(None) = %v, %v, want nil", got, dist)
	}
}

func TestWithinKCycleIncludesSource(t *testing.T) {
	g := New()
	a := g.AddBlock("A", 1)
	b := g.AddBlock("B", 1)
	g.MustAddEdge(a, b, EdgeJump, 1)
	g.MustAddEdge(b, a, EdgeJump, 1)
	got, dist := g.Lookahead(2).Row(a)
	if len(got) != 2 {
		t.Fatalf("row = %v, want {B, A}", got)
	}
	if got[0] != b || got[1] != a {
		t.Errorf("order = %v", got)
	}
	if dist[1] != 2 {
		t.Errorf("dist(A->A) = %d, want 2 (the cycle's length)", dist[1])
	}
}

// TestFigure2Distances verifies the two worked examples of Section 4
// against the Figure 2 fixture (experiment F2's structural half).
func TestFigure2Distances(t *testing.T) {
	g := Figure2()
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
	b1, _ := g.BlockByLabel("B1")
	b7, _ := g.BlockByLabel("B7")
	if row, _ := g.Lookahead(3).Row(b1.ID); !slices.Contains(row, b7.ID) {
		t.Errorf("row(B1, k=3) = %v lacks B7 (k=3 example)", row)
	}
	if row, _ := g.Lookahead(2).Row(b1.ID); slices.Contains(row, b7.ID) {
		t.Errorf("row(B1, k=2) = %v holds B7, which is 3 edges ahead", row)
	}
	b0, _ := g.BlockByLabel("B0")
	within, _ := g.Lookahead(2).Row(b0.ID)
	set := map[string]bool{}
	for _, id := range within {
		set[g.Block(id).Label] = true
	}
	for _, want := range []string{"B4", "B5", "B8", "B9"} {
		if !set[want] {
			t.Errorf("row(B0, k=2) missing %s (pre-decompress-all example); got %v", want, set)
		}
	}
}

func TestBuildFromInstructions(t *testing.T) {
	r, err := asm.Assemble(`
		entry:
			addi r1, r0, 10
		loop:
			addi r1, r1, -1
			bne  r1, r0, loop
			halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := isa.DecodeAll(r.Words)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(ins, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
	// Blocks: [entry addi], [loop: addi; bne], [halt].
	if g.NumBlocks() != 3 {
		t.Fatalf("blocks = %d, want 3", g.NumBlocks())
	}
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	if g.Block(loops[0].Header).Start != 1 {
		t.Errorf("loop header starts at word %d, want 1", g.Block(loops[0].Header).Start)
	}
}

// TestBuildNamesAndNormalizes: Build names block i "B<i>" across digit
// widths, and its edge probabilities are exactly the even shares
// Normalize gives a graph without annotations.
func TestBuildNamesAndNormalizes(t *testing.T) {
	// A branch back one word ends every other word: 1100 two-word
	// blocks, each with a taken and a fallthrough edge but the last.
	ins := make([]isa.Instruction, 2200)
	for pc := 1; pc < len(ins); pc += 2 {
		ins[pc] = isa.Instruction{Op: isa.OpBNE, Rs1: 1, Imm: -2}
	}
	ins[len(ins)-1] = isa.Instruction{Op: isa.OpHALT}
	g, err := Build(ins, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBlocks() != len(ins)/2 {
		t.Fatalf("blocks = %d, want %d", g.NumBlocks(), len(ins)/2)
	}
	want := g.Clone()
	for _, lists := range [][][]Edge{want.succs, want.preds} {
		for _, edges := range lists {
			for i := range edges {
				edges[i].Prob = 0
			}
		}
	}
	want.Normalize()
	for _, b := range g.Blocks() {
		if b.Label != "B"+strconv.Itoa(int(b.ID)) {
			t.Fatalf("block %d label %q", b.ID, b.Label)
		}
		if !slices.Equal(g.Succs(b.ID), want.Succs(b.ID)) || !slices.Equal(g.Preds(b.ID), want.Preds(b.ID)) {
			t.Fatalf("block %d edges %v / %v, normalized %v / %v",
				b.ID, g.Succs(b.ID), g.Preds(b.ID), want.Succs(b.ID), want.Preds(b.ID))
		}
	}
}

func TestBuildCallAndJump(t *testing.T) {
	r, err := asm.Assemble(`
		main:
			jal fn
			j   done
		fn:
			jr  r31
		done:
			halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := isa.DecodeAll(r.Words)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(ins, 0)
	if err != nil {
		t.Fatal(err)
	}
	// main block has a call edge to fn and a fallthrough to the j block.
	var kinds []EdgeKind
	for _, e := range g.Succs(g.Entry()) {
		kinds = append(kinds, e.Kind)
	}
	hasCall, hasFall := false, false
	for _, k := range kinds {
		if k == EdgeCall {
			hasCall = true
		}
		if k == EdgeFallthrough {
			hasFall = true
		}
	}
	if !hasCall || !hasFall {
		t.Errorf("entry out-edges = %v, want call+fallthrough", kinds)
	}
	// jr block has no static successors.
	for _, b := range g.Blocks() {
		if b.Start == 2 && len(g.Succs(b.ID)) != 0 {
			t.Error("jr block has static successors")
		}
	}
}

func TestBuildBadEntry(t *testing.T) {
	if _, err := Build(nil, 0); err == nil {
		t.Error("Build with empty program succeeded")
	}
}

func TestBuildBadTarget(t *testing.T) {
	// j 1000 in a 1-word program: target outside program.
	in := isa.Instruction{Op: isa.OpJ, Imm: 1000}
	if _, err := Build([]isa.Instruction{in}, 0); err == nil {
		t.Error("Build with out-of-range target succeeded")
	}
}

func TestDOT(t *testing.T) {
	g := Figure5()
	dot := g.DOT("fig5")
	for _, frag := range []string{"digraph \"fig5\"", "B0", "B3", "->"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q", frag)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	g := Figure5()
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
	// The worked access pattern B0,B1,B0,B1,B3 must be a real path.
	path := []string{"B0", "B1", "B0", "B1", "B3"}
	for i := 0; i+1 < len(path); i++ {
		from, _ := g.BlockByLabel(path[i])
		to, _ := g.BlockByLabel(path[i+1])
		found := false
		for _, e := range g.Succs(from.ID) {
			if e.To == to.ID {
				found = true
			}
		}
		if !found {
			t.Errorf("no edge %s->%s", path[i], path[i+1])
		}
	}
}

func TestEdgeKindString(t *testing.T) {
	for k, want := range map[EdgeKind]string{
		EdgeFallthrough: "fall", EdgeTaken: "taken", EdgeJump: "jump",
		EdgeCall: "call", EdgeReturn: "ret",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", uint8(k), k.String())
		}
	}
}

func TestBlockString(t *testing.T) {
	g := New()
	id := g.AddBlock("", 1)
	if got := g.Block(id).String(); got != "B0" {
		t.Errorf("unlabeled block String = %q", got)
	}
}
