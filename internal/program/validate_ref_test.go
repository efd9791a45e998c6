package program_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/isa"
	"apbcc/internal/program"
	"apbcc/internal/workloads"
)

// refEachBranchSite is the branch-site walk as it stood before it looked
// block starts up among a site's successors: one table of every word's
// block, built on every walk.
func refEachBranchSite(p *program.Program, visit func(program.BranchSite)) error {
	startToBlock := make([]int32, len(p.Ins)+1)
	for i := range startToBlock {
		startToBlock[i] = -1
	}
	for _, b := range p.Graph.Blocks() {
		if b.Start >= 0 && b.Start < len(startToBlock) {
			startToBlock[b.Start] = int32(b.ID)
		}
	}
	blockAt := func(w int) (cfg.BlockID, bool) {
		if w < 0 || w >= len(startToBlock) || startToBlock[w] < 0 {
			return cfg.None, false
		}
		return cfg.BlockID(startToBlock[w]), true
	}
	for _, b := range p.Graph.Blocks() {
		for w := b.Start; w < b.End; w++ {
			tgt, ok := p.Ins[w].StaticTarget(w)
			if !ok {
				continue
			}
			tb, ok := blockAt(tgt)
			if !ok {
				return fmt.Errorf("program %s: word %d targets %d, which is not a block start",
					p.Name, w, tgt)
			}
			visit(program.BranchSite{Block: b.ID, Word: w, Target: tb})
		}
		last := p.Ins[b.End-1]
		if last.HasFallthrough() && !last.IsJump() && !last.IsIndirect() && b.End < len(p.Ins) {
			if nb, ok := blockAt(b.End); ok {
				visit(program.BranchSite{Block: b.ID, Word: b.End - 1, Target: nb, Fallthrough: true})
			}
		}
	}
	return nil
}

// refValidate is Validate as it stood, on refEachBranchSite.
func refValidate(p *program.Program) error {
	if err := p.Graph.Validate(false); err != nil {
		return fmt.Errorf("program %s: %w", p.Name, err)
	}
	var missing error
	err := refEachBranchSite(p, func(s program.BranchSite) {
		if missing != nil {
			return
		}
		for _, e := range p.Graph.Succs(s.Block) {
			if e.To == s.Target {
				return
			}
		}
		missing = fmt.Errorf("program %s: word %d transfers %v->%v without a CFG edge",
			p.Name, s.Word, s.Block, s.Target)
	})
	if err != nil {
		return err
	}
	return missing
}

// rebuild returns a copy of g whose blocks are g's in the order perm
// gives (block perm[i] of g becomes block i), with every edge but the
// one at index drop of the source-ordered edge list. A block perm
// names twice gets a copy with the same words and no edges, after the
// one its edges keep.
func rebuild(g *cfg.Graph, perm []int, drop int) *cfg.Graph {
	out := cfg.New()
	newID := make([]cfg.BlockID, g.NumBlocks())
	placed := make([]bool, g.NumBlocks())
	for i, old := range perm {
		b := g.Block(cfg.BlockID(old))
		id := out.AddBlock(b.Label, 0)
		nb := out.Block(id)
		nb.Start, nb.End, nb.Func = b.Start, b.End, b.Func
		if !placed[old] {
			newID[old], placed[old] = cfg.BlockID(i), true
		}
	}
	if err := out.SetEntry(newID[g.Entry()]); err != nil {
		panic(err)
	}
	k := 0
	for _, b := range g.Blocks() {
		for _, e := range g.Succs(b.ID) {
			if k != drop {
				out.MustAddEdge(newID[e.From], newID[e.To], e.Kind, e.Prob)
			}
			k++
		}
	}
	return out
}

// TestValidateMatchesReference: Validate and BranchSites give what their
// earlier form gave — the same error text or none, the same sites in
// the same order — on every suite program, 64 generated programs and
// damaged copies of them: an edge dropped, a control transfer pointed
// at another word (a block start or not, inside the program or past
// it), a branch written into a block's body, the blocks renumbered out
// of start order, and a second block at a block's start, next to it or
// last. Every block stays non-empty, where the earlier Validate could
// panic.
func TestValidateMatchesReference(t *testing.T) {
	var progs []*program.Program
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, w.Program)
	}
	for _, src := range workloads.GeneratedAssembly(1, 64) {
		p, err := program.FromAssembly("gen", src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	r := rand.New(rand.NewSource(9))
	check := func(what string, p *program.Program) {
		t.Helper()
		err, want := p.Validate(), refValidate(p)
		if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
			t.Fatalf("%s: Validate = %v, reference %v", what, err, want)
		}
		sites, err := p.BranchSites()
		var wantSites []program.BranchSite
		wantErr := refEachBranchSite(p, func(s program.BranchSite) { wantSites = append(wantSites, s) })
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) ||
			(err == nil && !slices.Equal(sites, wantSites)) {
			t.Fatalf("%s: BranchSites = %v, %v; reference %v, %v", what, sites, err, wantSites, wantErr)
		}
	}
	identity := func(n int) []int {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		return perm
	}
	for i, p := range progs {
		g := p.Graph
		n := g.NumBlocks()
		check(fmt.Sprintf("program %d", i), p)
		nedges := 0
		for _, b := range g.Blocks() {
			nedges += len(g.Succs(b.ID))
		}
		for k := 0; k < 4 && nedges > 0; k++ {
			drop := r.Intn(nedges)
			check(fmt.Sprintf("program %d without edge %d", i, drop),
				&program.Program{Name: p.Name, Graph: rebuild(g, identity(n), drop), Ins: p.Ins})
		}
		for k := 0; k < 8; k++ {
			ins := slices.Clone(p.Ins)
			w := r.Intn(len(ins))
			to := r.Intn(len(ins)+4) - 2
			if k%2 == 0 {
				to = g.Block(cfg.BlockID(r.Intn(n))).Start
			}
			in := ins[w]
			if _, ok := in.StaticTarget(w); !ok {
				// A body word becomes a jump.
				in = isa.Instruction{Op: isa.OpJ}
			}
			if in, err := in.WithTarget(w, to); err == nil {
				ins[w] = in
				check(fmt.Sprintf("program %d with word %d sent to %d", i, w, to),
					&program.Program{Name: p.Name, Graph: g, Ins: ins})
			}
		}
		perm := identity(n)
		r.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		check(fmt.Sprintf("program %d renumbered", i),
			&program.Program{Name: p.Name, Graph: rebuild(g, perm, -1), Ins: p.Ins})
		k := r.Intn(n)
		next := slices.Insert(identity(n), k+1, k)
		check(fmt.Sprintf("program %d with a second block %d", i, k),
			&program.Program{Name: p.Name, Graph: rebuild(g, next, -1), Ins: p.Ins})
		check(fmt.Sprintf("program %d with a last block at block %d's start", i, k),
			&program.Program{Name: p.Name, Graph: rebuild(g, append(identity(n), k), -1), Ins: p.Ins})
	}
}

// TestValidateRejectsEmptyBlock: a block with no words, or words
// outside the program, fails Validate with an error rather than a
// panic, wherever it lies.
func TestValidateRejectsEmptyBlock(t *testing.T) {
	p, err := program.FromAssembly("countdown", "entry: addi r1, r0, 10\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Graph.Blocks() {
		for _, r := range [][2]int{{0, 0}, {2, 2}, {-1, 1}, {3, 5}} {
			g := p.Graph.Clone()
			b := g.Block(cfg.BlockID(i))
			b.Start, b.End = r[0], r[1]
			if err := (&program.Program{Name: "bad", Graph: g, Ins: p.Ins}).Validate(); err == nil {
				t.Errorf("block %d at [%d,%d) accepted", i, r[0], r[1])
			}
		}
	}
}
