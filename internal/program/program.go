// Package program links the ERI32 instruction stream of an embedded
// application with its control flow graph, producing the unit the
// compression runtime operates on: per-basic-block byte images plus the
// branch-site information needed for remember-set patching.
//
// Programs come from three sources: assembled ERI32 source
// (FromAssembly), an already-decoded instruction stream
// (FromInstructions), or synthesis from an annotated CFG (Synthesize) —
// the path the synthetic workload suite uses.
package program

import (
	"fmt"

	"apbcc/internal/asm"
	"apbcc/internal/cfg"
	"apbcc/internal/isa"
)

// Program is an ERI32 application bound to its CFG. Block word ranges
// in Graph index into Ins.
type Program struct {
	Name  string
	Graph *cfg.Graph
	Ins   []isa.Instruction
}

// FromInstructions builds a Program by running CFG construction over a
// decoded instruction stream. The graph comes normalized: each block's
// out-edges share its probability evenly.
func FromInstructions(name string, ins []isa.Instruction, entry int) (*Program, error) {
	g, err := cfg.Build(ins, entry)
	if err != nil {
		return nil, fmt.Errorf("program %s: %w", name, err)
	}
	return &Program{Name: name, Graph: g, Ins: ins}, nil
}

// FromAssembly assembles ERI32 source and builds its Program. Labels
// that land on block starts become block labels; where several labels
// share a block start, the lexically smallest names it.
func FromAssembly(name, src string) (*Program, error) {
	r, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("program %s: %w", name, err)
	}
	if r.Ins == nil {
		// Some .word value is no instruction; decoding names it.
		if _, err := isa.DecodeAll(r.Words); err != nil {
			return nil, fmt.Errorf("program %s: %w", name, err)
		}
	}
	p, err := FromInstructions(name, r.Ins, 0)
	if err != nil {
		return nil, err
	}
	// Build lists blocks in ascending start order and the assembler
	// lists labels in nondecreasing address order, so one merge pass
	// pairs every label with the block starting at its address.
	blocks := p.Graph.Blocks()
	b, named := 0, -1 // named: the last block a label has named
	for _, l := range r.Labels {
		for b < len(blocks) && blocks[b].Start < l.Addr {
			b++
		}
		if b == len(blocks) {
			break
		}
		if blocks[b].Start == l.Addr && (b != named || l.Name < blocks[b].Label) {
			blocks[b].Label, named = l.Name, b
		}
	}
	return p, nil
}

// BlockWords returns the instruction words of a block.
func (p *Program) BlockWords(id cfg.BlockID) ([]uint32, error) {
	b := p.Graph.Block(id)
	if b == nil {
		return nil, fmt.Errorf("program %s: unknown block %d", p.Name, id)
	}
	if b.Start < 0 || b.End > len(p.Ins) || b.Start > b.End {
		return nil, fmt.Errorf("program %s: block %s range [%d,%d) outside %d words",
			p.Name, b, b.Start, b.End, len(p.Ins))
	}
	return isa.EncodeAll(p.Ins[b.Start:b.End])
}

// BlockBytes returns the little-endian byte image of a block — the unit
// of compression.
func (p *Program) BlockBytes(id cfg.BlockID) ([]byte, error) {
	words, err := p.BlockWords(id)
	if err != nil {
		return nil, err
	}
	return isa.WordsToBytes(words), nil
}

// BlockImage returns a block's little-endian byte image as a window of
// image, the whole code image AppendCodeBytes builds — BlockBytes
// without encoding or allocating. The pack pipeline encodes a program
// once and cuts every block from that image.
func (p *Program) BlockImage(image []byte, id cfg.BlockID) ([]byte, error) {
	b := p.Graph.Block(id)
	if b == nil {
		return nil, fmt.Errorf("program %s: unknown block %d", p.Name, id)
	}
	if b.Start < 0 || b.End > len(p.Ins) || b.Start > b.End {
		return nil, fmt.Errorf("program %s: block %s range [%d,%d) outside %d words",
			p.Name, b, b.Start, b.End, len(p.Ins))
	}
	if len(image) != p.TotalBytes() {
		return nil, fmt.Errorf("program %s: code image is %d bytes, want %d", p.Name, len(image), p.TotalBytes())
	}
	return image[b.Start*isa.WordSize : b.End*isa.WordSize], nil
}

// AllBlockBytes returns the byte image of every block, indexed by
// BlockID. It is the codec training corpus and the layout input.
func (p *Program) AllBlockBytes() ([][]byte, error) {
	out := make([][]byte, p.Graph.NumBlocks())
	for _, b := range p.Graph.Blocks() {
		img, err := p.BlockBytes(b.ID)
		if err != nil {
			return nil, err
		}
		out[b.ID] = img
	}
	return out, nil
}

// CodeBytes returns the whole program image as bytes, encoded straight
// into one buffer of exactly its size.
func (p *Program) CodeBytes() ([]byte, error) {
	return p.AppendCodeBytes(make([]byte, 0, p.TotalBytes()))
}

// AppendCodeBytes appends the whole program image to dst and returns
// the extended slice — CodeBytes for callers that only need the image
// transiently (checksumming, training) and reuse a buffer of their own.
func (p *Program) AppendCodeBytes(dst []byte) ([]byte, error) {
	out, err := isa.AppendEncodedBytes(dst, p.Ins)
	if err != nil {
		return nil, fmt.Errorf("program %s: %w", p.Name, err)
	}
	return out, nil
}

// TotalBytes returns the uncompressed code size.
func (p *Program) TotalBytes() int { return len(p.Ins) * isa.WordSize }

// BranchSite locates a patchable control-transfer site inside a block:
// either an explicit branch/jump instruction, or the implicit
// fallthrough off the block's last instruction (which a decompressed
// copy realizes as a trailing jump the handler can retarget).
type BranchSite struct {
	Block cfg.BlockID // the block containing the site
	Word  int         // absolute word index of the site's instruction
	// Target is the block the site transfers to.
	Target cfg.BlockID
	// Fallthrough marks the implicit site at a block's end.
	Fallthrough bool
}

// BranchSites returns every patchable control-transfer site in the
// program, mapped to the block it targets. This is the static half of
// the remember sets: when block T's decompressed copy is discarded,
// every site with Target == T must be re-pointed at T's compressed-area
// address (Section 5). Explicit sites are branch/jump instructions with
// static targets; implicit sites are block-ending fallthroughs
// (non-taken conditional branches and straight-line splits), which a
// copy materializes as a trailing jump. Calls (jal) and indirect jumps
// produce no fallthrough site: their continuation is reached through a
// computed address that cannot be patched.
func (p *Program) BranchSites() ([]BranchSite, error) {
	// Most blocks end in one branch site and one fallthrough site.
	sites := make([]BranchSite, 0, 2*p.Graph.NumBlocks())
	err := p.eachBranchSite(func(s BranchSite) { sites = append(sites, s) })
	if err != nil {
		return nil, err
	}
	return sites, nil
}

// eachBranchSite calls visit for every site BranchSites returns, in the
// same order, without collecting them; it fails where BranchSites
// fails, after visiting the sites before the failure.
func (p *Program) eachBranchSite(visit func(BranchSite)) error {
	at := newBlockStarts(p)
	for _, b := range p.Graph.Blocks() {
		for w := b.Start; w < b.End; w++ {
			tgt, ok := p.Ins[w].StaticTarget(w)
			if !ok {
				continue
			}
			tb, ok := at.find(b.ID, tgt)
			if !ok {
				return fmt.Errorf("program %s: word %d targets %d, which is not a block start",
					p.Name, w, tgt)
			}
			visit(BranchSite{Block: b.ID, Word: w, Target: tb})
		}
		last := p.Ins[b.End-1]
		if last.HasFallthrough() && !last.IsJump() && !last.IsIndirect() && b.End < len(p.Ins) {
			if nb, ok := at.find(b.ID, b.End); ok {
				visit(BranchSite{Block: b.ID, Word: b.End - 1, Target: nb, Fallthrough: true})
			}
		}
	}
	return nil
}

// blockStarts finds the block that starts at a word of a program, or,
// where several do, the last of them. A valid program's sites all
// target successors of their own block, so when no two blocks start at
// one word it looks among those first; a table of every word's block is
// built only when that fails.
type blockStarts struct {
	p      *Program
	unique bool    // no two blocks start at one word
	table  []int32 // the block starting at word w, or -1, for w <= len(p.Ins)
}

func newBlockStarts(p *Program) blockStarts {
	blocks := p.Graph.Blocks()
	unique := true
	for i := 1; i < len(blocks) && unique; i++ {
		unique = blocks[i].Start > blocks[i-1].Start
	}
	return blockStarts{p: p, unique: unique}
}

// find returns the block starting at word w, trying from's successors
// first.
func (s *blockStarts) find(from cfg.BlockID, w int) (cfg.BlockID, bool) {
	if w < 0 || w > len(s.p.Ins) {
		return cfg.None, false
	}
	g := s.p.Graph
	if s.unique {
		for _, e := range g.Succs(from) {
			if g.Block(e.To).Start == w {
				return e.To, true
			}
		}
	}
	if s.table == nil {
		// A later block with the same start replaces an earlier one.
		s.table = make([]int32, len(s.p.Ins)+1)
		for i := range s.table {
			s.table[i] = -1
		}
		for _, b := range g.Blocks() {
			if b.Start >= 0 && b.Start < len(s.table) {
				s.table[b.Start] = int32(b.ID)
			}
		}
	}
	if s.table[w] < 0 {
		return cfg.None, false
	}
	return cfg.BlockID(s.table[w]), true
}

// Validate cross-checks the CFG against the instruction stream: every
// block is a non-empty word range of the program, and every static
// control transfer in the code, explicit or a fallthrough, has a CFG
// edge.
func (p *Program) Validate() error {
	if err := p.Graph.Validate(false); err != nil {
		return fmt.Errorf("program %s: %w", p.Name, err)
	}
	for _, b := range p.Graph.Blocks() {
		if b.Start < 0 || b.End <= b.Start || b.End > len(p.Ins) {
			return fmt.Errorf("program %s: block %s range [%d,%d) is not a non-empty range of its %d words",
				p.Name, b, b.Start, b.End, len(p.Ins))
		}
	}
	// A site error takes precedence over a missing edge wherever it
	// appears, so the walk runs to the end before reporting the first
	// missing edge.
	var missing error
	err := p.eachBranchSite(func(s BranchSite) {
		if missing != nil {
			return
		}
		for _, e := range p.Graph.Succs(s.Block) {
			if e.To == s.Target {
				return
			}
		}
		// A branch site inside a block body (not the terminator) can
		// only arise from CFG construction errors.
		missing = fmt.Errorf("program %s: word %d transfers %v->%v without a CFG edge",
			p.Name, s.Word, s.Block, s.Target)
	})
	if err != nil {
		return err
	}
	return missing
}
