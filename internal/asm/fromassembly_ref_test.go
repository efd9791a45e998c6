package asm_test

// Reference front end: program.FromAssembly, program.FromInstructions
// and cfg.Build as they were before the assembler returned instructions
// and labels, kept verbatim (renamed, with cfg names qualified) as the
// behavioral oracle, on top of the reference assembler.
// FuzzFromAssemblyEquivalence requires the same Program from both.

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"apbcc/internal/asm"
	"apbcc/internal/cfg"
	"apbcc/internal/isa"
	"apbcc/internal/program"
)

// refFromAssembly assembles ERI32 source and builds its Program. Labels
// that land on block starts become block labels.
func refFromAssembly(name, src string) (*program.Program, error) {
	r, err := asm.RefAssemble(src)
	if err != nil {
		return nil, fmt.Errorf("program %s: %w", name, err)
	}
	ins, err := isa.DecodeAll(r.Words)
	if err != nil {
		return nil, fmt.Errorf("program %s: %w", name, err)
	}
	p, err := refFromInstructions(name, ins, 0)
	if err != nil {
		return nil, err
	}
	// Build lists blocks in ascending start order, so a label's block is
	// a binary search away. Where several labels share a block start the
	// lexically smallest names it, whatever the symbol table's order.
	blocks := p.Graph.Blocks()
	named := make([]bool, len(blocks))
	for label, addr := range r.Symbols {
		i, ok := slices.BinarySearchFunc(blocks, addr, func(b *cfg.Block, addr int) int {
			return cmp.Compare(b.Start, addr)
		})
		if ok && (!named[i] || label < blocks[i].Label) {
			blocks[i].Label = label
			named[i] = true
		}
	}
	return p, nil
}

// refFromInstructions builds a Program by running CFG construction over a
// decoded instruction stream.
func refFromInstructions(name string, ins []isa.Instruction, entry int) (*program.Program, error) {
	g, err := refBuild(ins, entry)
	if err != nil {
		return nil, fmt.Errorf("program %s: %w", name, err)
	}
	g.Normalize()
	return &program.Program{Name: name, Graph: g, Ins: ins}, nil
}

// refBuild constructs a cfg.Graph from a decoded instruction stream using
// leader analysis: the entry, every static control-transfer target and
// every instruction following a control transfer start a block. Indirect
// jumps (jr/jalr) end blocks but contribute no static edges. Call edges
// (jal) link to the callee and, because ERI32 calls return, also add a
// fallthrough edge to the next block.
//
// The leader and block tables are dense slices indexed by word, and
// cfg.FromParts assembles the graph from flat arrays.
func refBuild(ins []isa.Instruction, entry int) (*cfg.Graph, error) {
	if entry < 0 || entry >= len(ins) {
		return nil, fmt.Errorf("cfg: entry %d outside program of %d words", entry, len(ins))
	}
	// blockAt[pc] is first a leader mark (0 or 1), then the ID of the
	// block starting at pc; it is only read at leaders.
	blockAt := make([]cfg.BlockID, len(ins))
	blockAt[entry] = 1
	for pc, in := range ins {
		if !in.IsControl() {
			continue
		}
		if tgt, ok := in.StaticTarget(pc); ok {
			if tgt < 0 || tgt >= len(ins) {
				return nil, fmt.Errorf("cfg: word %d: control target %d outside program", pc, tgt)
			}
			blockAt[tgt] = 1
		}
		if pc+1 < len(ins) {
			blockAt[pc+1] = 1
		}
	}
	n := 0
	for _, l := range blockAt {
		n += int(l)
	}

	blocks := make([]cfg.Block, n)
	// The labels "B0", "B1", ... are substrings of one string.
	var buf []byte
	for i := 0; i < n; i++ {
		buf = strconv.AppendInt(append(buf, 'B'), int64(i), 10)
	}
	names := string(buf)
	var id cfg.BlockID
	for pc, l := range blockAt {
		if l == 0 {
			continue
		}
		w := 2 // "B" and the first digit
		for v := id; v >= 10; v /= 10 {
			w++
		}
		b := &blocks[id]
		b.Label, b.Start = names[:w], pc
		names = names[w:]
		if id > 0 {
			blocks[id-1].End = pc
		}
		blockAt[pc] = id
		id++
	}
	blocks[n-1].End = len(ins)

	// Out-edges in block order: a block ends in at most two, of
	// distinct kinds, so none is a duplicate.
	edges := make([]cfg.Edge, 0, 2*n)
	for i := range blocks {
		b := &blocks[i]
		add := func(to int, kind cfg.EdgeKind) {
			edges = append(edges, cfg.Edge{From: cfg.BlockID(i), To: blockAt[to], Kind: kind})
		}
		last := ins[b.End-1]
		lastPC := b.End - 1
		switch {
		case last.IsBranch():
			tgt, _ := last.StaticTarget(lastPC)
			add(tgt, cfg.EdgeTaken)
			if b.End < len(ins) {
				add(b.End, cfg.EdgeFallthrough)
			}
		case last.Op == isa.OpJ:
			tgt, _ := last.StaticTarget(lastPC)
			add(tgt, cfg.EdgeJump)
		case last.Op == isa.OpJAL:
			tgt, _ := last.StaticTarget(lastPC)
			add(tgt, cfg.EdgeCall)
			if b.End < len(ins) {
				add(b.End, cfg.EdgeFallthrough)
			}
		case last.IsIndirect() || last.Op == isa.OpHALT:
			// No static successor.
		default:
			// Straight-line block split by a following leader.
			if b.End < len(ins) {
				add(b.End, cfg.EdgeFallthrough)
			}
		}
	}
	// Instructions before the first leader are unreachable preamble; they
	// are not part of any block. The entry is a leader, so it starts one.
	g, _, err := cfg.FromParts(blocks, blockAt[entry], edges)
	return g, err
}
