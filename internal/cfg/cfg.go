// Package cfg implements the control flow graph representation that
// steers the access-pattern-based compression runtime.
//
// A Graph is a set of basic blocks connected by directed edges, exactly
// as in Section 2 of the DATE'05 paper: nodes are straight-line code
// regions, edges are the possible control transfers, the entry block is
// where control enters. Edges optionally carry branch-probability
// annotations used by the trace generator and by the
// pre-decompress-single predictor.
//
// Graphs can be built two ways: by hand (AddBlock/AddEdge, used for the
// paper's figure CFGs and the synthetic workloads) or from a decoded
// ERI32 instruction stream via Build, which performs classic leader
// analysis.
package cfg

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"apbcc/internal/isa"
)

// BlockID identifies a basic block within one Graph. IDs are dense,
// starting at 0, in creation order.
type BlockID int

// None is the absent-block sentinel.
const None BlockID = -1

// EdgeKind classifies how control flows along an edge.
type EdgeKind uint8

// Edge kinds.
const (
	EdgeFallthrough EdgeKind = iota // sequential flow past a non-taken branch
	EdgeTaken                       // taken conditional branch
	EdgeJump                        // unconditional jump
	EdgeCall                        // function call (jal)
	EdgeReturn                      // return edge (jr, conservatively added)
)

// String returns a short mnemonic for the kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeFallthrough:
		return "fall"
	case EdgeTaken:
		return "taken"
	case EdgeJump:
		return "jump"
	case EdgeCall:
		return "call"
	case EdgeReturn:
		return "ret"
	}
	return fmt.Sprintf("EdgeKind(%d)", uint8(k))
}

// Edge is a directed control-flow edge with an optional probability
// annotation. Probabilities are per-source: the out-edges of a block
// should sum to 1 after Normalize.
type Edge struct {
	From, To BlockID
	Kind     EdgeKind
	Prob     float64
}

// Block is a basic block.
type Block struct {
	ID    BlockID
	Label string
	// Start and End delimit the block's instructions as word indices
	// [Start, End) in the program image. Hand-built graphs that have no
	// backing image use Start = 0 and End = word count.
	Start, End int
	// Func optionally names the function this block belongs to; the
	// granularity ablation clusters blocks by this name.
	Func string
}

// Words returns the block size in instruction words.
func (b *Block) Words() int { return b.End - b.Start }

// Bytes returns the block size in bytes.
func (b *Block) Bytes() int { return b.Words() * isa.WordSize }

// String identifies the block for diagnostics.
func (b *Block) String() string {
	if b.Label != "" {
		return b.Label
	}
	return fmt.Sprintf("B%d", b.ID)
}

// Graph is a control flow graph.
type Graph struct {
	blocks []*Block
	succs  [][]Edge
	preds  [][]Edge
	entry  BlockID
}

// New returns an empty graph. The first added block becomes the entry
// unless SetEntry overrides it.
func New() *Graph {
	return &Graph{entry: None}
}

// AddBlock appends a block of the given size in words and returns its
// ID. The label may be empty.
func (g *Graph) AddBlock(label string, words int) BlockID {
	id := BlockID(len(g.blocks))
	g.blocks = append(g.blocks, &Block{ID: id, Label: label, Start: 0, End: words})
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, nil)
	if g.entry == None {
		g.entry = id
	}
	return id
}

// AddEdge inserts a directed edge. Duplicate (from,to,kind) edges are
// rejected.
func (g *Graph) AddEdge(from, to BlockID, kind EdgeKind, prob float64) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("cfg: edge %d->%d references unknown block", from, to)
	}
	for _, e := range g.succs[from] {
		if e.To == to && e.Kind == kind {
			return fmt.Errorf("cfg: duplicate edge %s->%s (%s)", g.blocks[from], g.blocks[to], kind)
		}
	}
	e := Edge{From: from, To: to, Kind: kind, Prob: prob}
	g.succs[from] = append(g.succs[from], e)
	g.preds[to] = append(g.preds[to], e)
	return nil
}

// MustAddEdge is AddEdge that panics on error; for statically-known
// figure CFGs and generators.
func (g *Graph) MustAddEdge(from, to BlockID, kind EdgeKind, prob float64) {
	if err := g.AddEdge(from, to, kind, prob); err != nil {
		panic(err)
	}
}

// SetEntry designates the entry block.
func (g *Graph) SetEntry(id BlockID) error {
	if !g.valid(id) {
		return fmt.Errorf("cfg: entry %d references unknown block", id)
	}
	g.entry = id
	return nil
}

// Entry returns the entry block ID, or None for an empty graph.
func (g *Graph) Entry() BlockID { return g.entry }

// NumBlocks returns the number of blocks.
func (g *Graph) NumBlocks() int { return len(g.blocks) }

// Block returns the block with the given ID.
func (g *Graph) Block(id BlockID) *Block {
	if !g.valid(id) {
		return nil
	}
	return g.blocks[id]
}

// BlockByLabel finds a block by label.
func (g *Graph) BlockByLabel(label string) (*Block, bool) {
	for _, b := range g.blocks {
		if b.Label == label {
			return b, true
		}
	}
	return nil, false
}

// Blocks returns the blocks in ID order. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Blocks() []*Block { return g.blocks }

// Succs returns the out-edges of a block. Shared slice; do not modify.
func (g *Graph) Succs(id BlockID) []Edge {
	if !g.valid(id) {
		return nil
	}
	return g.succs[id]
}

// Preds returns the in-edges of a block. Shared slice; do not modify.
func (g *Graph) Preds(id BlockID) []Edge {
	if !g.valid(id) {
		return nil
	}
	return g.preds[id]
}

// TotalWords sums the sizes of all blocks in words.
func (g *Graph) TotalWords() int {
	n := 0
	for _, b := range g.blocks {
		n += b.Words()
	}
	return n
}

// TotalBytes sums the sizes of all blocks in bytes.
func (g *Graph) TotalBytes() int { return g.TotalWords() * isa.WordSize }

func (g *Graph) valid(id BlockID) bool { return id >= 0 && int(id) < len(g.blocks) }

// Normalize rescales the out-edge probabilities of every block to sum
// to 1. Blocks whose annotations are absent (all zero) get uniform
// probabilities.
func (g *Graph) Normalize() {
	for id := range g.succs {
		edges := g.succs[id]
		if len(edges) == 0 {
			continue
		}
		sum := 0.0
		for _, e := range edges {
			sum += e.Prob
		}
		if sum <= 0 {
			p := 1.0 / float64(len(edges))
			for i := range edges {
				edges[i].Prob = p
			}
		} else {
			for i := range edges {
				edges[i].Prob /= sum
			}
		}
		// Mirror the rescaled values into the pred lists.
		for _, e := range edges {
			for i, pe := range g.preds[e.To] {
				if pe.From == e.From && pe.Kind == e.Kind {
					g.preds[e.To][i].Prob = e.Prob
				}
			}
		}
	}
}

// Validation errors.
var (
	ErrNoEntry     = errors.New("cfg: graph has no entry block")
	ErrUnreachable = errors.New("cfg: unreachable block")
)

// Validate checks structural invariants: an entry exists, edge endpoints
// are valid, pred/succ lists mirror each other, and (optionally) every
// block is reachable from the entry.
func (g *Graph) Validate(requireReachable bool) error {
	if g.entry == None {
		return ErrNoEntry
	}
	for id, edges := range g.succs {
		for _, e := range edges {
			if e.From != BlockID(id) {
				return fmt.Errorf("cfg: succ edge of block %d has From=%d", id, e.From)
			}
			if !g.valid(e.To) {
				return fmt.Errorf("cfg: edge %d->%d references unknown block", e.From, e.To)
			}
			found := false
			for _, pe := range g.preds[e.To] {
				if pe.From == e.From && pe.Kind == e.Kind {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("cfg: edge %d->%d missing from pred list", e.From, e.To)
			}
		}
	}
	if requireReachable {
		seen := g.reachable()
		for _, b := range g.blocks {
			if !seen[b.ID] {
				return fmt.Errorf("%w: %s", ErrUnreachable, b)
			}
		}
	}
	return nil
}

// reachable returns the set of blocks reachable from the entry.
func (g *Graph) reachable() map[BlockID]bool {
	seen := make(map[BlockID]bool, len(g.blocks))
	if g.entry == None {
		return seen
	}
	stack := []BlockID{g.entry}
	seen[g.entry] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.succs[cur] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// FromParts builds the graph that AddBlock for each of blocks (block i
// gets ID i), SetEntry(entry) and AddEdge for each of edges, in order,
// would build — the same blocks, entry, and out- and in-edge lists in
// the same order, and the same error for the first call that would
// fail — from a few flat allocations instead of one per block and edge:
// blocks itself becomes the block store, and every block's Succs and
// Preds are capacity-capped windows of one edge array each. The graph
// takes ownership of blocks. On failure bad is the index of the
// rejected edge, or -1 for a bad entry.
func FromParts(blocks []Block, entry BlockID, edges []Edge) (g *Graph, bad int, err error) {
	n := len(blocks)
	g = &Graph{
		blocks: make([]*Block, n),
		succs:  make([][]Edge, n),
		preds:  make([][]Edge, n),
		entry:  None,
	}
	for i := range blocks {
		blocks[i].ID = BlockID(i)
		g.blocks[i] = &blocks[i]
	}
	if err := g.SetEntry(entry); err != nil {
		return nil, -1, err
	}
	// Edges up to the first one naming an unknown block go in; an
	// earlier duplicate still takes precedence over that one.
	all := edges
	for k, e := range all {
		if !g.valid(e.From) || !g.valid(e.To) {
			edges = all[:k]
			break
		}
	}
	g.succs = carve(g.succs, edges, func(e Edge) BlockID { return e.From })
	for k, e := range edges {
		for _, s := range g.succs[e.From] {
			if s.To == e.To && s.Kind == e.Kind {
				return nil, k, fmt.Errorf("cfg: duplicate edge %s->%s (%s)", g.blocks[e.From], g.blocks[e.To], e.Kind)
			}
		}
		g.succs[e.From] = append(g.succs[e.From], e)
	}
	if k := len(edges); k < len(all) {
		return nil, k, fmt.Errorf("cfg: edge %d->%d references unknown block", all[k].From, all[k].To)
	}
	g.preds = carve(g.preds, edges, func(e Edge) BlockID { return e.To })
	for _, e := range edges {
		g.preds[e.To] = append(g.preds[e.To], e)
	}
	return g, -1, nil
}

// carve gives each block lists[b] an empty window of one shared array,
// with room for exactly the edges whose key is b; blocks with none keep
// a nil list, as AddBlock leaves them.
func carve(lists [][]Edge, edges []Edge, key func(Edge) BlockID) [][]Edge {
	start := make([]int, len(lists)+1)
	for _, e := range edges {
		start[key(e)+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	store := make([]Edge, len(edges))
	for b := range lists {
		if start[b] < start[b+1] {
			lists[b] = store[start[b]:start[b]:start[b+1]]
		}
	}
	return lists
}

// Build constructs a Graph from a decoded instruction stream using
// leader analysis: the entry, every static control-transfer target and
// every instruction following a control transfer start a block. Indirect
// jumps (jr/jalr) end blocks but contribute no static edges. Call edges
// (jal) link to the callee and, because ERI32 calls return, also add a
// fallthrough edge to the next block. A block's out-edges share its
// probability evenly, as Normalize shares it on an unannotated graph.
//
// The leader and block tables are dense slices indexed by word, and
// FromParts assembles the graph from flat arrays.
func Build(ins []isa.Instruction, entry int) (*Graph, error) {
	if entry < 0 || entry >= len(ins) {
		return nil, fmt.Errorf("cfg: entry %d outside program of %d words", entry, len(ins))
	}
	// blockAt[pc] is first a leader mark (0 or 1), then the ID of the
	// block starting at pc; it is only read at leaders.
	blockAt := make([]BlockID, len(ins))
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

	blocks := make([]Block, n)
	// The labels "B0", "B1", ... are windows of one string: each id
	// takes a 'B' and one digit, and one more digit per power of ten it
	// reaches.
	size := 2 * n
	for p := 10; p < n; p *= 10 {
		size += n - p
	}
	var sb strings.Builder
	sb.Grow(size)
	var digits [20]byte
	for i := 0; i < n; i++ {
		sb.WriteByte('B')
		sb.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	}
	names := sb.String()
	var id BlockID
	w, wider := 2, BlockID(10) // w is the width of "B<id>" below wider
	for pc, l := range blockAt {
		if l == 0 {
			continue
		}
		if id == wider {
			w, wider = w+1, 10*wider
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
	edges := make([]Edge, 0, 2*n)
	for i := range blocks {
		b := &blocks[i]
		first := len(edges)
		add := func(to int, kind EdgeKind) {
			edges = append(edges, Edge{From: BlockID(i), To: blockAt[to], Kind: kind})
		}
		last := ins[b.End-1]
		lastPC := b.End - 1
		switch {
		case last.IsBranch():
			tgt, _ := last.StaticTarget(lastPC)
			add(tgt, EdgeTaken)
			if b.End < len(ins) {
				add(b.End, EdgeFallthrough)
			}
		case last.Op == isa.OpJ:
			tgt, _ := last.StaticTarget(lastPC)
			add(tgt, EdgeJump)
		case last.Op == isa.OpJAL:
			tgt, _ := last.StaticTarget(lastPC)
			add(tgt, EdgeCall)
			if b.End < len(ins) {
				add(b.End, EdgeFallthrough)
			}
		case last.IsIndirect() || last.Op == isa.OpHALT:
			// No static successor.
		default:
			// Straight-line block split by a following leader.
			if b.End < len(ins) {
				add(b.End, EdgeFallthrough)
			}
		}
		for k := first; k < len(edges); k++ {
			edges[k].Prob = 1.0 / float64(len(edges)-first)
		}
	}
	// Instructions before the first leader are unreachable preamble; they
	// are not part of any block. The entry is a leader, so it starts one.
	g, _, err := FromParts(blocks, blockAt[entry], edges)
	return g, err
}
