// Package trace produces and consumes basic-block access patterns — the
// runtime signal the paper's whole approach is driven by ("tracking the
// basic block accesses (also called the instruction access pattern) at
// runtime").
//
// A Trace is the sequence of basic blocks an execution visits. Traces
// are generated by a seeded probabilistic walk over an annotated CFG
// (the simulator's stand-in for running the program on real inputs), or
// written out explicitly in tests. Profiles aggregate edge frequencies
// from traces and can re-annotate a CFG, closing the profile-driven
// loop.
package trace

import (
	"errors"
	"fmt"
	"math/rand"

	"apbcc/internal/cfg"
)

// Trace is a basic-block visit sequence. The first entry is the entry
// block of the run.
type Trace struct {
	Blocks []cfg.BlockID
}

// Len returns the number of block visits.
func (t *Trace) Len() int { return len(t.Blocks) }

// Edges returns the number of edge traversals (visits minus one).
func (t *Trace) Edges() int {
	if len(t.Blocks) == 0 {
		return 0
	}
	return len(t.Blocks) - 1
}

// GenConfig configures trace generation.
type GenConfig struct {
	// Seed makes the walk reproducible.
	Seed int64
	// MaxSteps bounds the number of block visits; the walk also stops
	// at any block without successors unless Restart is set.
	MaxSteps int
	// Restart, when true, re-enters the program at its entry block
	// whenever the walk reaches a block with no successors — modeling
	// an embedded kernel invoked repeatedly (per frame, per buffer).
	// The restart is a fresh program entry, not a CFG edge.
	Restart bool
}

// ErrNoEntry reports generation over a graph without an entry block.
var ErrNoEntry = errors.New("trace: graph has no entry block")

// Generate walks the CFG from its entry, choosing successors according
// to the annotated edge probabilities (call Normalize on the graph
// first). The walk visits at most cfg.MaxSteps blocks and stops early at
// a block with no out-edges.
func Generate(g *cfg.Graph, gc GenConfig) (*Trace, error) {
	if g.Entry() == cfg.None {
		return nil, ErrNoEntry
	}
	if gc.MaxSteps <= 0 {
		return nil, fmt.Errorf("trace: MaxSteps %d must be positive", gc.MaxSteps)
	}
	rng := rand.New(rand.NewSource(gc.Seed))
	t := &Trace{Blocks: make([]cfg.BlockID, 0, gc.MaxSteps)}
	cur := g.Entry()
	for len(t.Blocks) < gc.MaxSteps {
		t.Blocks = append(t.Blocks, cur)
		succs := g.Succs(cur)
		if len(succs) == 0 {
			if !gc.Restart {
				break
			}
			cur = g.Entry()
			continue
		}
		cur = pick(rng, succs)
	}
	return t, nil
}

// pick draws a successor proportionally to edge probability, falling
// back to uniform when probabilities are unannotated.
func pick(rng *rand.Rand, succs []cfg.Edge) cfg.BlockID {
	total := 0.0
	for _, e := range succs {
		total += e.Prob
	}
	if total <= 0 {
		return succs[rng.Intn(len(succs))].To
	}
	x := rng.Float64() * total
	for _, e := range succs {
		x -= e.Prob
		if x < 0 {
			return e.To
		}
	}
	return succs[len(succs)-1].To
}

// FromLabels builds a trace from block labels, for golden tests that
// spell out a paper scenario (e.g. Figure 5's B0,B1,B0,B1,B3).
func FromLabels(g *cfg.Graph, labels ...string) (*Trace, error) {
	t := &Trace{}
	for i, l := range labels {
		b, ok := g.BlockByLabel(l)
		if !ok {
			return nil, fmt.Errorf("trace: step %d: no block labeled %q", i, l)
		}
		t.Blocks = append(t.Blocks, b.ID)
	}
	return t, nil
}

// Validate checks that consecutive trace entries follow CFG edges. A
// transition out of a successor-less block back to the entry is a
// program restart and is accepted.
func (t *Trace) Validate(g *cfg.Graph) error {
	for i := 0; i+1 < len(t.Blocks); i++ {
		from, to := t.Blocks[i], t.Blocks[i+1]
		succs := g.Succs(from)
		if len(succs) == 0 && to == g.Entry() {
			continue // restart
		}
		ok := false
		for _, e := range succs {
			if e.To == to {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("trace: step %d: no edge %v->%v", i, from, to)
		}
	}
	return nil
}

// Profile aggregates edge frequencies.
type Profile struct {
	edges map[[2]cfg.BlockID]int64
}

// NewProfile creates an empty profile.
func NewProfile() *Profile {
	return &Profile{edges: make(map[[2]cfg.BlockID]int64)}
}

// AddEdge records one traversal of from→to.
func (p *Profile) AddEdge(from, to cfg.BlockID) {
	p.edges[[2]cfg.BlockID{from, to}]++
}

// AddTrace folds a whole trace into the profile.
func (p *Profile) AddTrace(t *Trace) {
	for i, b := range t.Blocks {
		if i+1 < len(t.Blocks) {
			p.AddEdge(b, t.Blocks[i+1])
		}
	}
}

// EdgeCount returns the recorded traversals of from→to.
func (p *Profile) EdgeCount(from, to cfg.BlockID) int64 {
	return p.edges[[2]cfg.BlockID{from, to}]
}
