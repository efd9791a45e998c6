package trace

import (
	"apbcc/internal/cfg"
)

// Predictor estimates one-step control-flow transition probabilities.
// The pre-decompress-single strategy combines these single-edge
// estimates into path probabilities to pick "the block that is to be
// the most likely one to be reached" (Section 4).
//
// Observe feeds the predictor the actually-taken edge after each block
// exit, letting online predictors adapt to the run.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Prob estimates P(next = to | current = from).
	Prob(from, to cfg.BlockID) float64
	// Observe records that the execution traversed from→to.
	Observe(from, to cfg.BlockID)
}

// StaticPredictor predicts from the CFG's annotated edge probabilities
// alone: the compile-time-profile predictor. It never adapts.
type StaticPredictor struct {
	g *cfg.Graph
}

// NewStatic builds a StaticPredictor over the graph.
func NewStatic(g *cfg.Graph) *StaticPredictor { return &StaticPredictor{g: g} }

// Name implements Predictor.
func (s *StaticPredictor) Name() string { return "static" }

// Prob implements Predictor.
func (s *StaticPredictor) Prob(from, to cfg.BlockID) float64 {
	for _, e := range s.g.Succs(from) {
		if e.To == to {
			return e.Prob
		}
	}
	return 0
}

// Observe implements Predictor as a no-op.
func (s *StaticPredictor) Observe(from, to cfg.BlockID) {}

// MarkovPredictor is an online first-order Markov predictor: it counts
// observed transitions and estimates probabilities from them, falling
// back to the static annotation until a block has enough history.
type MarkovPredictor struct {
	g      *cfg.Graph
	counts map[cfg.BlockID]map[cfg.BlockID]int64
	totals map[cfg.BlockID]int64
	// MinSamples is the history size below which the static annotation
	// is used instead.
	MinSamples int64
}

// NewMarkov builds an online Markov predictor over the graph.
func NewMarkov(g *cfg.Graph) *MarkovPredictor {
	return &MarkovPredictor{
		g:          g,
		counts:     make(map[cfg.BlockID]map[cfg.BlockID]int64),
		totals:     make(map[cfg.BlockID]int64),
		MinSamples: 4,
	}
}

// Name implements Predictor.
func (m *MarkovPredictor) Name() string { return "markov" }

// Observe implements Predictor.
func (m *MarkovPredictor) Observe(from, to cfg.BlockID) {
	row := m.counts[from]
	if row == nil {
		row = make(map[cfg.BlockID]int64)
		m.counts[from] = row
	}
	row[to]++
	m.totals[from]++
}

// Prob implements Predictor.
func (m *MarkovPredictor) Prob(from, to cfg.BlockID) float64 {
	if m.totals[from] >= m.MinSamples {
		return float64(m.counts[from][to]) / float64(m.totals[from])
	}
	for _, e := range m.g.Succs(from) {
		if e.To == to {
			return e.Prob
		}
	}
	return 0
}

// ProfiledPredictor predicts from a fixed, pre-collected profile — the
// strongest realistic first-order predictor (it has seen the whole
// workload distribution ahead of time), used as the upper baseline in
// the predictor ablation.
type ProfiledPredictor struct {
	p *Profile
	g *cfg.Graph
}

// NewProfiled builds a predictor over a pre-collected profile.
func NewProfiled(g *cfg.Graph, p *Profile) *ProfiledPredictor {
	return &ProfiledPredictor{p: p, g: g}
}

// Name implements Predictor.
func (pp *ProfiledPredictor) Name() string { return "profiled" }

// Prob implements Predictor.
func (pp *ProfiledPredictor) Prob(from, to cfg.BlockID) float64 {
	var total int64
	for _, e := range pp.g.Succs(from) {
		total += pp.p.EdgeCount(from, e.To)
	}
	if total == 0 {
		for _, e := range pp.g.Succs(from) {
			if e.To == to {
				return e.Prob
			}
		}
		return 0
	}
	return float64(pp.p.EdgeCount(from, to)) / float64(total)
}

// Observe implements Predictor as a no-op (the profile is fixed).
func (pp *ProfiledPredictor) Observe(from, to cfg.BlockID) {}
