package policy

import (
	"sort"

	"apbcc/internal/cfg"
	"apbcc/internal/trace"
)

// The look-ahead searches that the per-graph table (cfg.Lookahead) and
// the shared path-probability search (likeliest) replaced, kept as
// references: refWithinK is cfg.Graph.WithinK and refBeam is
// markov-prefetch's beam, with the beam's depth, width and floor as
// parameters. trace.BestWithinK, pre-decompress-single's search, was
// refBeam with width 1 and floor 0. The bodies are unchanged but for
// reaching the graph through its exported accessors.

func refWithinK(g *cfg.Graph, from cfg.BlockID, k int) []cfg.BlockID {
	if from < 0 || int(from) >= g.NumBlocks() || k <= 0 {
		return nil
	}
	type item struct {
		id   cfg.BlockID
		dist int
	}
	dist := make(map[cfg.BlockID]int, 8)
	var out []item
	frontier := []cfg.BlockID{from}
	for d := 1; d <= k && len(frontier) > 0; d++ {
		var next []cfg.BlockID
		for _, cur := range frontier {
			for _, e := range g.Succs(cur) {
				if _, seen := dist[e.To]; seen {
					continue
				}
				dist[e.To] = d
				out = append(out, item{e.To, d})
				next = append(next, e.To)
			}
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].dist != out[j].dist {
			return out[i].dist < out[j].dist
		}
		return out[i].id < out[j].id
	})
	ids := make([]cfg.BlockID, len(out))
	for i, it := range out {
		ids[i] = it.id
	}
	return ids
}

func refBeam(g *cfg.Graph, pred trace.Predictor, anchor cfg.BlockID, depth, beamWidth int, beamMinProb float64, compressed func(cfg.BlockID) bool) []cfg.BlockID {
	if g == nil || pred == nil {
		return nil
	}
	type cand struct {
		id   cfg.BlockID
		prob float64
		dist int
	}
	best := make(map[cfg.BlockID]cand)
	frontier := map[cfg.BlockID]float64{anchor: 1}
	for d := 1; d <= depth && len(frontier) > 0; d++ {
		next := make(map[cfg.BlockID]float64)
		for id, prob := range frontier {
			for _, e := range g.Succs(id) {
				np := prob * pred.Prob(id, e.To)
				if np <= 0 {
					continue
				}
				if np > next[e.To] {
					next[e.To] = np
				}
				if cur, ok := best[e.To]; !ok || np > cur.prob {
					best[e.To] = cand{e.To, np, d}
				}
			}
		}
		frontier = next
	}
	cands := make([]cand, 0, len(best))
	for _, c := range best {
		if c.prob >= beamMinProb && (compressed == nil || compressed(c.id)) {
			cands = append(cands, c)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.prob != b.prob {
			return a.prob > b.prob
		}
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		return a.id < b.id
	})
	if len(cands) > beamWidth {
		cands = cands[:beamWidth]
	}
	out := make([]cfg.BlockID, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}
