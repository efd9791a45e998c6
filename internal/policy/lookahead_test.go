package policy

import (
	"slices"
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/trace"
	"apbcc/internal/workloads"
)

func suite(t *testing.T) []*workloads.Workload {
	t.Helper()
	ws, err := workloads.Suite()
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestLookaheadMatchesWithinK pins the per-graph k-edge table to the
// search it replaced: for every suite program and figure CFG, every
// block and k = 0…5, a row holds the reference's blocks in the
// reference's order, and each entry's distance is the least k whose
// reference set holds it.
func TestLookaheadMatchesWithinK(t *testing.T) {
	graphs := map[string]*cfg.Graph{"figure1": cfg.Figure1(), "figure2": cfg.Figure2(), "figure5": cfg.Figure5()}
	for _, w := range suite(t) {
		graphs[w.Name] = w.Program.Graph
	}
	for name, g := range graphs {
		for k := 0; k <= 5; k++ {
			la := g.Lookahead(k)
			for b := range g.NumBlocks() {
				from := cfg.BlockID(b)
				ids, dist := la.Row(from)
				if want := refWithinK(g, from, k); !slices.Equal(ids, want) {
					t.Fatalf("%s: row(%v, k=%d) = %v, want %v", name, from, k, ids, want)
				}
				for i, id := range ids {
					d := dist[i]
					if !slices.Contains(refWithinK(g, from, d), id) || slices.Contains(refWithinK(g, from, d-1), id) {
						t.Fatalf("%s: row(%v, k=%d) puts %v at distance %d", name, from, k, id, d)
					}
				}
			}
		}
	}
}

// TestLikeliestMatchesBeam pins the shared path-probability search to
// the searches it replaced. It walks the start of each suite program's
// own trace under the static predictor and under an online Markov
// predictor fed the taken edges. At every step it compares depths 1–4,
// (n, floor) = (1, 0) as in pre-decompress-single and (beamWidth,
// beamMinProb) as in markov-prefetch, each with no filter and with a
// filter that rejects a third of the blocks.
func TestLikeliestMatchesBeam(t *testing.T) {
	steps := 900
	if testing.Short() {
		steps = 100
	}
	params := []struct {
		n     int
		floor float64
	}{{1, 0}, {beamWidth, beamMinProb}}
	for _, w := range suite(t) {
		g := w.Program.Graph
		tr, err := w.Trace()
		if err != nil {
			t.Fatal(err)
		}
		walk := tr.Blocks[:min(len(tr.Blocks), steps)]
		for _, pred := range []trace.Predictor{trace.NewStatic(g), trace.NewMarkov(g)} {
			p := bound[int](t, "klru", Env{Graph: g, Predictor: pred, Mode: PrefetchBest, LookaheadK: 1, ExpireK: 4})
			for i, b := range walk {
				some := func(id cfg.BlockID) bool { return (int(id)+i)%3 != 0 }
				for depth := 1; depth <= 4; depth++ {
					for _, c := range params {
						for _, filter := range []func(cfg.BlockID) bool{nil, some} {
							got := p.likeliest(b, depth, c.n, c.floor, filter)
							want := refBeam(g, pred, b, depth, c.n, c.floor, filter)
							if !slices.Equal(got, want) {
								t.Fatalf("%s/%s step %d: likeliest(%v, depth %d, n %d, floor %g, filter %t) = %v, want %v",
									w.Name, pred.Name(), i, b, depth, c.n, c.floor, filter != nil, got, want)
							}
						}
					}
				}
				if i+1 < len(walk) && slices.ContainsFunc(g.Succs(b), func(e cfg.Edge) bool { return e.To == walk[i+1] }) {
					pred.Observe(b, walk[i+1])
				}
			}
		}
	}
}

// TestPrefetchCandidatesAllocFree pins prefetch scoring to no
// allocation per call once bound: pre-all reads a row of its table,
// and pre-single and markov-prefetch search in scratch the policy
// owns. Each call anchors at the next block of zipf, k = 2.
func TestPrefetchCandidatesAllocFree(t *testing.T) {
	w, err := workloads.ByName("zipf")
	if err != nil {
		t.Fatal(err)
	}
	g := w.Program.Graph
	compressed := func(id cfg.BlockID) bool { return id%2 == 0 }
	for _, c := range []struct {
		name, policy string
		mode         PrefetchMode
		pred         trace.Predictor
	}{
		{"pre-all", "klru", PrefetchAll, nil},
		{"pre-single", "klru", PrefetchBest, trace.NewMarkov(g)},
		{"markov-prefetch", "markov-prefetch", PrefetchNone, nil},
	} {
		p := bound[int](t, c.policy, Env{Graph: g, Predictor: c.pred, Mode: c.mode, LookaheadK: 2, ExpireK: 4})
		anchor := 0
		allocs := testing.AllocsPerRun(200, func() {
			p.PrefetchCandidates(cfg.BlockID(anchor%g.NumBlocks()), compressed)
			anchor++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per PrefetchCandidates call, want 0", c.name, allocs)
		}
	}
}
