package policy

import (
	"reflect"
	"slices"
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/trace"
)

func bound[K interface{ ~int | ~string }](t *testing.T, name string, env Env) *Policy[K] {
	t.Helper()
	p, err := New[K](name)
	if err != nil {
		t.Fatal(err)
	}
	p.Bind(env)
	return p
}

func all[K interface{ ~int | ~string }](K) bool { return true }

// TestVictimTieBreaksByLowestKey is the regression test for the
// eviction tie-break: entries with equal recency (here: two prefetched
// copies that never executed, both carrying lastUse 0) must yield a
// deterministic victim — the lowest key — never one that depends on
// map iteration order. The differential sim/rt test relies on this.
func TestVictimTieBreaksByLowestKey(t *testing.T) {
	for _, name := range Names() {
		p := bound[int](t, name, Env{ExpireK: 4})
		// Insertion order deliberately descending and interleaved.
		for _, k := range []int{7, 3, 9, 5} {
			p.OnInsert(k, Meta{Bytes: 64, Cost: 100}, 10)
		}
		v, ok := p.Victim(all[int])
		if !ok || v != 3 {
			t.Errorf("%s: victim = %d,%v want 3,true (lowest key on tie)", name, v, ok)
		}
		// Excluding the tied winner must fall to the next lowest.
		v, ok = p.Victim(func(k int) bool { return k != 3 })
		if !ok || v != 5 {
			t.Errorf("%s: victim excluding 3 = %d,%v want 5,true", name, v, ok)
		}
	}
}

func TestVictimRespectsEvictableFilter(t *testing.T) {
	p := bound[int](t, "klru", Env{ExpireK: 4})
	p.OnInsert(1, Meta{Bytes: 8}, 1)
	p.OnAccess(1, 1)
	if _, ok := p.Victim(func(int) bool { return false }); ok {
		t.Error("victim found with nothing evictable")
	}
	if _, ok := p.Victim(all[int]); !ok {
		t.Error("no victim with one evictable entry")
	}
}

func TestKLRUVictimIsLeastRecentlyUsed(t *testing.T) {
	p := bound[int](t, "klru", Env{ExpireK: 100})
	for k := 1; k <= 3; k++ {
		p.OnInsert(k, Meta{Bytes: 8}, int64(k))
		p.OnAccess(k, int64(k))
	}
	p.OnAccess(1, 9) // 2 is now the oldest
	if v, ok := p.Victim(all[int]); !ok || v != 2 {
		t.Errorf("victim = %d want 2", v)
	}
	if c, ok := p.OldestUse(all[int]); !ok || c != 2 {
		t.Errorf("OldestUse = %d want 2", c)
	}
}

// TestTickExpiryMatchesKEdge checks the Section 3 counter semantics:
// an entry expires on the k-th edge after its last access, never-
// accessed entries are exempt unless Strict, and the fresh key is
// always exempt.
func TestTickExpiryMatchesKEdge(t *testing.T) {
	p := bound[int](t, "klru", Env{ExpireK: 3})
	p.OnInsert(1, Meta{Bytes: 8}, 1)
	p.OnAccess(1, 1)
	p.OnInsert(2, Meta{Bytes: 8}, 1) // prefetched, never accessed

	// The caller's side of the contract: expired keys are removed.
	drain := func(p *Policy[int], lastNow int64) []int {
		var expired []int
		for now := int64(2); now <= lastNow; now++ {
			for _, k := range p.Tick(99, now) {
				expired = append(expired, k)
				p.OnRemove(k)
			}
		}
		return expired
	}
	// Entry 1 was last accessed at clock 1: edges 2,3,4 age it to 3.
	if expired := drain(p, 5); !reflect.DeepEqual(expired, []int{1}) {
		t.Errorf("expired = %v want [1] (entry 2 never accessed)", expired)
	}

	strict := bound[int](t, "klru", Env{ExpireK: 3, Strict: true})
	strict.OnInsert(2, Meta{Bytes: 8}, 1)
	if sExpired := drain(strict, 5); !reflect.DeepEqual(sExpired, []int{2}) {
		t.Errorf("strict expired = %v want [2]", sExpired)
	}
}

func TestTickExemptsFreshKey(t *testing.T) {
	p := bound[int](t, "klru", Env{ExpireK: 1})
	p.OnInsert(1, Meta{Bytes: 8}, 1)
	p.OnAccess(1, 1)
	if exp := p.Tick(1, 2); len(exp) != 0 {
		t.Errorf("fresh key expired: %v", exp)
	}
	if exp := p.Tick(2, 3); !reflect.DeepEqual(exp, []int{1}) {
		t.Errorf("expired = %v want [1]", exp)
	}
}

// TestKLRURetainsRecencyAcrossLifetimes pins the retention rule the
// seed Manager's per-unit fields implied: a unit deleted and later
// re-prefetched keeps its last-execution time, so it does not
// masquerade as never-used.
func TestKLRURetainsRecencyAcrossLifetimes(t *testing.T) {
	p := bound[int](t, "klru", Env{ExpireK: 4})
	p.OnInsert(1, Meta{Bytes: 8}, 1)
	p.OnAccess(1, 5)
	p.OnRemove(1)
	p.OnInsert(1, Meta{Bytes: 8}, 7) // re-prefetch, no access yet
	p.OnInsert(2, Meta{Bytes: 8}, 7)
	p.OnAccess(2, 7)
	// Key 1 carries lastUse 5 from its previous life; key 2 was used at
	// 7 — so 1 is the victim, NOT because it is never-used (lastUse 0).
	if c, ok := p.OldestUse(all[int]); !ok || c != 5 {
		t.Errorf("OldestUse = %d want 5 (retained across lifetimes)", c)
	}
}

func TestLFUVictimIsLeastFrequent(t *testing.T) {
	p := bound[int](t, "lfu", Env{ExpireK: 100})
	p.OnInsert(1, Meta{Bytes: 8}, 1)
	p.OnInsert(2, Meta{Bytes: 8}, 1)
	for i := 0; i < 5; i++ {
		p.OnAccess(1, int64(2+i))
	}
	p.OnAccess(2, 10) // recent but rare
	if v, ok := p.Victim(all[int]); !ok || v != 2 {
		t.Errorf("victim = %d want 2 (least frequent beats least recent)", v)
	}
}

func TestCostAwareKeepsExpensiveBytes(t *testing.T) {
	p := bound[int](t, "cost-aware", Env{ExpireK: 100})
	// Same size, same recency: entry 1 is cheap to rebuild, entry 2
	// expensive — the cheap one goes first.
	p.OnInsert(1, Meta{Bytes: 100, Cost: 100}, 1)
	p.OnAccess(1, 2)
	p.OnInsert(2, Meta{Bytes: 100, Cost: 10000}, 1)
	p.OnAccess(2, 2)
	if v, ok := p.Victim(all[int]); !ok || v != 1 {
		t.Errorf("victim = %d want 1 (lowest cost density)", v)
	}
	p.OnRemove(1)
	// GreedyDual aging: after the eviction inflated the floor, a new
	// cheap-but-fresh entry outranks the stale expensive one... until
	// the expensive one is touched again.
	p.OnInsert(3, Meta{Bytes: 100, Cost: 50}, 3)
	p.OnAccess(3, 3)
	v, ok := p.Victim(all[int])
	if !ok {
		t.Fatal("no victim")
	}
	if v != 3 {
		// H(2) = 100 ≫ H(3) = floor(1) + 0.5 — 3 must lose despite recency.
		t.Errorf("victim = %d want 3 (floor-adjusted cost)", v)
	}
}

func TestMarkovPrefetchBeam(t *testing.T) {
	// Diamond: A -> B (0.9) | C (0.1); B,C -> D.
	g := cfg.New()
	a := g.AddBlock("A", 4)
	b := g.AddBlock("B", 4)
	c := g.AddBlock("C", 4)
	d := g.AddBlock("D", 4)
	g.MustAddEdge(a, b, cfg.EdgeTaken, 0.9)
	g.MustAddEdge(a, c, cfg.EdgeFallthrough, 0.1)
	g.MustAddEdge(b, d, cfg.EdgeJump, 1)
	g.MustAddEdge(c, d, cfg.EdgeJump, 1)

	p := bound[int](t, "markov-prefetch", Env{Graph: g, ExpireK: 4, LookaheadK: 2})
	got := p.PrefetchCandidates(a, nil)
	// Best path probabilities within 2 edges: B=0.9, D=0.9 (via B),
	// C=0.1. C clears beamMinProb, but the beam is beamWidth=2 wide,
	// so B and D fill it.
	if len(got) != 2 {
		t.Fatalf("candidates = %v want 2 entries", got)
	}
	for _, id := range got {
		if id != b && id != d {
			t.Errorf("unexpected candidate %v (want B and D)", id)
		}
	}
	// The predictor adapts: after observing only A->C edges, C must
	// enter the beam.
	for i := 0; i < 32; i++ {
		p.ObserveEdge(a, c)
		p.ObserveEdge(c, d)
	}
	got = p.PrefetchCandidates(a, nil)
	found := false
	for _, id := range got {
		if id == c {
			found = true
		}
	}
	if !found {
		t.Errorf("after training, candidates = %v want C included", got)
	}
}

func TestMarkovPrefetchHonorsCompressedFilter(t *testing.T) {
	g := cfg.New()
	a := g.AddBlock("A", 4)
	b := g.AddBlock("B", 4)
	g.MustAddEdge(a, b, cfg.EdgeJump, 1)
	p := bound[int](t, "markov-prefetch", Env{Graph: g, ExpireK: 4})
	if got := p.PrefetchCandidates(a, func(cfg.BlockID) bool { return false }); len(got) != 0 {
		t.Errorf("candidates = %v want none (all resident)", got)
	}
}

func TestStrategyDispatch(t *testing.T) {
	g := cfg.New()
	a := g.AddBlock("A", 4)
	b := g.AddBlock("B", 4)
	c := g.AddBlock("C", 4)
	g.MustAddEdge(a, b, cfg.EdgeTaken, 0.8)
	g.MustAddEdge(a, c, cfg.EdgeFallthrough, 0.2)

	klru := bound[int](t, "klru", Env{Graph: g, Mode: PrefetchNone, LookaheadK: 1, ExpireK: 4})
	if got := klru.PrefetchCandidates(a, nil); got != nil {
		t.Errorf("on-demand candidates = %v want nil", got)
	}

	allMode := bound[int](t, "klru", Env{Graph: g, Mode: PrefetchAll, LookaheadK: 1, ExpireK: 4})
	if got := allMode.PrefetchCandidates(a, nil); len(got) != 2 {
		t.Errorf("pre-all candidates = %v want B and C", got)
	}

	best := bound[int](t, "klru", Env{
		Graph: g, Mode: PrefetchBest, LookaheadK: 1, ExpireK: 4,
		Predictor: trace.NewStatic(g),
	})
	got := best.PrefetchCandidates(a, func(cfg.BlockID) bool { return true })
	if len(got) != 1 || got[0] != b {
		t.Errorf("pre-single candidates = %v want [B]", got)
	}
}

// preSingle binds a klru policy that proposes by pre-decompress-single
// under g's static annotations, k edges ahead.
func preSingle(t *testing.T, g *cfg.Graph, k int) *Policy[int] {
	t.Helper()
	return bound[int](t, "klru", Env{
		Graph: g, Mode: PrefetchBest, LookaheadK: k, ExpireK: 4,
		Predictor: trace.NewStatic(g),
	})
}

func TestBestWithinK(t *testing.T) {
	g := cfg.Figure2()
	g.Normalize()
	b0, _ := g.BlockByLabel("B0")
	b3, _ := g.BlockByLabel("B3")
	b4, _ := g.BlockByLabel("B4")
	// Accept everything: the best 1-edge candidate from B0 is B3 (0.6).
	got := preSingle(t, g, 1).PrefetchCandidates(b0.ID, func(cfg.BlockID) bool { return true })
	if !slices.Equal(got, []cfg.BlockID{b3.ID}) {
		t.Errorf("best = %v, want [B3]", got)
	}
	// Reject B3: next best within 1 edge is B4 (0.4).
	got = preSingle(t, g, 1).PrefetchCandidates(b0.ID, func(id cfg.BlockID) bool { return id != b3.ID })
	if !slices.Equal(got, []cfg.BlockID{b4.ID}) {
		t.Errorf("best = %v, want [B4]", got)
	}
	// Nothing acceptable.
	if got := preSingle(t, g, 2).PrefetchCandidates(b0.ID, func(cfg.BlockID) bool { return false }); len(got) != 0 {
		t.Errorf("found %v with universal reject", got)
	}
}

func TestBestWithinKPrefersHighProbPath(t *testing.T) {
	// A -> B (0.9) -> D; A -> C (0.1) -> E. Within 2 edges, D should be
	// preferred over E.
	g := cfg.New()
	a := g.AddBlock("A", 1)
	b := g.AddBlock("B", 1)
	c := g.AddBlock("C", 1)
	d := g.AddBlock("D", 1)
	e := g.AddBlock("E", 1)
	g.MustAddEdge(a, b, cfg.EdgeTaken, 0.9)
	g.MustAddEdge(a, c, cfg.EdgeFallthrough, 0.1)
	g.MustAddEdge(b, d, cfg.EdgeJump, 1)
	g.MustAddEdge(c, e, cfg.EdgeJump, 1)
	g.Normalize()
	deep := func(id cfg.BlockID) bool { return id == d || id == e }
	if got := preSingle(t, g, 2).PrefetchCandidates(a, deep); !slices.Equal(got, []cfg.BlockID{d}) {
		t.Errorf("best = %v, want [D]", got)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		p, err := New[int](name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("%q: empty name", name)
		}
	}
	if p, err := New[int](""); err != nil || p.Name() != "klru" {
		t.Errorf("default policy = %v, %v want klru", p, err)
	}
	for _, name := range []string{"belady", "paper", "cost", "markov"} {
		if _, err := New[int](name); err == nil {
			t.Errorf("unknown policy %q accepted", name)
		}
	}
}

// TestEnvCostModelPlumbs sanity-checks that metas priced by a codec
// cost model drive cost-aware eviction end to end.
func TestEnvCostModelPlumbs(t *testing.T) {
	cost := compress.CostModel{DecompressFixed: 10, DecompressPerByte: 2}
	p := bound[int](t, "cost-aware", Env{ExpireK: 4})
	p.OnInsert(1, Meta{Bytes: 4, Cost: cost.DecompressCycles(4)}, 1)
	p.OnInsert(2, Meta{Bytes: 400, Cost: cost.DecompressCycles(400)}, 1)
	// Density: unit 1 = 18/4 = 4.5; unit 2 = 810/400 ≈ 2 — bigger unit
	// has lower cost density, goes first.
	if v, ok := p.Victim(all[int]); !ok || v != 2 {
		t.Errorf("victim = %d want 2", v)
	}
}
