package policy

import (
	"cmp"

	"apbcc/internal/cfg"
	"apbcc/internal/trace"
)

// strategyCandidates is the shared Figure 3 prefetch dispatch used by
// the replacement-only policies: everything within LookaheadK edges
// under PrefetchAll, the single most probable compressed block under
// PrefetchBest.
func strategyCandidates(env *Env, anchor cfg.BlockID, compressed func(cfg.BlockID) bool) []cfg.BlockID {
	switch env.Mode {
	case PrefetchAll:
		return env.Graph.WithinK(anchor, env.LookaheadK)
	case PrefetchBest:
		best, ok := trace.BestWithinK(env.Graph, env.Predictor, anchor, env.LookaheadK, compressed)
		if !ok {
			return nil
		}
		return []cfg.BlockID{best}
	}
	return nil
}

// strategyObserve feeds the taken edge to the bound predictor when the
// strategy predicts.
func strategyObserve(env *Env, from, to cfg.BlockID) {
	if env.Mode == PrefetchBest && env.Predictor != nil {
		env.Predictor.Observe(from, to)
	}
}

// CostAware is a GreedyDual-Size policy in the spirit of Cao & Irani
// and of compression-aware memory management (Pekhimenko, "Practical
// Data Compression for Modern Memory Hierarchies"): each entry carries
// a benefit key H = L + Cost/Bytes, where Cost is the modeled cycle
// price of re-producing the entry (per-codec decompression cost in the
// runtime) and Bytes its resident size.
// The victim is the entry with the smallest H; evicting it inflates
// the global floor L to its H, so long-idle entries age out no matter
// how expensive they once were. Accessing an entry refreshes its H at
// the current floor — recency, frequency, unit size and codec speed
// all fold into one scalar.
//
// Expiry and prefetch follow the bound environment (see LFU).
type CostAware[K cmp.Ordered] struct {
	t table[K]
	// floor is the GreedyDual L value: the inflation clock that makes
	// old H values comparable with fresh ones.
	floor float64
}

// NewCostAware builds a GreedyDual-Size policy; Bind before use.
func NewCostAware[K cmp.Ordered]() *CostAware[K] { return &CostAware[K]{} }

// Name implements Policy.
func (p *CostAware[K]) Name() string { return "cost-aware" }

// Bind implements Policy.
func (p *CostAware[K]) Bind(env Env) { p.t.init(env); p.floor = 0 }

// Admit implements Policy: always cache (the budget pressure is
// handled by eviction order, not admission).
func (p *CostAware[K]) Admit(key K, m Meta) bool { return true }

// benefit computes Cost/Bytes with a floor for degenerate metas.
func benefit(r *record) float64 {
	if r.bytes <= 0 {
		return float64(r.cost)
	}
	return float64(r.cost) / float64(r.bytes)
}

// OnInsert implements Policy.
func (p *CostAware[K]) OnInsert(key K, m Meta, now int64) {
	r := p.t.insert(key, m, now)
	r.hval = p.floor + benefit(r)
}

// OnAccess implements Policy: refresh H at the current floor.
func (p *CostAware[K]) OnAccess(key K, now int64) {
	if r := p.t.access(key, now); r != nil {
		r.hval = p.floor + benefit(r)
	}
}

// OnRemove implements Policy.
func (p *CostAware[K]) OnRemove(key K) { p.t.remove(key) }

// Tick implements Policy.
func (p *CostAware[K]) Tick(fresh K, now int64) []K { return p.t.tick(fresh, now) }

// Victim implements Policy: smallest H, ties to least recent use then
// lowest key; evicting raises the floor to the victim's H.
func (p *CostAware[K]) Victim(evictable func(K) bool) (K, bool) {
	var victim K
	var vrec *record
	p.t.scan(evictable, func(key K, r *record) {
		if vrec == nil || r.hval < vrec.hval ||
			(r.hval == vrec.hval && r.lastUse < vrec.lastUse) {
			victim, vrec = key, r
		}
	})
	if vrec == nil {
		return victim, false
	}
	if vrec.hval > p.floor {
		p.floor = vrec.hval
	}
	return victim, true
}

// OldestUse implements Policy.
func (p *CostAware[K]) OldestUse(evictable func(K) bool) (int64, bool) {
	return p.t.oldestUse(evictable)
}

// PrefetchCandidates implements Policy.
func (p *CostAware[K]) PrefetchCandidates(anchor cfg.BlockID, compressed func(cfg.BlockID) bool) []cfg.BlockID {
	return strategyCandidates(&p.t.env, anchor, compressed)
}

// ObserveEdge implements Policy.
func (p *CostAware[K]) ObserveEdge(from, to cfg.BlockID) { strategyObserve(&p.t.env, from, to) }
