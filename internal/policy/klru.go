package policy

import (
	"cmp"

	"apbcc/internal/cfg"
)

// PaperKLRU is the paper's own policy, extracted verbatim from the
// seed Manager and behavior-preserving against it (the seed-golden
// differential test in internal/sim pins the exact event stream):
//
//   - expiry: the k-edge compression algorithm — an entry's counter
//     resets on access and advances on every other traversed edge; at
//     ExpireK the entry is deleted (Section 3; Strict applies the
//     literal Section 5 reading that ages never-executed prefetched
//     copies too);
//   - victim selection: least-recently-used, with never-accessed
//     entries (lastUse 0) evicted first and ties broken by lowest key
//     (Section 2's budget note);
//   - prefetch: the configured Figure 3 strategy — everything within
//     LookaheadK edges (PrefetchAll), or the single most probable
//     block within LookaheadK under the bound predictor
//     (PrefetchBest, the pre-decompress-single decision procedure);
//   - admission: everything (the handler must place the copy it just
//     decompressed).
//
// With ExpireK == 0 the expiry half disappears and PaperKLRU is plain
// LRU.
type PaperKLRU[K cmp.Ordered] struct {
	t table[K]
}

// NewPaperKLRU builds the default policy; Bind before use.
func NewPaperKLRU[K cmp.Ordered]() *PaperKLRU[K] { return &PaperKLRU[K]{} }

// Name implements Policy.
func (p *PaperKLRU[K]) Name() string { return "klru" }

// Bind implements Policy.
func (p *PaperKLRU[K]) Bind(env Env) { p.t.init(env) }

// Admit implements Policy: always cache.
func (p *PaperKLRU[K]) Admit(key K, m Meta) bool { return true }

// OnInsert implements Policy.
func (p *PaperKLRU[K]) OnInsert(key K, m Meta, now int64) { p.t.insert(key, m, now) }

// OnAccess implements Policy.
func (p *PaperKLRU[K]) OnAccess(key K, now int64) { p.t.access(key, now) }

// OnRemove implements Policy.
func (p *PaperKLRU[K]) OnRemove(key K) { p.t.remove(key) }

// Tick implements Policy: the k-edge counter advance.
func (p *PaperKLRU[K]) Tick(fresh K, now int64) []K { return p.t.tick(fresh, now) }

// Victim implements Policy: strict least-recently-used, ties to the
// lowest key (the scan ascends and only a strictly older entry
// displaces the champion).
func (p *PaperKLRU[K]) Victim(evictable func(K) bool) (K, bool) {
	var victim K
	var vrec *record
	p.t.scan(evictable, func(key K, r *record) {
		if vrec == nil || r.lastUse < vrec.lastUse {
			victim, vrec = key, r
		}
	})
	return victim, vrec != nil
}

// OldestUse implements Policy.
func (p *PaperKLRU[K]) OldestUse(evictable func(K) bool) (int64, bool) {
	return p.t.oldestUse(evictable)
}

// PrefetchCandidates implements Policy per the bound PrefetchMode.
func (p *PaperKLRU[K]) PrefetchCandidates(anchor cfg.BlockID, compressed func(cfg.BlockID) bool) []cfg.BlockID {
	return strategyCandidates(&p.t.env, anchor, compressed)
}

// ObserveEdge implements Policy: under PrefetchBest the bound
// predictor learns the taken edge (after the edge's prediction, as in
// the seed runtime).
func (p *PaperKLRU[K]) ObserveEdge(from, to cfg.BlockID) {
	strategyObserve(&p.t.env, from, to)
}
