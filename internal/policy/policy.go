// Package policy is the replacement-and-prefetch engine behind the
// core runtime Manager, and through it the cycle simulator, the
// concurrent runtime and the multi-application coordinator.
//
// The paper's scheme makes three decisions on every traversed edge:
// expire a copy k edges after its last use (Section 3), evict under a
// memory budget (Section 2), and pre-decompress ahead (Section 4). The
// engine always applies the paper's k-edge expiry; a policy's name
// selects one row of a rule table that fixes the other two:
//
//	name             victim order                              prefetch
//	klru             least recent use                          Figure 3 strategy
//	lfu              fewest uses, then least recent use        Figure 3 strategy
//	cost-aware       lowest GreedyDual H, then least recent    Figure 3 strategy
//	markov-prefetch  least recent use                          depth-N Markov beam
//
// klru is the paper's own policy and the default; the seed-golden test
// in internal/sim pins its exact event stream. cost-aware is
// GreedyDual-Size (Cao & Irani), the compression-aware replacement
// rule of Pekhimenko's "Practical Data Compression for Modern Memory
// Hierarchies": each entry carries H = L + Cost/Bytes, where Cost is
// the modeled cycle price of decompressing the entry again and Bytes
// its resident size; evicting the lowest H raises the floor L to it,
// so long-idle entries age out however expensive they once were.
// markov-prefetch widens pre-decompress-single into a beam: every
// block within the lookahead is scored by its best path probability
// under an online Markov predictor, and the best beamWidth candidates
// at or above beamMinProb are proposed, under any configured strategy.
//
// Prefetch scoring asks one question of the CFG: which blocks lie
// within k edges ahead of the running block (Section 4)?
// Pre-decompress-all reads the answer from the graph's k-edge table
// (cfg.Lookahead), which Bind builds once. Pre-decompress-single and
// markov-prefetch share one path-probability search, which runs in
// block-indexed scratch that the policy owns. Neither allocates per
// edge.
//
// # Contract
//
// A Policy tracks a set of resident entries identified by ordered keys
// (compression-unit IDs in the runtime):
//
//   - OnInsert/OnAccess/OnRemove keep the policy's view of residency
//     and recency in sync with the caller, fed by the caller's logical
//     clock (the edge clock in the runtime). Tick advances that clock
//     across one edge and returns the keys whose lifetime ended (the
//     k-edge expiry set); the caller must then remove them.
//   - Victim picks the next entry to discard among those the caller
//     marks evictable. Ties always break toward the lowest key, so a
//     simulator and a concurrent runtime replaying the same edge
//     stream evict identically.
//   - PrefetchCandidates proposes blocks to pre-decompress after
//     execution crosses an edge, best candidate first, in a slice that
//     is read-only and valid until the next call; ObserveEdge feeds the
//     traversed edge back so online predictors adapt.
//
// Callers hold their own lock around every method; a Policy is not
// concurrency-safe and carries per-run state, so one value must not be
// shared between two Managers or runs.
//
// The key universe is closed (the fixed unit set of one program), so
// records survive removal: a unit that is deleted and later
// re-prefetched keeps its last-execution timestamp and use count.
package policy

import (
	"cmp"
	"fmt"
	"slices"

	"apbcc/internal/cfg"
	"apbcc/internal/trace"
)

// Meta describes one entry at insert time.
type Meta struct {
	// Bytes is the entry's resident size: the decompressed copy in the
	// runtime.
	Bytes int
	// Cost is the price of re-producing the entry after discarding it
	// — modeled decompression cycles for a unit. cost-aware keeps
	// expensive bytes resident longer.
	Cost int64
}

// PrefetchMode is the runtime's configured prefetch strategy (the
// paper's Figure 3 axis). markov-prefetch ignores it.
type PrefetchMode uint8

// Prefetch modes.
const (
	// PrefetchNone: on-demand operation; propose nothing.
	PrefetchNone PrefetchMode = iota
	// PrefetchAll: propose every block within LookaheadK edges
	// (pre-decompress-all).
	PrefetchAll
	// PrefetchBest: propose the single most probable block within
	// LookaheadK edges (pre-decompress-single).
	PrefetchBest
)

// Env is the read-only world a policy is bound to before use.
type Env struct {
	// Graph is the program CFG, for prefetch scoring.
	Graph *cfg.Graph
	// Predictor supplies edge probabilities for prefetch scoring;
	// markov-prefetch builds its own when nil.
	Predictor trace.Predictor
	// Mode is the configured prefetch strategy.
	Mode PrefetchMode
	// LookaheadK is the prefetch lookahead depth (decompress-k).
	LookaheadK int
	// ExpireK is the k-edge expiry parameter (compress-k), at least 1.
	ExpireK int
	// Strict ages entries that have not been accessed since insertion
	// (the literal Section 5 counter reading); the default ages only
	// entries the execution thread has visited (Section 3).
	Strict bool
}

// victimOrder ranks eviction candidates; every order falls back to
// least recent use, then to the lowest key.
type victimOrder uint8

const (
	byRecency    victimOrder = iota // least recent use
	byFrequency                     // fewest uses
	byGreedyDual                    // lowest GreedyDual H
)

// rule is one row of the policy table.
type rule struct {
	name  string
	order victimOrder
	// markov selects the depth-N Markov beam over the configured
	// Figure 3 strategy.
	markov bool
}

// rules is the policy table, sorted by name.
var rules = []rule{
	{name: "cost-aware", order: byGreedyDual},
	{name: "klru", order: byRecency},
	{name: "lfu", order: byFrequency},
	{name: "markov-prefetch", order: byRecency, markov: true},
}

// The markov-prefetch beam: at most beamWidth candidates per edge, each
// with a best path probability of at least beamMinProb, searched
// LookaheadK edges deep (beamDepth when that is unset).
const (
	beamWidth   = 2
	beamMinProb = 0.05
	beamDepth   = 3
)

// Names lists the policy names, sorted; these are the values the
// -policy flags accept.
func Names() []string {
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.name
	}
	return names
}

// Policy decides victims, k-edge expiry and prefetch candidates for
// one set of resident entries. See the package comment for the
// contract.
type Policy[K cmp.Ordered] struct {
	rule
	env   Env
	pred  trace.Predictor // the prefetch predictor: Env.Predictor, or markov-prefetch's own
	ahead *cfg.Lookahead  // PrefetchAll's k-edge table
	paths paths           // the path-probability search's scratch
	recs  map[K]*record
	keys  []K // resident keys, ascending
	// floor is the GreedyDual L value: the inflation clock that makes
	// old H values comparable with fresh ones.
	floor float64
}

// record is the per-key state. It carries every rule's fields; only
// the bound rule reads freq and hval.
type record struct {
	resident bool
	accessed bool    // accessed since (re)insertion
	counter  int     // edges since last access (k-edge expiry)
	lastUse  int64   // clock of last access; 0 = never accessed
	freq     int64   // lifetime access count (lfu)
	bytes    int     // resident size
	cost     int64   // re-production cost
	hval     float64 // GreedyDual H (cost-aware)
}

// New builds the named policy; the empty name selects klru. Bind the
// result before use.
func New[K cmp.Ordered](name string) (*Policy[K], error) {
	name = cmp.Or(name, "klru")
	for _, r := range rules {
		if r.name == name {
			return &Policy[K]{rule: r}, nil
		}
	}
	return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names())
}

// Name identifies the policy in flags, reports and bench tables.
func (p *Policy[K]) Name() string { return p.name }

// Bind gives the policy its environment; call once before use. It
// builds what prefetch scoring reads: the graph's k-edge table for
// PrefetchAll, the search's scratch for PrefetchBest and
// markov-prefetch.
func (p *Policy[K]) Bind(env Env) {
	p.env = env
	p.pred = env.Predictor
	p.ahead, p.paths = nil, paths{}
	if g := env.Graph; g != nil {
		if p.markov && p.pred == nil {
			p.pred = trace.NewMarkov(g)
		}
		switch {
		case p.markov || env.Mode == PrefetchBest:
			p.paths = newPaths(g.NumBlocks())
		case env.Mode == PrefetchAll:
			p.ahead = g.Lookahead(env.LookaheadK)
		}
	}
	p.recs = make(map[K]*record)
	p.keys = nil
	p.floor = 0
}

// OnInsert registers a resident entry. Insertion is not a use: a
// prefetched copy that never ran keeps lastUse 0, or its previous
// life's timestamp, so it stays oldest.
func (p *Policy[K]) OnInsert(key K, m Meta, now int64) {
	r := p.recs[key]
	if r == nil {
		r = &record{}
		p.recs[key] = r
	}
	if !r.resident {
		i, _ := slices.BinarySearch(p.keys, key)
		p.keys = slices.Insert(p.keys, i, key)
	}
	r.resident = true
	r.accessed = false
	r.counter = 0
	r.bytes = m.Bytes
	r.cost = m.Cost
	r.hval = p.floor + r.benefit()
}

// OnAccess records a use of a resident entry, refreshing its H at the
// current floor.
func (p *Policy[K]) OnAccess(key K, now int64) {
	r := p.recs[key]
	if r == nil || !r.resident {
		return
	}
	r.accessed = true
	r.counter = 0
	r.lastUse = now
	r.freq++
	r.hval = p.floor + r.benefit()
}

// OnRemove unregisters an entry however it left: k-edge expiry,
// eviction, or deletion. Its record survives for the next insert.
func (p *Policy[K]) OnRemove(key K) {
	r := p.recs[key]
	if r == nil || !r.resident {
		return
	}
	r.resident = false
	if i, ok := slices.BinarySearch(p.keys, key); ok {
		p.keys = slices.Delete(p.keys, i, i+1)
	}
}

// Tick advances the clock across one traversed edge: it ages every
// resident entry except fresh, the key accessed on that edge, and
// returns the keys whose counter reached ExpireK, lowest first — the
// k-edge algorithm of the paper's Section 3 (Section 5 semantics under
// Strict). The caller removes them.
func (p *Policy[K]) Tick(fresh K, now int64) []K {
	var expired []K
	for _, key := range p.keys {
		if key == fresh {
			continue
		}
		r := p.recs[key]
		if !r.accessed && !p.env.Strict {
			continue
		}
		r.counter++
		if r.counter >= p.env.ExpireK {
			expired = append(expired, key)
		}
	}
	return expired
}

// Victim picks the entry to discard next among resident entries for
// which evictable returns true, by the rule's victim order; ok is
// false when none qualifies. The scan ascends and only a strictly
// lower-ranked entry displaces the champion, so ties go to the lowest
// key. Under cost-aware the pick raises the GreedyDual floor to the
// victim's H.
func (p *Policy[K]) Victim(evictable func(K) bool) (victim K, ok bool) {
	var vrec *record
	for _, key := range p.keys {
		if evictable != nil && !evictable(key) {
			continue
		}
		if r := p.recs[key]; vrec == nil || p.ranksBelow(r, vrec) {
			victim, vrec = key, r
		}
	}
	if vrec == nil {
		return victim, false
	}
	if p.order == byGreedyDual && vrec.hval > p.floor {
		p.floor = vrec.hval
	}
	return victim, true
}

// ranksBelow reports whether r is a strictly better victim than v.
func (p *Policy[K]) ranksBelow(r, v *record) bool {
	switch {
	case p.order == byFrequency && r.freq != v.freq:
		return r.freq < v.freq
	case p.order == byGreedyDual && r.hval != v.hval:
		return r.hval < v.hval
	}
	return r.lastUse < v.lastUse
}

// benefit is the GreedyDual Cost/Bytes term, the bare cost for an
// entry of no size.
func (r *record) benefit() float64 {
	if r.bytes <= 0 {
		return float64(r.cost)
	}
	return float64(r.cost) / float64(r.bytes)
}

// OldestUse returns the last-access clock of the least-recently used
// evictable entry, whatever the victim order; cross-runtime
// coordinators (internal/multi) compare this value across
// applications.
func (p *Policy[K]) OldestUse(evictable func(K) bool) (clock int64, ok bool) {
	for _, key := range p.keys {
		if evictable != nil && !evictable(key) {
			continue
		}
		if r := p.recs[key]; !ok || r.lastUse < clock {
			clock, ok = r.lastUse, true
		}
	}
	return clock, ok
}

// PrefetchCandidates proposes blocks to pre-decompress after execution
// crosses the edge ending at anchor, best first. compressed reports
// whether a block currently lacks a copy; nil admits every block. The
// Figure 3 strategies propose everything within LookaheadK edges
// (PrefetchAll, a row of the table Bind built) or the single most
// probable compressed block there (PrefetchBest). The result is
// read-only and valid until the next call.
func (p *Policy[K]) PrefetchCandidates(anchor cfg.BlockID, compressed func(cfg.BlockID) bool) []cfg.BlockID {
	switch {
	case p.markov:
		return p.likeliest(anchor, cmp.Or(p.env.LookaheadK, beamDepth), beamWidth, beamMinProb, compressed)
	case p.env.Mode == PrefetchAll:
		ids, _ := p.ahead.Row(anchor)
		return ids
	case p.env.Mode == PrefetchBest:
		return p.likeliest(anchor, p.env.LookaheadK, 1, 0, compressed)
	}
	return nil
}

// paths is the scratch of the path-probability search, indexed by
// block and sized in Bind. Every probability is zero between searches,
// and each list holds a block at most once.
type paths struct {
	at, next []float64     // best probability of standing at each block's exit after d and d+1 edges
	prob     []float64     // best probability over all depths so far
	dist     []int         // the fewest edges that reach prob
	front    []cfg.BlockID // the blocks with at > 0
	grow     []cfg.BlockID // the blocks with next > 0
	reached  []cfg.BlockID // the blocks with prob > 0
	out      []cfg.BlockID // the result, best first
}

// newPaths sizes the scratch for a graph of the given number of
// blocks, so that no search grows it.
func newPaths(blocks int) paths {
	return paths{
		at: make([]float64, blocks), next: make([]float64, blocks),
		prob: make([]float64, blocks), dist: make([]int, blocks),
		front: make([]cfg.BlockID, 0, blocks), grow: make([]cfg.BlockID, 0, blocks),
		reached: make([]cfg.BlockID, 0, blocks),
		out:     make([]cfg.BlockID, 0, beamWidth+1),
	}
}

// likeliest is the path-probability search of pre-decompress-single
// (n = 1, floor 0) and markov-prefetch (n = beamWidth, floor
// beamMinProb). It scores every block at most depth edges ahead of the
// exit of anchor by its best path probability, the product of the
// predictor's one-step estimates along the path, and returns the best
// n blocks whose probability is at least floor and which accept admits
// (nil admits all): probability descending, then distance, then ID.
// The result is the scratch's own slice.
func (p *Policy[K]) likeliest(anchor cfg.BlockID, depth, n int, floor float64, accept func(cfg.BlockID) bool) []cfg.BlockID {
	s := &p.paths
	if p.pred == nil || anchor < 0 || int(anchor) >= len(s.at) {
		return nil
	}
	s.at[anchor] = 1
	s.front = append(s.front, anchor)
	for d := 1; d <= depth && len(s.front) > 0; d++ {
		for _, id := range s.front {
			for _, e := range p.env.Graph.Succs(id) {
				np := s.at[id] * p.pred.Prob(id, e.To)
				if np <= 0 {
					continue
				}
				if s.next[e.To] == 0 {
					s.grow = append(s.grow, e.To)
				}
				s.next[e.To] = max(s.next[e.To], np)
				if s.prob[e.To] == 0 {
					s.reached = append(s.reached, e.To)
				}
				if np > s.prob[e.To] {
					s.prob[e.To], s.dist[e.To] = np, d
				}
			}
		}
		for _, id := range s.front {
			s.at[id] = 0
		}
		s.at, s.next = s.next, s.at
		s.front, s.grow = s.grow, s.front[:0]
	}
	for _, id := range s.front {
		s.at[id] = 0
	}
	s.front = s.front[:0]
	s.out = s.out[:0]
	for _, id := range s.reached {
		if s.prob[id] < floor || accept != nil && !accept(id) {
			continue
		}
		i := len(s.out)
		for i > 0 && s.precedes(id, s.out[i-1]) {
			i--
		}
		if i < n {
			s.out = slices.Insert(s.out, i, id)
			s.out = s.out[:min(len(s.out), n)]
		}
	}
	for _, id := range s.reached {
		s.prob[id] = 0
	}
	s.reached = s.reached[:0]
	return s.out
}

// precedes reports whether block a ranks before block b: a higher
// probability, then fewer edges, then the lower ID.
func (s *paths) precedes(a, b cfg.BlockID) bool {
	if s.prob[a] != s.prob[b] {
		return s.prob[a] > s.prob[b]
	}
	if s.dist[a] != s.dist[b] {
		return s.dist[a] < s.dist[b]
	}
	return a < b
}

// ObserveEdge feeds the policy the edge actually traversed, after
// PrefetchCandidates for that edge: the predictor learns it when it
// drives prefetch (PrefetchBest, or markov-prefetch always).
func (p *Policy[K]) ObserveEdge(from, to cfg.BlockID) {
	if p.pred != nil && (p.markov || p.env.Mode == PrefetchBest) {
		p.pred.Observe(from, to)
	}
}
