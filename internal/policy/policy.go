// Package policy is the pluggable replacement-and-prefetch engine
// shared by every layer that keeps decompressed (or compressed) block
// copies under a byte budget: the core runtime Manager, the cycle
// simulator and concurrent runtime built on it, and the
// multi-application coordinator.
//
// The paper's scheme is, at heart, one such policy — k-edge expiry
// counters, LRU victim selection under a budget, predictor-driven
// pre-decompression — but it occupies a small corner of a large design
// space. Extracting the decisions behind an interface lets the same
// runtime run cost-aware eviction in the spirit of compression-aware
// memory management (Pekhimenko et al.) or deeper Markov prefetching.
//
// # Interface contract
//
// A Policy tracks a set of resident entries identified by ordered keys
// (compression-unit IDs in the runtime) and answers four kinds of
// questions:
//
//   - Observe hooks — OnInsert/OnAccess/OnRemove keep the policy's
//     view of residency and recency in sync with the caller, fed by
//     the caller's logical clock (the edge clock in the runtime). Tick
//     advances that clock across one edge and returns the keys whose
//     lifetime ended (the k-edge expiry set); the caller must then
//     remove them.
//   - Victim selection — Victim picks the next entry to discard among
//     those the caller marks evictable. Selection is deterministic:
//     ties always break toward the lowest key, so a simulator and a
//     concurrent runtime replaying the same edge stream evict
//     identically.
//   - Admission — Admit may veto caching an entry entirely (cheap,
//     large values can be worth recomputing rather than caching).
//   - Prefetch scoring — PrefetchCandidates proposes blocks to
//     pre-decompress after execution crosses an edge, best candidate
//     first; ObserveEdge feeds the traversed edge back so online
//     predictors adapt.
//
// Callers hold their own lock around every method; implementations are
// not concurrency-safe and carry per-run state, so one Policy value
// must not be shared between two Managers, shards or runs.
//
// # Key retention
//
// When Env.ExpireK > 0 the key universe is closed (the fixed unit set
// of one program) and records survive removal: a unit that is deleted
// and later re-prefetched keeps its last-execution timestamp and
// frequency, exactly as the seed Manager's per-unit fields did. When
// ExpireK == 0 (an open key universe) records are dropped on removal so the policy's memory stays
// proportional to the resident set.
package policy

import (
	"cmp"
	"fmt"
	"sort"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/trace"
)

// Meta describes one entry at admission/insert time.
type Meta struct {
	// Bytes is the entry's resident size: the decompressed copy in the
	// runtime.
	Bytes int
	// Cost is the price of re-producing the entry after discarding it
	// — modeled decompression cycles for a unit. Cost-aware policies
	// keep expensive bytes resident longer.
	Cost int64
}

// PrefetchMode tells a policy which prefetch decision the runtime's
// configured strategy expects (the paper's Figure 3 axis). Policies
// with their own prefetch scheme (MarkovPrefetch) may ignore it.
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

// Env is the read-only world a policy is bound to before use. Cache
// deployments leave the graph fields zero; prefetch hooks then return
// nil.
type Env struct {
	// Graph is the program CFG (prefetch scoring); nil in caches.
	Graph *cfg.Graph
	// Predictor supplies edge probabilities for prefetch scoring.
	// Policies that need one build their own when nil.
	Predictor trace.Predictor
	// Mode is the configured prefetch strategy.
	Mode PrefetchMode
	// LookaheadK is the prefetch lookahead depth (decompress-k).
	LookaheadK int
	// ExpireK is the k-edge expiry parameter (compress-k); 0 disables
	// expiry (and switches to open-universe key retention).
	ExpireK int
	// Strict ages entries that have not been accessed since insertion
	// (the literal Section 5 counter reading); the default ages only
	// entries the execution thread has visited (Section 3).
	Strict bool
	// Cost is the bound codec's cycle cost model, for policies that
	// weigh time against bytes.
	Cost compress.CostModel
}

// Policy decides replacement, admission, expiry and prefetch for one
// set of resident entries. See the package comment for the contract.
type Policy[K cmp.Ordered] interface {
	// Name identifies the policy in flags, reports and bench tables.
	Name() string
	// Bind gives the policy its environment; call once before use.
	Bind(env Env)

	// Admit reports whether a new entry is worth placing at all. It is
	// consulted for optional placements only — prefetch issues in the
	// runtime, fills in the cache; demand decompression cannot be
	// vetoed (execution needs the copy regardless).
	Admit(key K, m Meta) bool
	// OnInsert registers a resident entry (admission already decided).
	OnInsert(key K, m Meta, now int64)
	// OnAccess records a use of a resident entry.
	OnAccess(key K, now int64)
	// OnRemove unregisters an entry however it left: k-edge expiry,
	// eviction, or deletion.
	OnRemove(key K)
	// Tick advances the clock across one traversed edge; fresh is the
	// key accessed on that edge (exempt from aging). It returns the
	// keys whose lifetime ended, lowest first; the caller removes
	// them. Policies without expiry return nil.
	Tick(fresh K, now int64) []K

	// Victim picks the entry to discard next among resident entries
	// for which evictable returns true; ok is false when none
	// qualifies.
	Victim(evictable func(K) bool) (victim K, ok bool)
	// OldestUse returns the last-access clock of the least-recently
	// used evictable entry. All policies track recency regardless of
	// their victim rule; cross-runtime coordinators (internal/multi)
	// compare this value across applications.
	OldestUse(evictable func(K) bool) (clock int64, ok bool)

	// PrefetchCandidates proposes blocks to pre-decompress after
	// execution crosses the edge ending at anchor, best first.
	// compressed reports whether a block currently lacks a copy.
	PrefetchCandidates(anchor cfg.BlockID, compressed func(cfg.BlockID) bool) []cfg.BlockID
	// ObserveEdge feeds the policy the edge actually traversed, after
	// PrefetchCandidates for that edge.
	ObserveEdge(from, to cfg.BlockID)
}

// Names lists the registered policy names, sorted; these are the
// values the -policy flags accept.
func Names() []string {
	return []string{"cost-aware", "klru", "lfu", "markov-prefetch"}
}

// New builds a policy by name with default parameters. The empty name
// selects the paper's k-edge LRU. Callers Bind the result before use.
func New[K cmp.Ordered](name string) (Policy[K], error) {
	switch name {
	case "", "klru", "paper":
		return NewPaperKLRU[K](), nil
	case "lfu":
		return NewLFU[K](), nil
	case "cost-aware", "cost":
		return NewCostAware[K](), nil
	case "markov-prefetch", "markov":
		return NewMarkovPrefetch[K](), nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names())
}

// record is the per-key state shared by the built-in policies. Only
// the fields a concrete policy reads are meaningful under it.
type record struct {
	resident bool
	accessed bool    // accessed since (re)insertion
	counter  int     // edges since last access (k-edge expiry)
	lastUse  int64   // clock of last access; 0 = never accessed
	freq     int64   // lifetime access count (LFU)
	bytes    int     // resident size
	cost     int64   // re-production cost
	hval     float64 // GreedyDual key (CostAware)
}

// table is the bookkeeping core the built-in policies embed: a record
// per key plus the sorted resident-key list that makes every scan
// deterministic.
type table[K cmp.Ordered] struct {
	env  Env
	recs map[K]*record
	keys []K // resident keys, ascending
}

func (t *table[K]) init(env Env) {
	t.env = env
	t.recs = make(map[K]*record)
	t.keys = nil
}

// retainRemoved reports whether records survive removal (closed key
// universes; see the package comment).
func (t *table[K]) retainRemoved() bool { return t.env.ExpireK > 0 }

func (t *table[K]) insert(key K, m Meta, now int64) *record {
	r := t.recs[key]
	if r == nil {
		r = &record{}
		t.recs[key] = r
	}
	if !r.resident {
		i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= key })
		t.keys = append(t.keys, key)
		copy(t.keys[i+1:], t.keys[i:])
		t.keys[i] = key
	}
	r.resident = true
	r.accessed = false
	r.counter = 0
	r.bytes = m.Bytes
	r.cost = m.Cost
	if !t.retainRemoved() {
		// Open universe (caches): insertion is the first use, so a
		// fresh entry ranks most-recent — list-LRU semantics. Closed
		// universe keeps the seed runtime's rule instead: recency is
		// execution-only, so a prefetched copy that never ran stays
		// oldest (lastUse 0 or its previous life's timestamp).
		r.lastUse = now
		r.freq++
	}
	return r
}

func (t *table[K]) access(key K, now int64) *record {
	r := t.recs[key]
	if r == nil || !r.resident {
		return nil
	}
	r.accessed = true
	r.counter = 0
	r.lastUse = now
	r.freq++
	return r
}

func (t *table[K]) remove(key K) {
	r := t.recs[key]
	if r == nil || !r.resident {
		return
	}
	r.resident = false
	i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= key })
	if i < len(t.keys) && t.keys[i] == key {
		t.keys = append(t.keys[:i], t.keys[i+1:]...)
	}
	if !t.retainRemoved() {
		delete(t.recs, key)
	}
}

// tick ages every resident entry except fresh and returns the keys
// whose counter reached ExpireK, lowest first — the k-edge algorithm
// of the paper's Section 3 (Section 5 semantics under Strict).
func (t *table[K]) tick(fresh K, now int64) []K {
	if t.env.ExpireK <= 0 {
		return nil
	}
	var expired []K
	for _, key := range t.keys {
		if key == fresh {
			continue
		}
		r := t.recs[key]
		if !r.accessed && !t.env.Strict {
			continue
		}
		r.counter++
		if r.counter >= t.env.ExpireK {
			expired = append(expired, key)
		}
	}
	return expired
}

// scan visits resident evictable records in ascending key order.
func (t *table[K]) scan(evictable func(K) bool, visit func(key K, r *record)) {
	for _, key := range t.keys {
		if evictable != nil && !evictable(key) {
			continue
		}
		visit(key, t.recs[key])
	}
}

// oldestUse is the recency floor every built-in policy reports.
func (t *table[K]) oldestUse(evictable func(K) bool) (int64, bool) {
	var best int64
	found := false
	t.scan(evictable, func(key K, r *record) {
		if !found || r.lastUse < best {
			best = r.lastUse
			found = true
		}
	})
	return best, found
}
