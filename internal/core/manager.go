package core

import (
	"bytes"
	"fmt"
	"sort"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/mem"
	"apbcc/internal/policy"
	"apbcc/internal/program"
)

// UnitID identifies a compression unit. With GranBlock, unit IDs equal
// block IDs; with GranFunction, blocks sharing a function name share a
// unit.
type UnitID int

// unitState tracks one unit's runtime condition.
type unitState uint8

const (
	stateCompressed unitState = iota // only the compressed form exists
	stateIssued                      // decompression job issued, copy allocated
	stateLive                        // copy usable
)

type unit struct {
	id     UnitID
	blocks []cfg.BlockID // members, sorted
	plain  []byte        // concatenated uncompressed images
	comp   []byte        // compressed form
	// sites are the static branch sites targeting this unit from other
	// units (the static half of the remember set).
	sites []program.BranchSite

	state unitState
	addr  mem.Addr // managed-area address when state != stateCompressed
	// gen is the copy generation. drop advances it, so the jobs issued
	// for a dropped copy are stale (Manager.Current).
	gen uint32
	// everUsed tracks whether the unit executed since its last
	// decompression — waste accounting only; the k-edge counters and
	// recency that used to live here are the Policy's now.
	everUsed bool
	// dying holds allocations awaiting the compression thread in
	// writeback mode: discarded copies whose space is not yet reusable.
	// FinishDelete releases them oldest-first.
	dying []mem.Addr
}

// Stats aggregates Manager-level counters. Cycle-level metrics live in
// the simulator; these are policy-level counts.
type Stats struct {
	Entries            int64 // block entries
	Exceptions         int64 // memory-protection traps
	DemandDecompresses int64 // decompressions on the critical path
	Prefetches         int64 // background decompressions issued
	PrefetchHits       int64 // entries that found a prefetched copy
	Hits               int64 // entries that found a live copy (any source)
	Deletes            int64 // k-edge compressions
	WastedPrefetches   int64 // prefetched copies deleted or evicted unused
	Patches            int64 // branch-site updates, both directions
	Evictions          int64 // LRU evictions under a budget
	WritebackWaits     int64 // handler stalls waiting on pending writebacks
}

// Manager is the access-pattern-based compression runtime.
type Manager struct {
	prog  *program.Program
	conf  Config
	img   *mem.Image
	units []*unit
	// unitOf maps every block to its unit.
	unitOf []UnitID
	// blockUnitStart maps a block to its byte offset inside its unit's
	// image (needed to locate copies of individual blocks).
	blockUnitStart []int

	// patched tracks which branch sites currently point at a
	// decompressed copy rather than at the compressed code area.
	patched map[program.BranchSite]bool
	// sitesFrom indexes sites by their containing unit, so deleting a
	// unit can unpatch the sites that live inside its copy.
	sitesFrom map[UnitID][]program.BranchSite

	clock   int64 // edge counter (monotonic)
	current UnitID
	started bool

	// pol decides victims, k-edge expiry and prefetch candidates; the
	// Manager feeds it the edge clock and enforces its verdicts.
	pol *policy.Policy[UnitID]
	// isCompressed is the prefetch-candidate filter handed to the
	// policy, hoisted here so the hot path allocates no closure.
	isCompressed func(cfg.BlockID) bool
	// ccost is the codec's cycle cost model, cached for per-insert
	// Meta construction.
	ccost compress.CostModel

	stats  Stats
	events []Event
	occ    mem.Occupancy
}

// NewManager compresses every unit of the program and builds the
// runtime. The returned Manager starts with the whole program in
// compressed form — the paper's minimum memory image.
func NewManager(p *program.Program, conf Config) (*Manager, error) {
	if err := conf.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{prog: p, conf: conf, patched: make(map[program.BranchSite]bool), sitesFrom: make(map[UnitID][]program.BranchSite), current: -1}
	m.ccost = conf.Codec.Cost()
	m.pol = conf.Policy
	if m.pol == nil {
		m.pol, _ = policy.New[UnitID]("") // klru; the empty name never fails
	}
	mode := policy.PrefetchNone
	switch conf.Strategy {
	case PreAll:
		mode = policy.PrefetchAll
	case PreSingle:
		mode = policy.PrefetchBest
	}
	m.pol.Bind(policy.Env{
		Graph:      p.Graph,
		Predictor:  conf.Predictor,
		Mode:       mode,
		LookaheadK: conf.DecompressK,
		ExpireK:    conf.CompressK,
		Strict:     conf.StrictCounters,
	})
	m.isCompressed = func(b cfg.BlockID) bool {
		return m.units[m.unitOf[b]].state == stateCompressed
	}
	if err := m.buildUnits(); err != nil {
		return nil, err
	}

	compSizes := make([]int, len(m.units))
	for i, u := range m.units {
		compSizes[i] = len(u.comp)
	}
	managed := conf.ManagedBytes
	if managed == 0 {
		managed = 2 * p.TotalBytes()
	}
	img, err := mem.NewImage(0x1000, compSizes, managed)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	img.Managed().SetPolicy(conf.Alloc)
	m.img = img
	if conf.BudgetBytes > 0 {
		minNeed := img.CompressedSize() + m.largestUnitBytes()
		if conf.BudgetBytes < minNeed {
			return nil, fmt.Errorf("core: budget %d bytes below minimum feasible %d (compressed area %d + largest unit %d)",
				conf.BudgetBytes, minNeed, img.CompressedSize(), m.largestUnitBytes())
		}
	}
	return m, nil
}

// buildUnits groups blocks into units, compresses them and verifies the
// codec round-trip, and indexes branch sites by target unit.
func (m *Manager) buildUnits() error {
	g := m.prog.Graph
	m.unitOf = make([]UnitID, g.NumBlocks())
	m.blockUnitStart = make([]int, g.NumBlocks())

	// Assign blocks to units.
	switch m.conf.Granularity {
	case GranBlock:
		for _, b := range g.Blocks() {
			m.unitOf[b.ID] = UnitID(b.ID)
		}
	case GranFunction:
		byFunc := make(map[string]UnitID)
		next := UnitID(0)
		for _, b := range g.Blocks() {
			if b.Func == "" {
				m.unitOf[b.ID] = next
				next++
				continue
			}
			id, ok := byFunc[b.Func]
			if !ok {
				id = next
				byFunc[b.Func] = id
				next++
			}
			m.unitOf[b.ID] = id
		}
	default:
		return fmt.Errorf("core: unknown granularity %d", m.conf.Granularity)
	}

	numUnits := 0
	for _, id := range m.unitOf {
		if int(id)+1 > numUnits {
			numUnits = int(id) + 1
		}
	}
	m.units = make([]*unit, numUnits)
	for i := range m.units {
		m.units[i] = &unit{id: UnitID(i)}
	}
	for _, b := range g.Blocks() {
		u := m.units[m.unitOf[b.ID]]
		u.blocks = append(u.blocks, b.ID)
	}

	// Build unit images in block-ID order, then compress them. One
	// scratch pair, sized for the largest unit, serves every unit's
	// compressed form and verification round trip; only the exact-size
	// compressed image is retained per unit.
	for _, u := range m.units {
		sort.Slice(u.blocks, func(i, j int) bool { return u.blocks[i] < u.blocks[j] })
		for _, bid := range u.blocks {
			img, err := m.prog.BlockBytes(bid)
			if err != nil {
				return err
			}
			m.blockUnitStart[bid] = len(u.plain)
			u.plain = append(u.plain, img...)
		}
	}
	largest := m.largestUnitBytes()
	scratch := make([]byte, 0, m.conf.Codec.MaxCompressedLen(largest))
	back := make([]byte, 0, largest)
	for _, u := range m.units {
		var err error
		scratch, err = m.conf.Codec.CompressAppend(scratch[:0], u.plain)
		if err != nil {
			return fmt.Errorf("core: compressing unit %d: %w", u.id, err)
		}
		back, err = m.conf.Codec.DecompressAppend(back[:0], scratch)
		if err != nil {
			return fmt.Errorf("core: verifying unit %d: %w", u.id, err)
		}
		if !bytes.Equal(back, u.plain) {
			return fmt.Errorf("core: codec %s round-trip mismatch on unit %d", m.conf.Codec.Name(), u.id)
		}
		u.comp = bytes.Clone(scratch)
	}

	// Index branch sites by target unit, skipping unit-internal sites
	// (they need no patching: the whole unit moves together).
	sites, err := m.prog.BranchSites()
	if err != nil {
		return err
	}
	for _, s := range sites {
		fromU, toU := m.unitOf[s.Block], m.unitOf[s.Target]
		if fromU == toU {
			continue
		}
		m.units[toU].sites = append(m.units[toU].sites, s)
		m.sitesFrom[fromU] = append(m.sitesFrom[fromU], s)
	}
	return nil
}

func (m *Manager) largestUnitBytes() int {
	max := 0
	for _, u := range m.units {
		if len(u.plain) > max {
			max = len(u.plain)
		}
	}
	return max
}

// Program returns the program the manager runs.
func (m *Manager) Program() *program.Program { return m.prog }

// CodecCost returns the configured codec's cycle cost model.
func (m *Manager) CodecCost() compress.CostModel { return m.conf.Codec.Cost() }

// UnitOf returns the unit a block belongs to.
func (m *Manager) UnitOf(b cfg.BlockID) UnitID { return m.unitOf[b] }

// NumUnits returns the number of compression units.
func (m *Manager) NumUnits() int { return len(m.units) }

// UnitBytes returns a unit's uncompressed size.
func (m *Manager) UnitBytes(u UnitID) int { return len(m.units[u].plain) }

// IsLive reports whether the unit currently has a usable or in-flight
// decompressed copy.
func (m *Manager) IsLive(u UnitID) bool {
	s := m.units[u].state
	return s == stateIssued || s == stateLive
}

// Resident returns current resident code bytes: the compressed area
// plus managed-area allocations.
func (m *Manager) Resident() int { return m.img.Resident() }

// CompressedSize returns the immutable compressed area size — the
// minimum possible image.
func (m *Manager) CompressedSize() int { return m.img.CompressedSize() }

// UncompressedSize returns the fully-decompressed program size.
func (m *Manager) UncompressedSize() int { return m.prog.TotalBytes() }

// Image exposes the modeled memory for inspection.
func (m *Manager) Image() *mem.Image { return m.img }

// Stats returns a copy of the policy counters.
func (m *Manager) Stats() Stats { return m.stats }

// Occupancy exposes the resident-memory integrator. The simulator calls
// Tick on it as cycles elapse.
func (m *Manager) Occupancy() *mem.Occupancy { return &m.occ }

// Events returns the recorded event log (empty unless
// Config.RecordEvents).
func (m *Manager) Events() []Event { return m.events }

// EnterBlock advances the runtime across one CFG edge: the execution
// thread leaves block from (cfg.None on initial entry) and enters block
// to. It implements the Section 5 exception-handler protocol, the
// k-edge compression counters, budget eviction, and issues
// pre-decompression per the configured strategy.
func (m *Manager) EnterBlock(from, to cfg.BlockID) (*Transition, error) {
	if int(to) < 0 || int(to) >= len(m.unitOf) {
		return nil, fmt.Errorf("core: EnterBlock: unknown block %d", to)
	}
	if m.started && from != cfg.None {
		// Verify the traversal follows a CFG edge; catching trace bugs
		// here keeps simulator results meaningful. Blocks that end in
		// an indirect jump (jr/jalr) have no static successors, so any
		// dynamic target is legal from them.
		ok := false
		for _, e := range m.prog.Graph.Succs(from) {
			if e.To == to {
				ok = true
				break
			}
		}
		if !ok {
			fb := m.prog.Graph.Block(from)
			if fb != nil && fb.End > 0 && fb.End <= len(m.prog.Ins) &&
				m.prog.Ins[fb.End-1].IsIndirect() {
				ok = true
			}
		}
		if !ok {
			return nil, fmt.Errorf("core: EnterBlock: no edge %v->%v", from, to)
		}
	}
	tr := &Transition{}
	target := m.unitOf[to]
	tgt := m.units[target]
	sameUnit := m.started && from != cfg.None && m.unitOf[from] == target

	m.clock++
	m.stats.Entries++
	// Execution has left `from`: from this point the target unit is the
	// one that must not be evicted, while the block just left is fair
	// game for LRU eviction (its branch already executed).
	m.current = target

	// --- Exception-handler phase -------------------------------------
	if sameUnit && m.IsLive(target) {
		// Unit-internal edge into a live unit: no trap possible; the
		// whole unit was decompressed together.
		m.stats.Hits++
	} else {
		site, hasSite := m.siteFor(from, to)
		sitePatched := hasSite && m.patched[site] && m.IsLive(target)
		switch {
		case m.IsLive(target) && sitePatched:
			// Direct branch into the copy — Figure 5 step (7).
			m.stats.Hits++
			if tgt.state == stateIssued {
				tr.InFlight = true
			}
		case m.IsLive(target):
			// Copy exists but the branch still points at the compressed
			// area — Figure 5 steps (5)-(6): trap, patch, continue.
			tr.Exception = true
			m.stats.Exceptions++
			m.stats.Hits++
			if tgt.state == stateIssued {
				tr.InFlight = true
				m.stats.PrefetchHits++
				m.record(EvPrefetchHit, to, target)
			}
			if hasSite {
				m.patch(site, true, tr)
			}
			m.record(EvException, to, target)
		default:
			// Compressed (or dying): trap + demand decompression —
			// Figure 5 steps (1)-(2), (3)-(4), (8)-(9).
			tr.Exception = true
			m.stats.Exceptions++
			m.record(EvException, to, target)
			if err := m.allocate(tgt, tr, true); err != nil {
				return nil, err
			}
			tgt.state = stateLive
			tgt.everUsed = false
			tr.Demand = &Job{Kind: JobDecompress, Gen: tgt.gen, Unit: target, Bytes: len(tgt.plain)}
			m.stats.DemandDecompresses++
			m.record(EvDecompress, to, target)
			if hasSite {
				m.patch(site, true, tr)
			}
		}
	}
	if tgt.state == stateIssued {
		// Execution reached it; it must complete before the block runs,
		// so policy-wise it is now live (the simulator charges the
		// remaining in-flight cycles as a stall).
		tgt.state = stateLive
	}
	tgt.everUsed = true
	m.pol.OnAccess(target, m.clock)
	m.current = target
	m.started = true
	m.record(EvEnter, to, target)

	// --- k-edge compression phase ------------------------------------
	// "At each branch, the counter of each (uncompressed) basic block is
	// increased by 1 and the basic blocks whose counter reaches k are
	// deleted." The counters live in the policy now: Tick advances them
	// across this edge (the entered unit was just reset and is exempt)
	// and returns the expired units, lowest ID first — the same order
	// the seed Manager's unit-slice walk deleted them in. The
	// compression thread then patches the remember set and, in
	// writeback mode, recompresses before the space is reusable.
	kind := JobDelete
	if m.conf.WritebackCompression {
		kind = JobWriteback
	}
	for _, id := range m.pol.Tick(target, m.clock) {
		u := m.units[id]
		if id == target || (u.state != stateLive && u.state != stateIssued) {
			continue // defensive: a policy may only expire resident units
		}
		sites := m.drop(u, false)
		tr.Deletes = append(tr.Deletes, Job{Kind: kind, Unit: id, Bytes: len(u.plain), Sites: sites})
	}

	// --- Pre-decompression phase -------------------------------------
	// The lookahead is anchored at the exit of the block being left
	// (Section 4: "from the end of B1 to the beginning of B7, there are
	// at most 3 edges"); on the initial entry it is anchored at the
	// entry block itself. The policy proposes candidates (per the
	// configured strategy, or its own scheme); the Manager issues them
	// and then lets the policy observe the edge actually taken, in that
	// order — the decompression thread decides at the exit of the
	// anchor block, before the branch resolves.
	anchor := from
	if anchor == cfg.None {
		anchor = to
	}
	for _, bid := range m.pol.PrefetchCandidates(anchor, m.isCompressed) {
		m.maybePrefetch(m.unitOf[bid], tr)
	}
	if from != cfg.None {
		m.pol.ObserveEdge(from, to)
	}
	return tr, nil
}

// PolicyName reports the bound replacement/prefetch policy.
func (m *Manager) PolicyName() string { return m.pol.Name() }

// siteFor finds the static branch site implementing edge from→to, if
// any (indirect edges and the initial entry have none). Unit-internal
// sites are not tracked.
func (m *Manager) siteFor(from, to cfg.BlockID) (program.BranchSite, bool) {
	if !m.started || from == cfg.None {
		return program.BranchSite{}, false
	}
	for _, s := range m.units[m.unitOf[to]].sites {
		if s.Block == from && s.Target == to {
			return s, true
		}
	}
	return program.BranchSite{}, false
}

// patch flips one branch site between compressed-area and copy targets,
// charging the critical-path patch counter on tr. A site can only be
// patched while the copy containing it exists (budget eviction can
// remove the source copy mid-transfer, in which case there is nothing
// to rewrite).
func (m *Manager) patch(site program.BranchSite, toCopy bool, tr *Transition) {
	if toCopy && !m.IsLive(m.unitOf[site.Block]) {
		return
	}
	if m.patched[site] == toCopy {
		return
	}
	m.patched[site] = toCopy
	m.stats.Patches++
	tr.Patches++
	m.record(EvPatch, site.Target, m.unitOf[site.Target])
}

// allocate reserves managed memory for a unit's copy, evicting LRU
// units when a budget is configured. demand distinguishes critical-path
// allocation (must succeed) from prefetch (may be skipped by caller on
// failure). Only a demand allocation evicts: a prefetch that does not
// fit the budget is skipped, so it can never evict a copy that the same
// edge just prefetched, nor charge an eviction to the critical path.
func (m *Manager) allocate(u *unit, tr *Transition, demand bool) error {
	need := len(u.plain)
	if m.conf.BudgetBytes > 0 {
		if !demand && m.img.Resident()+need > m.conf.BudgetBytes {
			return mem.ErrOutOfMemory
		}
		for m.img.Resident()+need > m.conf.BudgetBytes {
			// Eviction is synchronous (the handler needs the space now),
			// so the handler also pays for the sites it unpatches. With
			// no live victim, wait for the compression thread to release
			// a pending writeback as a last resort.
			if _, sites, ok := m.evict(u.id); ok {
				tr.Evicted++
				tr.Patches += sites
				continue
			}
			if m.forceWriteback(tr) {
				continue
			}
			return fmt.Errorf("core: budget %d cannot fit unit %d (%d bytes) with nothing evictable",
				m.conf.BudgetBytes, u.id, need)
		}
	}
	for {
		addr, err := m.img.Managed().Alloc(need)
		if err == nil {
			u.addr = addr
			m.pol.OnInsert(u.id, policy.Meta{
				Bytes: len(u.plain),
				Cost:  m.ccost.DecompressCycles(len(u.plain)),
			}, m.clock)
			m.occTouch()
			return nil
		}
		// In writeback mode the space may be tied up in pending
		// compression jobs; a demand allocation blocks until the
		// compression thread releases one (the stall the delete-only
		// design avoids). Prefetches just give up.
		if demand && m.forceWriteback(tr) {
			continue
		}
		if demand {
			return fmt.Errorf("core: managed area exhausted decompressing unit %d: %w", u.id, err)
		}
		return err
	}
}

// forceWriteback completes one pending writeback, if any, charging a
// handler wait.
func (m *Manager) forceWriteback(tr *Transition) bool {
	for _, u := range m.units {
		if len(u.dying) > 0 {
			if err := m.FinishDelete(u.id); err != nil {
				panic(fmt.Sprintf("core: forced writeback completion: %v", err))
			}
			m.stats.WritebackWaits++
			tr.WritebackWaits++
			return true
		}
	}
	return false
}

// evict drops the policy's victim (least-recently-used under the
// default policy, equal lastUse broken by lowest UnitID so the choice
// never depends on iteration order), returning its size and the branch
// sites unpatched. Neither keep nor the executing unit is evictable; ok
// is false when nothing else is.
func (m *Manager) evict(keep UnitID) (freed, sites int, ok bool) {
	id, ok := m.pol.Victim(func(id UnitID) bool { return id != keep && id != m.current })
	if !ok {
		return 0, 0, false
	}
	u := m.units[id]
	return len(u.plain), m.drop(u, true), true
}

// drop discards a unit's copy: the one path by which a copy goes,
// whether the k-edge algorithm deletes it (evict false) or a memory
// budget evicts it (evict true). It re-points the unit's remembered
// sites at the compressed area and advances the unit's generation, so
// every job issued for the dropped copy is stale from here on. The
// space is free at once, except for a delete in writeback mode, where
// it stays claimed until FinishDelete. It returns the number of sites
// unpatched.
func (m *Manager) drop(u *unit, evict bool) int {
	if u.state == stateIssued || !u.everUsed {
		m.stats.WastedPrefetches++
	}
	sites := m.unpatchUnit(u)
	m.pol.OnRemove(u.id)
	u.state = stateCompressed
	u.gen++
	if evict {
		m.stats.Evictions++
		m.record(EvEvict, u.blocks[0], u.id)
	} else {
		m.stats.Deletes++
		m.record(EvDelete, u.blocks[0], u.id)
	}
	if !evict && m.conf.WritebackCompression {
		u.dying = append(u.dying, u.addr)
	} else if err := m.img.Managed().Free(u.addr); err != nil {
		panic(fmt.Sprintf("core: drop free: %v", err)) // allocator invariant breach
	}
	m.occTouch()
	return sites
}

// unpatchUnit re-points at the compressed area (a) every remembered
// site targeting the unit, and (b) every patched site contained in the
// unit's own copy (those sites disappear with the copy). Returns the
// number of sites actually unpatched, which the caller charges: a
// delete's to the compression thread (its Job's Sites), an eviction's
// to the handler (Transition.Patches).
func (m *Manager) unpatchUnit(u *unit) int {
	n := 0
	for _, s := range u.sites {
		if m.patched[s] {
			m.patched[s] = false
			m.stats.Patches++
			n++
			m.record(EvPatch, s.Target, u.id)
		}
	}
	for _, s := range m.sitesFrom[u.id] {
		if m.patched[s] {
			m.patched[s] = false
			m.stats.Patches++
			n++
		}
	}
	return n
}

// maybePrefetch issues a background decompression for a unit if it is
// compressed and memory permits. Prefetch allocation failures are
// silent: the strategy simply loses its head start.
func (m *Manager) maybePrefetch(id UnitID, tr *Transition) {
	u := m.units[id]
	if u.state != stateCompressed || id == m.current {
		return
	}
	if err := m.allocate(u, tr, false); err != nil {
		return
	}
	u.state = stateIssued
	u.everUsed = false
	m.stats.Prefetches++
	m.record(EvPreDecompress, u.blocks[0], id)
	tr.Prefetches = append(tr.Prefetches, Job{Kind: JobDecompress, Gen: u.gen, Unit: id, Bytes: len(u.plain)})
}

// ForceEvict synchronously evicts the least-recently-used live unit
// (never the currently-executing one), returning the bytes freed and
// the branch sites unpatched. Multi-application coordinators use it to
// enforce a shared, dynamically-split memory pool (Section 2's
// "concurrently executing applications"); ok is false when nothing is
// evictable.
func (m *Manager) ForceEvict() (freed, patches int, ok bool) {
	return m.evict(m.current)
}

// OldestLiveUse returns the edge-clock timestamp of the
// least-recently-used live unit, the cross-application LRU key; ok is
// false when no unit is live and evictable.
func (m *Manager) OldestLiveUse() (clock int64, ok bool) {
	return m.pol.OldestUse(func(id UnitID) bool { return id != m.current })
}

// Current reports whether decompression job j still stands: no delete
// or eviction has dropped the copy it was issued for. The
// decompression threads ask it before they spend cycles on a job.
func (m *Manager) Current(j Job) bool {
	u := m.units[j.Unit]
	return u.gen == j.Gen && u.state != stateCompressed
}

// FinishDecompress marks the copy that job j decompressed usable. The
// threads call it when they complete the job; a stale job (its copy
// was dropped, and maybe issued again since) changes nothing.
func (m *Manager) FinishDecompress(j Job) {
	if u := m.units[j.Unit]; u.gen == j.Gen && u.state == stateIssued {
		u.state = stateLive
	}
}

// FinishDelete releases a unit's oldest pending writeback allocation
// (writeback mode only); it is a no-op when nothing is pending.
func (m *Manager) FinishDelete(id UnitID) error {
	u := m.units[id]
	if len(u.dying) == 0 {
		return nil
	}
	addr := u.dying[0]
	u.dying = u.dying[1:]
	if err := m.img.Managed().Free(addr); err != nil {
		return fmt.Errorf("core: FinishDelete unit %d: %w", id, err)
	}
	m.occTouch()
	return nil
}

// UnitPlainView returns a unit's original uncompressed image without
// copying. Unit images are immutable after NewManager, so the view is
// safe to read from any goroutine for the Manager's lifetime; callers
// must not mutate or retain it past that.
func (m *Manager) UnitPlainView(id UnitID) []byte { return m.units[id].plain }

// UnitCompressedView returns a unit's compressed image without copying,
// under the same immutability contract as UnitPlainView.
func (m *Manager) UnitCompressedView(id UnitID) []byte { return m.units[id].comp }

// CheckInvariants verifies the runtime's internal consistency; property
// tests call it after every step.
func (m *Manager) CheckInvariants() error {
	if err := m.img.Managed().Check(); err != nil {
		return err
	}
	live := 0
	for _, u := range m.units {
		switch u.state {
		case stateLive, stateIssued:
			if n, ok := m.img.Managed().SizeOf(u.addr); !ok || n != len(u.plain) {
				return fmt.Errorf("core: unit %d state %d has bad allocation", u.id, u.state)
			}
			live += len(u.plain)
		}
		for _, addr := range u.dying {
			if n, ok := m.img.Managed().SizeOf(addr); !ok || n != len(u.plain) {
				return fmt.Errorf("core: unit %d has bad pending-writeback allocation", u.id)
			}
			live += len(u.plain)
		}
	}
	if live != m.img.Managed().InUse() {
		return fmt.Errorf("core: live bytes %d != arena in-use %d", live, m.img.Managed().InUse())
	}
	// A patched site implies both its target unit and the unit whose
	// copy contains the site are live or issued.
	for _, u := range m.units {
		for _, s := range u.sites {
			if m.patched[s] && !m.IsLive(m.unitOf[s.Target]) {
				return fmt.Errorf("core: site %d patched but target unit %d not live", s.Word, m.unitOf[s.Target])
			}
			if m.patched[s] && !m.IsLive(m.unitOf[s.Block]) {
				return fmt.Errorf("core: site %d patched but containing unit %d not live", s.Word, m.unitOf[s.Block])
			}
		}
	}
	if m.conf.BudgetBytes > 0 && m.img.Resident() > m.conf.BudgetBytes {
		return fmt.Errorf("core: resident %d exceeds budget %d", m.img.Resident(), m.conf.BudgetBytes)
	}
	return nil
}

// occTouch lets the occupancy integrator observe a new resident level
// with zero elapsed time (peaks are captured even between Ticks).
func (m *Manager) occTouch() {
	m.occ.Tick(0, m.img.Resident())
}

func (m *Manager) record(kind EventKind, b cfg.BlockID, u UnitID) {
	if !m.conf.RecordEvents {
		return
	}
	m.events = append(m.events, Event{Kind: kind, Block: b, Unit: u, Clock: m.clock})
}
