// Package core implements the access-pattern-based code compression
// runtime of the DATE'05 paper: the k-edge compression algorithm
// (Section 3), the on-demand and pre-decompression strategies
// (Section 4), and the delete-only implementation scheme with remember
// sets and branch patching (Section 5).
//
// The central type is Manager. It owns the modeled code memory (an
// immutable compressed code area plus a managed area for decompressed
// copies) and the per-unit runtime state (remember sets, copy
// addresses), delegating the k-edge counters, victim selection and
// prefetch scoring to a pluggable internal/policy engine (the paper's
// own k-edge LRU by default). A simulator drives it with one EnterBlock call
// per traversed CFG edge; the returned Transition describes everything
// that happened (exception, patches, decompression demand, prefetches,
// deletes, evictions) so the caller can charge cycle costs and schedule
// the background threads.
//
// The unit of compression is normally a single basic block; the
// GranFunction mode clusters blocks by function and
// compresses/decompresses whole clusters, reproducing the
// procedure-granularity baseline of Debray & Evans that Section 6
// compares against.
package core

import (
	"errors"
	"fmt"

	"apbcc/internal/compress"
	"apbcc/internal/mem"
	"apbcc/internal/policy"
	"apbcc/internal/trace"
)

// Strategy selects the decompression half of the design space
// (the paper's Figure 3).
type Strategy uint8

// Decompression strategies.
const (
	// OnDemand decompresses a block only when the execution thread traps
	// on it (lazy decompression).
	OnDemand Strategy = iota
	// PreAll decompresses every compressed block at most DecompressK
	// edges ahead of the block being exited (pre-decompress-all).
	PreAll
	// PreSingle decompresses the single most likely compressed block at
	// most DecompressK edges ahead (pre-decompress-single).
	PreSingle
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	switch s {
	case OnDemand:
		return "on-demand"
	case PreAll:
		return "pre-decompress-all"
	case PreSingle:
		return "pre-decompress-single"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// Granularity selects the unit of compression.
type Granularity uint8

// Compression granularities.
const (
	// GranBlock compresses individual basic blocks (the paper's scheme).
	GranBlock Granularity = iota
	// GranFunction compresses whole functions (the Debray & Evans
	// style baseline of Section 6). Blocks sharing a non-empty
	// cfg.Block.Func name form one unit; unnamed blocks stay solo.
	GranFunction
)

// String names the granularity.
func (g Granularity) String() string {
	switch g {
	case GranBlock:
		return "block"
	case GranFunction:
		return "function"
	}
	return fmt.Sprintf("Granularity(%d)", uint8(g))
}

// Config parameterizes a Manager.
type Config struct {
	// Codec compresses and decompresses units. Required.
	Codec compress.Codec
	// CompressK is the k of the k-edge compression algorithm: a unit's
	// decompressed copy is deleted when k edges have been traversed
	// since the unit last executed. Must be >= 1.
	CompressK int
	// Strategy selects the decompression scheme.
	Strategy Strategy
	// DecompressK is the lookahead k of the pre-decompression
	// strategies; ignored by OnDemand. Must be >= 1 for PreAll and
	// PreSingle.
	DecompressK int
	// Predictor supplies transition probabilities for PreSingle;
	// required for that strategy, ignored otherwise.
	Predictor trace.Predictor
	// BudgetBytes caps total resident code bytes (compressed area plus
	// live copies); 0 means unlimited. When a demand decompression
	// would exceed the cap, least-recently-used copies are evicted
	// first (Section 2's note). A pre-decompression that would exceed
	// it is not issued: only a demand decompression evicts.
	BudgetBytes int
	// ManagedBytes sizes the managed copy area. 0 defaults to twice the
	// uncompressed program size, which never constrains the run.
	ManagedBytes int
	// Alloc selects the managed-area allocation policy (first-fit by
	// default); Section 5 worries about fragmentation of the saved
	// space, and the E9 ablation compares policies.
	Alloc mem.FitPolicy
	// Granularity selects block- or function-level units.
	Granularity Granularity
	// WritebackCompression, when true, models the naive alternative the
	// paper argues against in Section 5: "compressing" a unit re-runs
	// the compressor in the background and the memory is not reusable
	// until that job completes. The default (false) is the paper's
	// delete-only scheme, where a discarded copy frees instantly.
	WritebackCompression bool
	// Policy is the replacement-and-prefetch engine the Manager
	// delegates its victim-selection, k-edge expiry and
	// prefetch-scoring decisions to, built by policy.New. nil selects
	// the paper's own policy, klru, which reproduces the seed
	// Manager's behavior exactly; the other names are lfu, cost-aware
	// (GreedyDual-Size over the codec cost model) and markov-prefetch.
	// The Manager binds and takes ownership of the value — policies
	// are stateful, so one value must never be shared between Managers
	// or reused across runs.
	Policy *policy.Policy[UnitID]
	// StrictCounters applies the k-edge counter to every decompressed
	// unit, including pre-decompressed units that have not executed yet
	// — the literal reading of the paper's Section 5 ("the counter of
	// each (uncompressed) basic block is increased by 1"). The default
	// (false) follows Section 3's definition — the algorithm
	// "compresses a basic block that has been visited by the execution
	// thread when the kth edge following its visit is traversed" — so
	// only units that have executed since decompression age out.
	// Strict mode makes pre-decompression self-defeating (issued copies
	// are deleted and re-issued in a loop, saturating the decompression
	// thread); it exists as an ablation.
	StrictCounters bool
	// RecordEvents enables the event log used by the golden figure
	// tests; large simulations leave it off.
	RecordEvents bool
}

// Validate checks configuration consistency.
func (c *Config) Validate() error {
	if c.Codec == nil {
		return errors.New("core: Config.Codec is required")
	}
	if c.CompressK < 1 {
		return fmt.Errorf("core: CompressK %d must be >= 1", c.CompressK)
	}
	switch c.Strategy {
	case OnDemand:
	case PreAll, PreSingle:
		if c.DecompressK < 1 {
			return fmt.Errorf("core: DecompressK %d must be >= 1 for %s", c.DecompressK, c.Strategy)
		}
		if c.Strategy == PreSingle && c.Predictor == nil {
			return errors.New("core: PreSingle requires a Predictor")
		}
	default:
		return fmt.Errorf("core: unknown strategy %d", c.Strategy)
	}
	if c.BudgetBytes < 0 || c.ManagedBytes < 0 {
		return errors.New("core: negative memory size")
	}
	return nil
}

// JobKind classifies background-thread work items.
type JobKind uint8

// Background job kinds.
const (
	// JobDecompress is work for the decompression thread.
	JobDecompress JobKind = iota
	// JobDelete is work for the compression thread in delete-only mode
	// (patch the remember set, drop the copy).
	JobDelete
	// JobWriteback is work for the compression thread in writeback
	// mode (re-run the compressor before the space is reusable).
	JobWriteback
)

// String names the job kind.
func (k JobKind) String() string {
	switch k {
	case JobDecompress:
		return "decompress"
	case JobDelete:
		return "delete"
	case JobWriteback:
		return "writeback"
	}
	return fmt.Sprintf("JobKind(%d)", uint8(k))
}

// Job is one background work item handed to the simulator's thread
// model.
type Job struct {
	Kind JobKind
	// Gen is the generation of the unit's copy that a decompression job
	// was issued for. Dropping a copy advances its unit's generation, so
	// a job of an earlier one is stale: Manager.Current reports it, and
	// FinishDecompress ignores it.
	Gen uint32
	// Unit is the unit the job operates on.
	Unit UnitID
	// Bytes is the uncompressed size of the unit; cycle costs scale
	// with it.
	Bytes int
	// Sites is the number of branch sites patched by a delete job.
	Sites int
}

// Transition reports everything one EnterBlock produced. The simulator
// charges costs from it and schedules the jobs.
type Transition struct {
	// Exception is true when the entry trapped (the branch site still
	// pointed into the compressed code area).
	Exception bool
	// Patches is the number of branch-site updates the exception
	// handler performed on the critical path (entry patch plus any
	// eviction re-patches).
	Patches int
	// Demand is the decompression the handler must perform now, nil
	// when the target was already live or in flight.
	Demand *Job
	// InFlight is true when the target's decompression was issued
	// earlier and may still be running; the simulator stalls until that
	// job completes.
	InFlight bool
	// Prefetches are new background decompressions issued by the
	// pre-decompression strategies on this edge.
	Prefetches []Job
	// Deletes are k-edge compressions issued on this edge (background).
	Deletes []Job
	// Evicted counts LRU evictions performed synchronously to make room
	// under a memory budget.
	Evicted int
	// WritebackWaits counts handler stalls spent waiting for the
	// compression thread to release space (writeback mode under a
	// budget).
	WritebackWaits int
}
