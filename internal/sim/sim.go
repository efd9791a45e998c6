// Package sim is the cycle-level simulator for the access-pattern-based
// compression runtime. It models the paper's three cooperating threads
// (Figure 4):
//
//   - the execution thread, which runs basic blocks and takes
//     memory-protection exceptions;
//   - the decompression thread, a background worker running ahead of
//     execution performing pre-decompressions;
//   - the compression thread, a background worker trailing execution,
//     deleting (or, in the writeback ablation, recompressing) copies.
//
// Time is a single cycle counter advanced by the execution thread. The
// background threads are single-server FIFO queues with their own
// clocks: a job starts when the thread becomes free or when the job was
// issued, whichever is later. Background work overlaps execution (the
// paper's "utilizes the idle cycles" assumption), but execution stalls
// when it reaches a block whose decompression has not finished — or
// never started, in which case the whole decompression runs in the
// exception handler on the critical path.
//
// The decompression thread supports two realities of prefetching
// hardware/runtime systems: a demanded in-flight job is priority-boosted
// past the FIFO queue, and a queued job whose unit gets deleted by the
// k-edge algorithm before it ever started is cancelled (the thread never
// spends the cycles).
//
// The timing core is exposed as Engine so that internal/machine can
// drive the same model from live VM execution instead of a trace.
package sim

import (
	"apbcc/internal/core"
)

// CostModel carries the cycle costs the simulator charges around the
// codec's own compression/decompression costs.
type CostModel struct {
	// CPI is the execution cost of one instruction word.
	CPI int
	// ExceptionCycles is the trap + handler entry/exit overhead.
	ExceptionCycles int
	// PatchCycles is the cost of rewriting one branch site.
	PatchCycles int
	// DeleteFixed is the fixed background cost of discarding a copy in
	// delete-only mode.
	DeleteFixed int
	// EvictCycles is the synchronous cost of one LRU eviction beyond
	// its patches.
	EvictCycles int
	// WritebackWaitCycles approximates a handler stall waiting for the
	// compression thread to release space (writeback mode only).
	WritebackWaitCycles int
}

// DefaultCosts returns the reproduction's fixed cost model: a simple
// single-issue embedded core with a 50-cycle trap.
func DefaultCosts() CostModel {
	return CostModel{
		CPI:                 1,
		ExceptionCycles:     50,
		PatchCycles:         6,
		DeleteFixed:         20,
		EvictCycles:         30,
		WritebackWaitCycles: 200,
	}
}

// Result aggregates one simulated run.
type Result struct {
	// Cycles is total execution-thread time including all overheads.
	Cycles int64
	// BaseCycles is the pure execution time of the same trace with no
	// compression scheme at all (the uncompressed baseline).
	BaseCycles int64
	// StallCycles is execution time spent waiting for decompression
	// (both critical-path demand decompressions and waits on in-flight
	// prefetches).
	StallCycles int64
	// DemandStallCycles is the subset of StallCycles from critical-path
	// decompressions.
	DemandStallCycles int64
	// ExceptionOverhead is time in trap entry/exit.
	ExceptionOverhead int64
	// PatchOverhead is critical-path branch-rewrite time.
	PatchOverhead int64
	// EvictOverhead is synchronous eviction time.
	EvictOverhead int64
	// DecompThreadBusy and CompThreadBusy are background busy cycles.
	DecompThreadBusy int64
	CompThreadBusy   int64
	// CancelledPrefetches counts queued prefetch jobs cancelled before
	// they started (their unit was deleted first).
	CancelledPrefetches int64

	// PeakResident and AvgResident are the memory metrics: maximum and
	// cycle-weighted average resident code bytes.
	PeakResident int
	AvgResident  float64
	// CompressedSize and UncompressedSize delimit the memory range: the
	// all-compressed minimum image and the conventional fully-resident
	// image.
	CompressedSize   int
	UncompressedSize int

	// Core carries the policy-level counters from the Manager.
	Core core.Stats
}

// Overhead returns the relative execution-time overhead versus the
// uncompressed baseline (0.07 = 7% slower).
func (r *Result) Overhead() float64 {
	if r.BaseCycles == 0 {
		return 0
	}
	return float64(r.Cycles-r.BaseCycles) / float64(r.BaseCycles)
}

// PeakSaving returns the peak-memory saving versus the uncompressed
// image (0.4 = peak resident was 40% smaller).
func (r *Result) PeakSaving() float64 {
	if r.UncompressedSize == 0 {
		return 0
	}
	return 1 - float64(r.PeakResident)/float64(r.UncompressedSize)
}

// AvgSaving returns the average-memory saving versus the uncompressed
// image.
func (r *Result) AvgSaving() float64 {
	if r.UncompressedSize == 0 {
		return 0
	}
	return 1 - r.AvgResident/float64(r.UncompressedSize)
}

// HitRate returns the fraction of block entries that found a usable (or
// in-flight) copy.
func (r *Result) HitRate() float64 {
	if r.Core.Entries == 0 {
		return 0
	}
	return float64(r.Core.Hits) / float64(r.Core.Entries)
}

// dJob is one decompression-thread work item.
type dJob struct {
	unit   core.UnitID
	dur    int64
	issued int64 // when the job was queued; it cannot start earlier
	seq    int64 // issue sequence; a stale seq means the job was superseded
}

// decompThread is the single-server prefetch worker.
type decompThread struct {
	m       *core.Manager
	clock   int64 // when the thread last became free
	running *dJob
	finish  int64 // running job's completion time
	queue   []dJob
	seq     map[core.UnitID]int64
	busy    *int64
}

// issue enqueues a prefetch job at time now.
func (d *decompThread) issue(now int64, unit core.UnitID, dur int64) {
	d.seq[unit]++
	d.queue = append(d.queue, dJob{unit: unit, dur: dur, issued: now, seq: d.seq[unit]})
	d.advance(now)
}

// cancel invalidates any job for the unit; queued jobs are removed
// without cost, a running job completes but its result is stale.
func (d *decompThread) cancel(unit core.UnitID) int64 {
	d.seq[unit]++
	cancelled := int64(0)
	keep := d.queue[:0]
	for _, j := range d.queue {
		if j.unit == unit {
			cancelled++
			continue
		}
		keep = append(keep, j)
	}
	d.queue = keep
	return cancelled
}

// start pulls the next queued job if idle. It begins when the thread
// became free or when it was issued, whichever is later.
func (d *decompThread) start() {
	if d.running != nil || len(d.queue) == 0 {
		return
	}
	j := d.queue[0]
	d.queue = d.queue[1:]
	d.running = &j
	d.finish = max(d.clock, j.issued) + j.dur
	*d.busy += j.dur
}

// advance completes all work finishing at or before now.
func (d *decompThread) advance(now int64) {
	for {
		d.start()
		if d.running == nil || d.finish > now {
			return
		}
		if d.running.seq == d.seq[d.running.unit] {
			d.m.FinishDecompress(d.running.unit)
		}
		d.clock = d.finish
		d.running = nil
	}
}

// waitFor blocks execution (at time now) until the unit's in-flight
// decompression completes, boosting it past the FIFO queue. It returns
// the stall duration; ok is false when the thread holds no current job
// for the unit (it already completed, was never issued, or only a stale
// superseded job exists).
func (d *decompThread) waitFor(now int64, unit core.UnitID) (int64, bool) {
	d.advance(now)
	// The unit's current job may already occupy the server.
	if d.running != nil && d.running.unit == unit && d.running.seq == d.seq[unit] {
		t := d.finish
		d.advance(t)
		return t - now, true
	}
	// Otherwise find it in the queue; a running job of the same unit
	// with a stale seq counts as foreign work.
	idx := -1
	for i, j := range d.queue {
		if j.unit == unit && j.seq == d.seq[unit] {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, false
	}
	j := d.queue[idx]
	d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
	t := now
	// The server finishes its current job first; then our job is
	// boosted past the rest of the queue.
	if d.running != nil {
		t = d.finish
		if d.running.seq == d.seq[d.running.unit] {
			d.m.FinishDecompress(d.running.unit)
		}
		d.clock = t
		d.running = nil
	}
	begin := d.clock
	if t > begin {
		begin = t
	}
	end := begin + j.dur
	*d.busy += j.dur
	d.clock = end
	d.m.FinishDecompress(j.unit)
	return end - now, true
}

// cJob is one compression-thread work item.
type cJob struct {
	unit   core.UnitID
	kind   core.JobKind
	finish int64
}
