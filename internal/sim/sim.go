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
// past the FIFO queue, and a job whose copy is dropped before it starts
// costs nothing. A copy is dropped when the k-edge algorithm deletes it
// or a memory budget evicts it, and core.Manager alone decides whether
// a job still stands (Manager.Current). Under a budget only a demand
// decompression evicts, never a prefetch, so every job is current when
// issued: the thread skips a queued job whose copy was dropped while it
// waited, and lets a running job whose copy was dropped finish without
// promoting its unit.
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
	job    core.Job
	dur    int64
	issued int64 // when the job was queued; it cannot start earlier
}

// decompThread is the single-server prefetch worker. It asks the
// Manager whether a job still stands before spending cycles on it.
type decompThread struct {
	m       *core.Manager
	clock   int64 // when the thread last became free
	running bool  // run occupies the server until finish
	run     dJob
	finish  int64
	queue   []dJob
	busy    *int64
}

// issue enqueues a prefetch job at time now. The job is current: a
// prefetch never evicts, so the transition that issued it dropped no
// copy after issuing it.
func (d *decompThread) issue(now int64, j core.Job, dur int64) {
	d.queue = append(d.queue, dJob{job: j, dur: dur, issued: now})
	d.advance(now)
}

// start pulls the next queued job if idle, skipping at no cost the jobs
// whose copy was dropped while they waited. A job begins when the
// thread became free or when it was issued, whichever is later.
func (d *decompThread) start() {
	for !d.running && len(d.queue) > 0 {
		j := d.queue[0]
		// Shift in place, as waitFor does, so issue's append reuses
		// the array instead of growing a new one as the queue drains.
		d.queue = d.queue[:copy(d.queue, d.queue[1:])]
		if !d.m.Current(j.job) {
			continue
		}
		d.run, d.running = j, true
		d.finish = max(d.clock, j.issued) + j.dur
		*d.busy += j.dur
	}
}

// complete retires the running job. One whose copy was dropped while it
// ran has spent its cycles, but the Manager does not promote its unit.
func (d *decompThread) complete() {
	d.m.FinishDecompress(d.run.job)
	d.clock = d.finish
	d.running = false
}

// advance completes all work finishing at or before now.
func (d *decompThread) advance(now int64) {
	for {
		d.start()
		if !d.running || d.finish > now {
			return
		}
		d.complete()
	}
}

// waitFor blocks execution (at time now) until the unit's in-flight
// decompression completes, boosting it past the FIFO queue, and returns
// the stall. The Engine calls it only when the Manager reports the
// entry in flight, so the unit's current job is running or queued.
func (d *decompThread) waitFor(now int64, unit core.UnitID) int64 {
	d.advance(now)
	// The unit's current job may already occupy the server.
	if d.running && d.run.job.Unit == unit && d.m.Current(d.run.job) {
		t := d.finish
		d.advance(t)
		return t - now
	}
	// Otherwise find it in the queue; a running job of the same unit
	// whose copy was dropped counts as foreign work.
	idx := -1
	for i, j := range d.queue {
		if j.job.Unit == unit && d.m.Current(j.job) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0
	}
	j := d.queue[idx]
	d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
	t := now
	// The server finishes its current job first; then our job is
	// boosted past the rest of the queue.
	if d.running {
		t = d.finish
		d.complete()
	}
	end := max(d.clock, t) + j.dur
	*d.busy += j.dur
	d.clock = end
	d.m.FinishDecompress(j.job)
	return end - now
}

// cJob is one compression-thread work item.
type cJob struct {
	unit   core.UnitID
	kind   core.JobKind
	finish int64
}
