// Package rt executes the access-pattern-based compression scheme with
// real goroutines, demonstrating that the paper's three-thread design
// (Figure 4) is implementable with actual concurrency rather than the
// deterministic model of internal/sim:
//
//   - the caller's goroutine is the execution thread;
//   - a decompression goroutine drains a prefetch queue, running the
//     real codec on the real block bytes;
//   - a compression goroutine drains the delete queue (and in writeback
//     mode really recompresses).
//
// The Manager is not concurrency-safe, so all policy calls happen under
// one mutex; the codec work — the expensive part — runs outside it.
// Execution verifies, for every block it "runs", that the decompressed
// copy is byte-identical to the original program image: the end-to-end
// correctness statement of the whole system.
package rt

import (
	"bytes"
	"fmt"
	"sync"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/core"
	"apbcc/internal/trace"
)

// Summary reports a concurrent run.
type Summary struct {
	// Blocks is the number of block entries executed.
	Blocks int
	// Verified is the number of entries whose copy bytes were checked
	// against the original image (every entry, on success).
	Verified int
	// DemandDecompressions ran synchronously on the execution thread.
	DemandDecompressions int
	// BackgroundDecompressions completed on the decompression thread.
	BackgroundDecompressions int
	// BackgroundDeletes completed on the compression thread.
	BackgroundDeletes int
	// Waits counts entries that blocked on an in-flight prefetch.
	Waits int
}

// Runtime binds a Manager to real worker goroutines.
type Runtime struct {
	mu    sync.Mutex
	m     *core.Manager
	codec compress.Codec

	// decompCh and compCh are set once in New and never reassigned;
	// closed (guarded by mu) records that Close ran.
	decompCh chan core.Job
	compCh   chan core.Job
	closed   bool
	wg       sync.WaitGroup

	// ready maps an issued unit to a channel closed when its copy's
	// bytes are actually available.
	ready map[core.UnitID]chan struct{}
	// copies holds the bytes produced by the decompression thread (or
	// the demand path) for each live unit.
	copies map[core.UnitID][]byte

	summary Summary
	failure error
}

// New starts the background threads over a freshly-built Manager. The
// codec must be the one the Manager was configured with. Call Close
// (or Execute, which closes on completion) to stop the workers.
func New(m *core.Manager, codec compress.Codec) *Runtime {
	r := &Runtime{
		m:        m,
		codec:    codec,
		decompCh: make(chan core.Job, 1024),
		compCh:   make(chan core.Job, 1024),
		ready:    make(map[core.UnitID]chan struct{}),
		copies:   make(map[core.UnitID][]byte),
	}
	r.wg.Add(2)
	go r.decompressLoop()
	go r.compressLoop()
	return r
}

// decompressLoop is the decompression thread. Unit images are
// immutable after manager construction, so the compressed input and the
// expected bytes are read through zero-copy views; only the produced
// copy occupies new memory, allocated at the unit's plain size and left
// to the GC when the copy is deleted.
func (r *Runtime) decompressLoop() {
	defer r.wg.Done()
	for job := range r.decompCh {
		comp := r.m.UnitCompressedView(job.Unit)
		want := r.m.UnitPlainView(job.Unit)
		r.mu.Lock()
		ch := r.ready[job.Unit]
		r.mu.Unlock()

		out, err := r.codec.DecompressAppend(make([]byte, 0, len(want)), comp)
		r.mu.Lock()
		switch {
		case err != nil:
			r.fail(fmt.Errorf("rt: decompression thread: unit %d: %w", job.Unit, err))
		case !bytes.Equal(out, want):
			r.fail(fmt.Errorf("rt: decompression thread: unit %d content mismatch", job.Unit))
		case r.copies[job.Unit] != nil:
			// A demand decompression (or an overtaken prefetch) raced
			// ahead of this queued job; the stored bytes are identical,
			// so keep them and drop ours.
			r.m.FinishDecompress(job)
			r.summary.BackgroundDecompressions++
		default:
			r.copies[job.Unit] = out
			r.m.FinishDecompress(job)
			r.summary.BackgroundDecompressions++
		}
		if ch != nil {
			close(ch)
			delete(r.ready, job.Unit)
		}
		r.mu.Unlock()
	}
}

// compressLoop is the compression thread: deletes are bookkeeping; in
// writeback mode it really recompresses before releasing the space.
func (r *Runtime) compressLoop() {
	defer r.wg.Done()
	for job := range r.compCh {
		if job.Kind == core.JobWriteback {
			plain := r.m.UnitPlainView(job.Unit)
			if _, err := r.codec.CompressAppend(nil, plain); err != nil {
				r.mu.Lock()
				r.fail(fmt.Errorf("rt: compression thread: unit %d: %w", job.Unit, err))
				r.mu.Unlock()
				continue
			}
		}
		r.mu.Lock()
		if job.Kind == core.JobWriteback {
			if err := r.m.FinishDelete(job.Unit); err != nil {
				r.fail(err)
			}
		}
		// The copy bytes were already dropped when the delete was
		// issued; removing them here could clobber a newer copy from a
		// re-prefetch that raced ahead of this queue.
		r.summary.BackgroundDeletes++
		r.mu.Unlock()
	}
}

// fail records the first failure; callers must hold mu.
func (r *Runtime) fail(err error) {
	if r.failure == nil {
		r.failure = err
	}
}

// Execute runs the whole trace through the three threads and returns
// the summary. It closes the runtime when done.
func (r *Runtime) Execute(tr *trace.Trace) (*Summary, error) {
	defer r.Close()
	graph := r.m.Program().Graph
	prev := cfg.None
	for step, b := range tr.Blocks {
		if prev != cfg.None && len(graph.Succs(prev)) == 0 {
			prev = cfg.None // kernel restart
		}
		r.mu.Lock()
		x, err := r.m.EnterBlock(prev, b)
		if err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("rt: step %d: %w", step, err)
		}
		unit := r.m.UnitOf(b)
		var wait chan struct{}
		if x.Demand != nil {
			// Synchronous decompression on the execution thread, into a
			// buffer sized from the known plain image.
			comp := r.m.UnitCompressedView(unit)
			want := r.m.UnitPlainView(unit)
			r.mu.Unlock()
			out, derr := r.codec.DecompressAppend(make([]byte, 0, len(want)), comp)
			if derr != nil {
				return nil, fmt.Errorf("rt: demand decompression: %w", derr)
			}
			if !bytes.Equal(out, want) {
				return nil, fmt.Errorf("rt: demand decompression: unit %d content mismatch", unit)
			}
			r.mu.Lock()
			// This replaces any stale copy left by a prefetch that
			// completed after the unit was deleted.
			r.copies[unit] = out
			r.m.FinishDecompress(*x.Demand)
			r.summary.DemandDecompressions++
		} else if _, hasCopy := r.copies[unit]; !hasCopy {
			// The copy is still in flight on the decompression thread.
			wait = r.ready[unit]
			if wait != nil {
				r.summary.Waits++
			}
		}

		// Register ready channels for new prefetches, then send the
		// jobs outside the lock (the workers need the lock to make
		// progress). x is this step's own value, so its job slices can
		// be read after the unlock.
		for _, p := range x.Prefetches {
			if _, dup := r.ready[p.Unit]; !dup {
				r.ready[p.Unit] = make(chan struct{})
			}
		}
		for _, d := range x.Deletes {
			// The copy is logically gone now. The entered unit is never
			// in Deletes, so this step's own copy stays.
			delete(r.copies, d.Unit)
		}
		r.mu.Unlock()

		if wait != nil {
			<-wait
		}
		for _, j := range x.Prefetches {
			r.decompCh <- j
		}
		for _, j := range x.Deletes {
			r.compCh <- j
		}

		// "Run" the block: verify the bytes execution would fetch. The
		// want view is immutable and a published copy is never written
		// again, so comparing outside the lock is safe.
		r.mu.Lock()
		data, ok := r.copies[unit]
		var want []byte
		if ok {
			want = r.m.UnitPlainView(unit)
		}
		failure := r.failure
		r.mu.Unlock()
		if failure != nil {
			return nil, failure
		}
		if !ok {
			return nil, fmt.Errorf("rt: step %d: block %v executed without a copy", step, b)
		}
		if !bytes.Equal(data, want) {
			return nil, fmt.Errorf("rt: step %d: block %v bytes diverged", step, b)
		}
		r.mu.Lock()
		r.summary.Blocks++
		r.summary.Verified++
		r.mu.Unlock()
		prev = b
	}
	r.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failure != nil {
		return nil, r.failure
	}
	out := r.summary
	return &out, nil
}

// Close stops the worker goroutines and waits for them. It is safe to
// call more than once.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.decompCh)
	close(r.compCh)
	r.mu.Unlock()
	r.wg.Wait()
}
