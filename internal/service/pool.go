package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"apbcc/internal/faults"
)

// ErrPoolClosed reports a submit to a closed pool.
var ErrPoolClosed = errors.New("service: pool closed")

// faultPoolSubmit injects latency or transient errors at the pool
// admission boundary, before a job waits for a slot.
var faultPoolSubmit = faults.Register("service.pool-submit")

// PoolStats is a point-in-time snapshot of pool activity.
type PoolStats struct {
	Workers   int
	Submitted int64
	Completed int64
	InFlight  int64 // submitted, not yet finished (waiting or running)
}

// Pool bounds how many pack and compress jobs run at once. It is a
// slot gate, not a set of workers: Do waits for one of Workers slots
// and runs the job on the calling goroutine, so a job costs a
// semaphore send and receive instead of a handoff to another goroutine.
type Pool struct {
	slots chan struct{}  // one token per running job
	wg    sync.WaitGroup // admitted Do calls, which Close waits for

	mu     sync.Mutex
	closed bool

	workers   int
	submitted atomic.Int64
	completed atomic.Int64
	inFlight  atomic.Int64
}

// Backlog approximates the number of submitted jobs still waiting for
// a slot: in-flight minus the slot count, clamped at zero. The
// admission controller sheds new requests when the backlog reaches
// Config.QueueDepth.
func (p *Pool) Backlog() int64 {
	b := p.inFlight.Load() - int64(p.workers)
	if b < 0 {
		return 0
	}
	return b
}

// NewPool returns a gate that runs at most workers jobs at once
// (clamped to at least 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{slots: make(chan struct{}, workers), workers: workers}
}

// Do waits for a slot, runs fn on the calling goroutine and returns
// its error. If ctx is done before Do gets a slot, Do returns
// ctx.Err() and fn never runs. A nil ctx is treated as
// context.Background.
func (p *Pool) Do(ctx context.Context, fn func() error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := faultPoolSubmit.Err(); err != nil {
		return err
	}
	// Add under the same lock Close flips closed with, so no Add can
	// race Close's Wait on a drained counter.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	p.submitted.Add(1)
	p.inFlight.Add(1)
	p.wg.Add(1)
	p.mu.Unlock()
	defer p.wg.Done()
	defer p.inFlight.Add(-1)
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-p.slots }()
	// select picks at random among ready cases, so the slot may have
	// won against a context that had already ended.
	if err := ctx.Err(); err != nil {
		return err
	}
	err := runGuarded(fn)
	p.completed.Add(1)
	return err
}

// Close stops admitting jobs and waits for the admitted ones to finish.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:   p.workers,
		Submitted: p.submitted.Load(),
		Completed: p.completed.Load(),
		InFlight:  p.inFlight.Load(),
	}
}

// runGuarded converts a panicking job into an error, so one bad job
// fails its caller instead of taking down the process.
func runGuarded(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: job panic: %v", r)
		}
	}()
	return fn()
}
