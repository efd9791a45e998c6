package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Do(context.Background(), func() error { ran.Add(1); return nil }); err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	wg.Wait()
	if n := ran.Load(); n != 100 {
		t.Fatalf("ran %d jobs, want 100", n)
	}
	s := p.Stats()
	if s.Completed != 100 || s.Submitted != 100 || s.InFlight != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPoolSurvivesPanickingJob(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	err := p.Do(context.Background(), func() error { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want job panic error", err)
	}
	// The single slot must have been freed to run this.
	if err := p.Do(context.Background(), func() error { return nil }); err != nil {
		t.Fatalf("Do after panic: %v", err)
	}
	if s := p.Stats(); s.InFlight != 0 || s.Completed != 2 {
		t.Fatalf("stats after panic = %+v", s)
	}
}

func TestPoolPropagatesError(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	boom := errors.New("boom")
	if err := p.Do(context.Background(), func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestPoolContextCancelBeforeRun(t *testing.T) {
	// One slot wedged on a slow job; a second job's context expires
	// while it waits. The pool must return the context error without
	// running it.
	p := NewPool(1)
	defer p.Close()
	block := make(chan struct{})
	go p.Do(context.Background(), func() error { <-block; return nil })
	time.Sleep(10 * time.Millisecond) // let the slow job start

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := p.Do(ctx, func() error { ran = true; return nil })
	close(block)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("cancelled job still ran")
	}
}

func TestPoolClose(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(context.Background(), func() error { ran.Add(1); return nil })
		}()
	}
	wg.Wait()
	p.Close()
	p.Close() // idempotent
	if err := p.Do(context.Background(), func() error { return nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Do after Close = %v, want ErrPoolClosed", err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran = %d, want 10", ran.Load())
	}
}

// TestPoolNilContext is the regression test for Do panicking on a nil
// context (ctx.Done() on the select path) even though run explicitly
// tolerated one: nil must behave as context.Background.
func TestPoolNilContext(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ran := false
	if err := p.Do(nil, func() error { ran = true; return nil }); err != nil { //nolint:staticcheck // nil ctx is the point
		t.Fatalf("Do(nil, ...) = %v", err)
	}
	if !ran {
		t.Fatal("job never ran")
	}
}

// TestPoolBoundsConcurrency: however many callers arrive at once, no
// more than Workers of them are inside fn together, and every job runs.
func TestPoolBoundsConcurrency(t *testing.T) {
	const slots, jobs = 3, 64
	p := NewPool(slots)
	defer p.Close()
	var running, peak, ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Do(context.Background(), func() error {
				n := running.Add(1)
				for {
					m := peak.Load()
					if n <= m || peak.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				running.Add(-1)
				ran.Add(1)
				return nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > slots || got < 2 {
		t.Fatalf("peak concurrency %d, want 2..%d", got, slots)
	}
	if got := ran.Load(); got != jobs {
		t.Fatalf("ran %d jobs, want %d", got, jobs)
	}
}

// TestPoolSkipsEndedContext: with a slot free, a job whose context has
// already ended must still never run — select may hand Do the slot
// before it sees the context, so Do checks again.
func TestPoolSkipsEndedContext(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		if err := p.Do(ctx, func() error { t.Fatal("ended job ran"); return nil }); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	if s := p.Stats(); s.InFlight != 0 || s.Completed != 0 {
		t.Fatalf("stats = %+v, want nothing in flight or completed", s)
	}
}

// TestPoolDoAllocFree pins the gate's cost: a Do with no fault armed
// allocates nothing of its own.
func TestPoolDoAllocFree(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx := context.Background()
	noop := func() error { return nil }
	if allocs := testing.AllocsPerRun(1000, func() { p.Do(ctx, noop) }); allocs != 0 {
		t.Fatalf("Do allocates %.1f times per call, want 0", allocs)
	}
}
