package sim

import (
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/core"
	"apbcc/internal/program"
)

// threadFixture builds a manager so decompThread has a real
// FinishDecompress target, plus the thread under test.
func threadFixture(t *testing.T) (*core.Manager, *decompThread, *int64) {
	t.Helper()
	p, err := program.Synthesize("fix", cfg.Figure2(), 3)
	if err != nil {
		t.Fatal(err)
	}
	code, err := p.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := compress.New("dict", code)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewManager(p, core.Config{Codec: codec, CompressK: 4})
	if err != nil {
		t.Fatal(err)
	}
	busy := new(int64)
	return m, &decompThread{m: m, seq: make(map[core.UnitID]int64), busy: busy}, busy
}

func TestDecompThreadFIFO(t *testing.T) {
	_, d, busy := threadFixture(t)
	d.issue(0, 1, 100)
	d.issue(0, 2, 50)
	// At t=60 the first job (finish 100) is still running.
	d.advance(60)
	if d.running == nil || d.running.unit != 1 {
		t.Fatal("first job not running at t=60")
	}
	// At t=100 the first completes and the second starts (finish 150).
	d.advance(100)
	if d.running == nil || d.running.unit != 2 || d.finish != 150 {
		t.Fatalf("second job state: running=%+v finish=%d", d.running, d.finish)
	}
	d.advance(150)
	if d.running != nil || len(d.queue) != 0 {
		t.Error("thread not drained")
	}
	if *busy != 150 {
		t.Errorf("busy = %d, want 150", *busy)
	}
}

// TestDecompThreadFIFOStartsWhenFree: a queued job starts the moment
// the job ahead of it completes, however late the thread is next
// advanced.
func TestDecompThreadFIFOStartsWhenFree(t *testing.T) {
	_, d, _ := threadFixture(t)
	d.issue(0, 1, 100)
	d.issue(0, 2, 50)
	d.advance(130)
	if d.running == nil || d.running.unit != 2 || d.finish != 150 {
		t.Fatalf("second job state at t=130: running=%+v finish=%d, want unit 2 finishing at 150", d.running, d.finish)
	}
}

func TestDecompThreadIdleGap(t *testing.T) {
	_, d, _ := threadFixture(t)
	d.issue(0, 1, 10)
	d.advance(500) // long idle gap
	d.issue(500, 2, 10)
	d.advance(505)
	// The second job must start at its issue time, not at the thread's
	// last-free time.
	if d.running == nil || d.finish != 510 {
		t.Fatalf("finish = %d, want 510", d.finish)
	}
}

func TestDecompThreadWaitForRunning(t *testing.T) {
	_, d, _ := threadFixture(t)
	d.issue(0, 1, 100)
	stall, ok := d.waitFor(30, 1)
	if !ok || stall != 70 {
		t.Errorf("stall = %d,%v want 70,true", stall, ok)
	}
}

func TestDecompThreadWaitForQueuedBoost(t *testing.T) {
	_, d, _ := threadFixture(t)
	d.issue(0, 1, 100) // runs first
	d.issue(0, 2, 40)  // queued
	d.issue(0, 3, 40)  // queued behind
	// Waiting on unit 3 at t=10: unit 1 finishes at 100, then unit 3 is
	// boosted past unit 2: 100 + 40 = 140 → stall 130.
	stall, ok := d.waitFor(10, 3)
	if !ok || stall != 130 {
		t.Errorf("stall = %d,%v want 130,true", stall, ok)
	}
	// Unit 2 still pending and runs afterwards.
	if len(d.queue) != 1 || d.queue[0].unit != 2 {
		t.Errorf("queue = %+v", d.queue)
	}
}

func TestDecompThreadWaitForAbsent(t *testing.T) {
	_, d, _ := threadFixture(t)
	if stall, ok := d.waitFor(0, 7); ok || stall != 0 {
		t.Error("wait on absent job should report not-found")
	}
	d.issue(0, 1, 10)
	d.advance(50) // completed
	if _, ok := d.waitFor(50, 1); ok {
		t.Error("wait on completed job should report not-found")
	}
}

func TestDecompThreadCancelQueued(t *testing.T) {
	_, d, busy := threadFixture(t)
	d.issue(0, 1, 100)
	d.issue(0, 2, 40)
	if n := d.cancel(2); n != 1 {
		t.Errorf("cancelled = %d", n)
	}
	d.advance(1000)
	// Only the first job's cycles were spent.
	if *busy != 100 {
		t.Errorf("busy = %d, want 100", *busy)
	}
}

func TestDecompThreadCancelRunningInvalidates(t *testing.T) {
	m, d, _ := threadFixture(t)
	// Issue for unit 0 and let it run; cancel mid-flight: the work
	// completes (cycles spent) but FinishDecompress must not promote.
	d.issue(0, 0, 100)
	d.cancel(0)
	d.advance(200)
	if m.IsLive(0) {
		t.Error("cancelled job still promoted its unit")
	}
}

func TestDecompThreadReissueAfterCancel(t *testing.T) {
	_, d, _ := threadFixture(t)
	d.issue(0, 1, 100) // starts immediately; stale after the cancel
	d.cancel(1)
	d.issue(10, 1, 60)
	// waitFor must wait out the stale occupant (finishes at 100) and
	// then run the *new* job (60 more): stall = 90 + 60 = 150. It must
	// not return when the stale job finishes.
	stall, ok := d.waitFor(10, 1)
	if !ok || stall != 150 {
		t.Errorf("stall = %d,%v want 150,true", stall, ok)
	}
	if d.clock != 160 {
		t.Errorf("thread clock = %d, want 160", d.clock)
	}
}
