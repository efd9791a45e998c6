package sim

import (
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/core"
	"apbcc/internal/program"
)

// threadFixture builds a pre-all manager over the Figure 2 graph that
// has entered B0, so every other unit has a current prefetch job
// (jobs[u] is unit u's), plus the thread under test. The thread asks
// the manager whether each job still stands.
func threadFixture(t *testing.T) (*core.Manager, *decompThread, []core.Job, *int64) {
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
	m, err := core.NewManager(p, core.Config{Codec: codec, CompressK: 4, Strategy: core.PreAll, DecompressK: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := enterLabel(t, m, "", "B0")
	jobs := make([]core.Job, m.NumUnits())
	for _, j := range x.Prefetches {
		jobs[j.Unit] = j
	}
	for u := 1; u < m.NumUnits(); u++ {
		if jobs[u].Unit != core.UnitID(u) {
			t.Fatalf("entering B0 issued no job for unit %d", u)
		}
	}
	busy := new(int64)
	return m, &decompThread{m: m, busy: busy}, jobs, busy
}

// enterLabel moves the manager across the edge from→to of its program
// ("" for a fresh entry).
func enterLabel(t *testing.T, m *core.Manager, from, to string) *core.Transition {
	t.Helper()
	g := m.Program().Graph
	prev := cfg.None
	if from != "" {
		b, _ := g.BlockByLabel(from)
		prev = b.ID
	}
	b, _ := g.BlockByLabel(to)
	x, err := m.EnterBlock(prev, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// dropUnit1 makes the manager drop unit 1's copy through its eviction
// path: every copy was inserted on the same edge, and equal recency
// breaks to the lowest unit ID other than the executing B0.
func dropUnit1(t *testing.T, m *core.Manager) {
	t.Helper()
	if _, _, ok := m.ForceEvict(); !ok || m.IsLive(1) {
		t.Fatal("ForceEvict did not drop unit 1's copy")
	}
}

func TestDecompThreadFIFO(t *testing.T) {
	_, d, jobs, busy := threadFixture(t)
	d.issue(0, jobs[1], 100)
	d.issue(0, jobs[2], 50)
	// At t=60 the first job (finish 100) is still running.
	d.advance(60)
	if !d.running || d.run.job.Unit != 1 {
		t.Fatal("first job not running at t=60")
	}
	// At t=100 the first completes and the second starts (finish 150).
	d.advance(100)
	if !d.running || d.run.job.Unit != 2 || d.finish != 150 {
		t.Fatalf("second job state: running=%v %+v finish=%d", d.running, d.run, d.finish)
	}
	d.advance(150)
	if d.running || len(d.queue) != 0 {
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
	_, d, jobs, _ := threadFixture(t)
	d.issue(0, jobs[1], 100)
	d.issue(0, jobs[2], 50)
	d.advance(130)
	if !d.running || d.run.job.Unit != 2 || d.finish != 150 {
		t.Fatalf("second job state at t=130: running=%v %+v finish=%d, want unit 2 finishing at 150", d.running, d.run, d.finish)
	}
}

func TestDecompThreadIdleGap(t *testing.T) {
	_, d, jobs, _ := threadFixture(t)
	d.issue(0, jobs[1], 10)
	d.advance(500) // long idle gap
	d.issue(500, jobs[2], 10)
	d.advance(505)
	// The second job must start at its issue time, not at the thread's
	// last-free time.
	if !d.running || d.finish != 510 {
		t.Fatalf("finish = %d, want 510", d.finish)
	}
}

func TestDecompThreadWaitForRunning(t *testing.T) {
	_, d, jobs, _ := threadFixture(t)
	d.issue(0, jobs[1], 100)
	if stall := d.waitFor(30, 1); stall != 70 {
		t.Errorf("stall = %d, want 70", stall)
	}
}

func TestDecompThreadWaitForQueuedBoost(t *testing.T) {
	_, d, jobs, _ := threadFixture(t)
	d.issue(0, jobs[1], 100) // runs first
	d.issue(0, jobs[2], 40)  // queued
	d.issue(0, jobs[3], 40)  // queued behind
	// Waiting on unit 3 at t=10: unit 1 finishes at 100, then unit 3 is
	// boosted past unit 2: 100 + 40 = 140 → stall 130.
	if stall := d.waitFor(10, 3); stall != 130 {
		t.Errorf("stall = %d, want 130", stall)
	}
	// Unit 2 still pending and runs afterwards.
	if len(d.queue) != 1 || d.queue[0].job.Unit != 2 {
		t.Errorf("queue = %+v", d.queue)
	}
}

func TestDecompThreadWaitForAbsent(t *testing.T) {
	_, d, jobs, busy := threadFixture(t)
	if stall := d.waitFor(0, 7); stall != 0 {
		t.Errorf("wait on a unit with no job stalled %d", stall)
	}
	d.issue(0, jobs[1], 10)
	d.advance(50) // completed
	if stall := d.waitFor(50, 1); stall != 0 || *busy != 10 {
		t.Errorf("wait on a completed job stalled %d (busy %d)", stall, *busy)
	}
}

// TestDecompThreadCancelQueued: a queued job whose copy the manager
// drops before it starts costs the thread nothing.
func TestDecompThreadCancelQueued(t *testing.T) {
	m, d, jobs, busy := threadFixture(t)
	d.issue(0, jobs[2], 100)
	d.issue(0, jobs[1], 40)
	dropUnit1(t, m)
	d.advance(1000)
	// Only the first job's cycles were spent.
	if *busy != 100 {
		t.Errorf("busy = %d, want 100", *busy)
	}
	// A job whose copy is already dropped when issued is skipped at
	// once, at no cost.
	d.issue(1000, jobs[1], 40)
	if d.running || len(d.queue) != 0 || *busy != 100 {
		t.Errorf("stale job queued: running=%v queue=%+v busy=%d", d.running, d.queue, *busy)
	}
}

// TestDecompThreadCancelRunningInvalidates: the manager drops unit 1's
// copy while its job runs, then issues the unit again. The stale job
// completes (its cycles are spent) but must not promote the new copy,
// which execution then still finds in flight.
func TestDecompThreadCancelRunningInvalidates(t *testing.T) {
	m, d, jobs, busy := threadFixture(t)
	d.issue(0, jobs[1], 100)
	dropUnit1(t, m)
	if x := enterLabel(t, m, "B0", "B3"); !m.IsLive(1) {
		t.Fatalf("B0→B3 did not issue unit 1 again: %+v", x.Prefetches)
	}
	d.advance(200)
	if *busy != 100 {
		t.Errorf("busy = %d, want the stale job's 100", *busy)
	}
	enterLabel(t, m, "B3", "B7")
	enterLabel(t, m, "B7", "B6")
	if x := enterLabel(t, m, "B6", "B1"); !x.InFlight {
		t.Error("stale job promoted the re-issued copy")
	}
}

// TestDecompThreadReissueAfterCancel: after the manager drops and
// re-issues a running unit, a wait on the unit waits out the stale
// occupant and then runs the new job.
func TestDecompThreadReissueAfterCancel(t *testing.T) {
	m, d, jobs, _ := threadFixture(t)
	d.issue(0, jobs[1], 100) // starts immediately; stale after the drop
	dropUnit1(t, m)
	var fresh core.Job
	for _, j := range enterLabel(t, m, "B0", "B3").Prefetches {
		if j.Unit == 1 {
			fresh = j
		}
	}
	if fresh.Gen == jobs[1].Gen {
		t.Fatal("B0→B3 did not issue unit 1 again")
	}
	d.issue(10, fresh, 60)
	// waitFor must wait out the stale occupant (finishes at 100) and
	// then run the *new* job (60 more): stall = 90 + 60 = 150. It must
	// not return when the stale job finishes.
	if stall := d.waitFor(10, 1); stall != 150 {
		t.Errorf("stall = %d, want 150", stall)
	}
	if d.clock != 160 {
		t.Errorf("thread clock = %d, want 160", d.clock)
	}
}
