package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTrace returns a standalone trace whose first tile is stage; the
// serving tier gets pooled traces from a Recorder instead.
func newTrace(id uint64, stage string) *Trace {
	t := &Trace{spans: make([]Span, 0, maxSpans)}
	t.reset(id, stage)
	return t
}

// TestTraceTiles: StartTrace, Next and Finish lay tiles back to back,
// so each starts where the previous one ended, their durations sum to
// TotalNS exactly, and the request's outcome lands on the last tile.
func TestTraceTiles(t *testing.T) {
	tr := newTrace(7, StageRoute)
	tr.Next(StageBuild)
	time.Sleep(time.Millisecond)
	tr.Next(StageRoute)
	time.Sleep(time.Millisecond)
	tr.Next(StageWrite)
	tr.Finish(OutcomeError)

	spans := tr.Spans()
	var got []string
	for _, sp := range spans {
		got = append(got, sp.Stage+"/"+sp.Outcome)
	}
	if want := "route/ok build/ok route/ok write/error"; strings.Join(got, " ") != want {
		t.Fatalf("tiles = %v, want %s", got, want)
	}
	var end int64
	for i, sp := range spans {
		if sp.StartNS != end {
			t.Errorf("tile %d starts at %d, previous ended at %d", i, sp.StartNS, end)
		}
		if sp.ExclNS < 0 {
			t.Errorf("tile %d: negative duration %d", i, sp.ExclNS)
		}
		end += sp.ExclNS
	}
	if end != tr.TotalNS {
		t.Errorf("tiles sum to %d, total %d", end, tr.TotalNS)
	}
	if spans[1].ExclNS < int64(time.Millisecond) {
		t.Errorf("build tile %d ns, slept 1ms in it", spans[1].ExclNS)
	}
}

// TestNilTraceNoops: the disabled fast path is nil-receiver safe and
// allocation-free end to end, including context round-trips.
func TestNilTraceNoops(t *testing.T) {
	var tr *Trace
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		tr.Next(StageRoute)
		tr.Finish(OutcomeOK)
		tr.SetLabels("w", "c", 1)
		c2 := WithTrace(ctx, tr)
		if FromContext(c2) != nil {
			t.Fatal("nil trace came back non-nil")
		}
		if tr.TraceID() != 0 || tr.Spans() != nil {
			t.Fatal("nil trace leaked state")
		}
	})
	if allocs != 0 {
		t.Errorf("nil-sink path allocates %v/op, want 0", allocs)
	}
	var rec *Recorder
	if rec.StartTrace(StageRoute) != nil {
		t.Fatal("nil recorder started a trace")
	}
	rec.Record(nil)
	if rec.Snapshot(10) != nil || rec.Exemplars() != nil {
		t.Fatal("nil recorder returned records")
	}
}

// TestTraceTruncation: a trace stops adding tiles at the cap instead
// of growing, reports it, and still sums to its total because the
// open tile keeps running.
func TestTraceTruncation(t *testing.T) {
	tr := newTrace(1, StageRoute)
	for i := 0; i < maxSpans+10; i++ {
		tr.Next(StageDecode)
	}
	tr.Finish(OutcomeOK)
	if len(tr.Spans()) != maxSpans {
		t.Fatalf("got %d spans, want cap %d", len(tr.Spans()), maxSpans)
	}
	if !tr.Truncated() {
		t.Fatal("truncation not reported")
	}
	var sum int64
	for _, sp := range tr.Spans() {
		sum += sp.ExclNS
	}
	if sum != tr.TotalNS {
		t.Errorf("truncated trace tiles sum to %d, total %d", sum, tr.TotalNS)
	}
}

// TestRecorderRing: the ring keeps the newest records, snapshot
// returns them newest-first, and the slowest request survives as an
// exemplar after the ring has cycled past it.
func TestRecorderRing(t *testing.T) {
	rec := NewRecorder(16, 2)
	slowID := uint64(0)
	for i := 0; i < 100; i++ {
		tr := rec.StartTrace(StageRoute)
		tr.SetLabels("fft", "dict", i)
		if i == 3 { // make one early trace the slowest of the run
			time.Sleep(5 * time.Millisecond)
			slowID = tr.TraceID()
		}
		tr.Finish(OutcomeOK)
		rec.Record(tr)
	}
	snap := rec.Snapshot(8)
	if len(snap) != 8 {
		t.Fatalf("snapshot returned %d, want 8", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].ID > snap[i-1].ID {
			t.Fatalf("snapshot not newest-first: %d before %d", snap[i-1].ID, snap[i].ID)
		}
	}
	if snap[0].ID != 100 {
		t.Errorf("newest id = %d, want 100", snap[0].ID)
	}
	for _, r := range snap {
		if r.ID == slowID {
			t.Errorf("trace %d should have been overwritten in a 16-slot ring", slowID)
		}
		if len(r.Spans) != 1 || r.Spans[0].Stage != StageRoute {
			t.Errorf("record %d spans = %+v", r.ID, r.Spans)
		}
	}
	ex := rec.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("got %d exemplars, want 2", len(ex))
	}
	if ex[0].ID != slowID {
		t.Errorf("slowest exemplar id = %d, want %d", ex[0].ID, slowID)
	}
	if ex[0].TotalNS < ex[1].TotalNS {
		t.Error("exemplars not slowest-first")
	}
	st := rec.Stats()
	if st.Recorded != 100 || st.Truncated != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRecorderSteadyStateAllocs: with the pool warm and ring slots
// populated, a start→next→finish→record cycle allocates nothing.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	rec := NewRecorder(64, 2)
	cycle := func() {
		tr := rec.StartTrace(StageRoute)
		tr.Next(StageWrite)
		tr.Finish(OutcomeOK)
		rec.Record(tr)
	}
	for i := 0; i < 200; i++ { // warm pool, ring slots and exemplars
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if allocs > 0 {
		t.Errorf("steady-state record allocates %v/op, want 0", allocs)
	}
}

// TestRecorderConcurrent: goroutines recording while another
// snapshots leave a full ring of distinct traces and an exact count.
func TestRecorderConcurrent(t *testing.T) {
	const workers, each, capacity = 4, 250, 16
	rec := NewRecorder(capacity, 2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr := rec.StartTrace(StageRoute)
				tr.Finish(OutcomeOK)
				rec.Record(tr)
			}
		}()
	}
	for i := 0; i < 100; i++ {
		rec.Snapshot(capacity)
		rec.Exemplars()
	}
	wg.Wait()
	if got := rec.Stats().Recorded; got != workers*each {
		t.Errorf("recorded %d, want %d", got, workers*each)
	}
	snap := rec.Snapshot(2 * capacity)
	if len(snap) != capacity {
		t.Fatalf("snapshot holds %d traces, want the ring's %d", len(snap), capacity)
	}
	seen := make(map[uint64]bool)
	for _, r := range snap {
		if r.ID == 0 || seen[r.ID] {
			t.Errorf("snapshot repeats or lacks trace id %d", r.ID)
		}
		seen[r.ID] = true
	}
}

// TestContextRoundTrip: WithTrace/FromContext carry the trace.
func TestContextRoundTrip(t *testing.T) {
	tr := newTrace(9, StageRoute)
	ctx := WithTrace(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("background context produced a trace")
	}
}

// TestEscapeLabelValue covers the three escapes the format requires.
func TestEscapeLabelValue(t *testing.T) {
	got := EscapeLabelValue("a\\b\"c\nd")
	want := `a\\b\"c\nd`
	if got != want {
		t.Errorf("escape = %q, want %q", got, want)
	}
	if s := EscapeLabelValue("plain"); s != "plain" {
		t.Errorf("plain escaped to %q", s)
	}
}

// TestParseLevelAndLogger covers the flag surface of the log helpers.
func TestParseLevelAndLogger(t *testing.T) {
	for _, bad := range []string{"verbose", "trace"} {
		if _, err := ParseLevel(bad); err == nil {
			t.Errorf("ParseLevel(%q) accepted", bad)
		}
	}
	var sb strings.Builder
	lg, err := NewLogger(&sb, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hello", "k", 1)
	if !strings.Contains(sb.String(), `"msg":"hello"`) {
		t.Errorf("json log output %q", sb.String())
	}
	if _, err := NewLogger(&sb, "info", "yaml"); err == nil {
		t.Error("bad format accepted")
	}
	Discard.Info("dropped")
}
