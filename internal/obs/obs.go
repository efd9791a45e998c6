// Package obs is the serving stack's zero-dependency observability
// layer: request-scoped traces of back-to-back stage tiles carried via
// context.Context, a ring buffer of completed traces with tail-latency
// exemplars under one mutex, Prometheus text-exposition helpers
// (writer and linter), and log/slog construction shared by the
// commands.
//
// The design center is the nil-sink fast path: every method on a nil
// *Trace or nil *Recorder is a no-op that touches no clock and
// allocates nothing, so instrumented hot paths (the block GET) cost
// the same with tracing disabled as they did before the layer existed.
// With a sink attached, a trace is pooled, its tiles live in a
// fixed-capacity array, and recording copies into reusable ring slots —
// steady-state tracing is allocation-free too.
package obs

import (
	"context"
	"time"
)

// Stage names: where a block-serving request spends its time. These
// are the stage label values of the per-stage latency histogram and
// the span names in /debug/trace.
const (
	StageRoute  = "route"  // entry resolution, id parse, request validation
	StageBuild  = "build"  // (workload,codec) container build or warm restore
	StageDecode = "decode" // word-span decode from the resident container (covering groups or whole block)
	StageWrite  = "write"  // response headers + payload write

	// The server records none of these five; cmd/apcc-bench reads them.
	StageL2Read    = "l2-read"
	StageReadahead = "readahead"
	StageRebuild   = "rebuild"
	StageWordRead  = "l2-word-read"
	// Deprecated: the block cache is gone and no span carries this
	// stage. It stays only until cmd/apcc-bench stops reading it
	// (ROADMAP item 1).
	StageL1 = "l1"
)

// Span outcomes.
const (
	OutcomeOK    = "ok"
	OutcomeError = "error"
)

// maxSpans bounds a trace's tile count. Traces never grow past it:
// Next keeps the open tile running instead (marking the trace
// truncated) so one pathological request cannot balloon the pool's
// retained memory.
const maxSpans = 64

// Span is one tile of a trace: a stage's stretch of the request, from
// StartNS (nanoseconds since the trace began) for ExclNS nanoseconds.
// Tiles are back to back, so a trace's ExclNS values sum to its
// TotalNS; ExclNS is what the per-stage histograms observe.
type Span struct {
	Stage   string `json:"stage"`
	Outcome string `json:"outcome"`
	StartNS int64  `json:"start_ns"`
	ExclNS  int64  `json:"excl_ns"`
}

// Trace is one request's row of tiles. It is not safe for concurrent
// use: Next and Finish must run on goroutines ordered by
// happens-before (the request goroutine, including compute callbacks
// it runs synchronously). All methods are nil-receiver safe no-ops,
// which is the tracing-disabled fast path.
type Trace struct {
	ID       uint64 `json:"id"`
	Workload string `json:"workload"`
	Codec    string `json:"codec"`
	Block    int    `json:"block"`
	Outcome  string `json:"outcome"`
	TotalNS  int64  `json:"total_ns"`

	start     time.Time
	spans     []Span // the last one is the open tile until Finish
	truncated bool
}

func (t *Trace) reset(id uint64, stage string) {
	t.ID = id
	t.Workload, t.Codec, t.Outcome = "", "", ""
	t.Block = 0
	t.TotalNS = 0
	t.start = time.Now()
	t.spans = append(t.spans[:0], Span{Stage: stage, Outcome: OutcomeOK})
	t.truncated = false
}

// SetLabels attaches the request identity once it is known (the codec
// name, for example, resolves only after the entry is built).
func (t *Trace) SetLabels(workload, codec string, block int) {
	if t == nil {
		return
	}
	t.Workload, t.Codec, t.Block = workload, codec, block
}

// Next ends the open tile with outcome ok and opens a tile for stage
// at the same clock read. On a full trace it marks the trace truncated
// and leaves the open tile running, so the tiles still sum to the
// total. On a nil trace it returns without reading the clock.
func (t *Trace) Next(stage string) {
	if t == nil {
		return
	}
	if len(t.spans) == cap(t.spans) {
		t.truncated = true
		return
	}
	now := int64(time.Since(t.start))
	open := &t.spans[len(t.spans)-1]
	open.ExclNS = now - open.StartNS
	t.spans = append(t.spans, Span{Stage: stage, Outcome: OutcomeOK, StartNS: now})
}

// Finish ends the open tile with the request's outcome, at the clock
// read that stamps TotalNS, so an error is charged to the stage it
// happened in. Call once, before Recorder.Record.
func (t *Trace) Finish(outcome string) {
	if t == nil {
		return
	}
	t.Outcome = outcome
	t.TotalNS = int64(time.Since(t.start))
	open := &t.spans[len(t.spans)-1]
	open.ExclNS = t.TotalNS - open.StartNS
	open.Outcome = outcome
}

// Spans exposes the recorded tiles (read-only; valid until the trace
// is handed back to its recorder via Record). Before Finish, the last
// tile is still open and its ExclNS is 0.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// TraceID returns the trace's id, 0 for a nil trace.
func (t *Trace) TraceID() uint64 {
	if t == nil {
		return 0
	}
	return t.ID
}

// Truncated reports whether Next hit the per-trace tile cap.
func (t *Trace) Truncated() bool { return t != nil && t.truncated }

type ctxKey struct{}

// WithTrace attaches a trace to the context. A nil trace returns ctx
// unchanged, so the disabled path allocates nothing.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the attached trace, nil when absent (or ctx is
// nil). The nil result flows into Next/Finish as no-ops.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
