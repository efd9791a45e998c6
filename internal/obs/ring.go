package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// ringStripes is the lock-stripe count of a Recorder's ring. Traces
// land in a stripe by id, so concurrent request finishes contend on a
// stripe mutex only 1/ringStripes of the time.
const ringStripes = 8

// Record is one completed trace as stored in the ring and rendered by
// /debug/trace: the trace's identity plus a deep copy of its tiles.
type Record struct {
	ID       uint64    `json:"id"`
	Start    time.Time `json:"start"`
	Workload string    `json:"workload"`
	Codec    string    `json:"codec"`
	Block    int       `json:"block"`
	Outcome  string    `json:"outcome"`
	TotalNS  int64     `json:"total_ns"`
	Spans    []Span    `json:"spans"`
}

// Dump is the /debug/trace JSON document: the most recent traces plus
// the slowest-K exemplars, which keep their tiles however long ago
// they happened.
type Dump struct {
	Traces    []Record `json:"traces"`
	Exemplars []Record `json:"exemplars"`
}

// RecorderStats is a point-in-time snapshot of recorder activity.
type RecorderStats struct {
	Recorded  int64 // traces recorded since start
	Truncated int64 // traces that hit the per-trace tile cap
}

// Recorder collects finished traces into a lock-striped ring buffer
// and keeps the slowest-K traces as exemplars. Traces it starts come
// from an internal pool and return to it on Record, so steady-state
// recording allocates nothing. A nil *Recorder is the disabled sink:
// StartTrace returns nil and everything downstream no-ops.
type Recorder struct {
	stripes   [ringStripes]ringStripe
	seq       atomic.Uint64
	recorded  atomic.Int64
	truncated atomic.Int64
	pool      sync.Pool

	exMu      sync.Mutex
	exemplars []Record // up to exK, unordered; min evicted on overflow
	exK       int
}

type ringStripe struct {
	mu   sync.Mutex
	buf  []Record
	next int
	n    int // records ever written to this stripe
}

// NewRecorder creates a recorder holding the last capacity traces
// (clamped to at least ringStripes) and the exemplarK slowest.
func NewRecorder(capacity, exemplarK int) *Recorder {
	if capacity < ringStripes {
		capacity = ringStripes
	}
	if exemplarK < 1 {
		exemplarK = 1
	}
	r := &Recorder{exK: exemplarK}
	per := (capacity + ringStripes - 1) / ringStripes
	for i := range r.stripes {
		r.stripes[i].buf = make([]Record, per)
	}
	r.pool.New = func() any { return &Trace{spans: make([]Span, 0, maxSpans)} }
	return r
}

// StartTrace hands out a pooled trace stamped with a fresh id, its
// first tile, stage, opened at the clock read that starts the trace.
// On a nil recorder it returns nil — the disabled fast path.
func (r *Recorder) StartTrace(stage string) *Trace {
	if r == nil {
		return nil
	}
	t := r.pool.Get().(*Trace)
	t.reset(r.seq.Add(1), stage)
	return t
}

// Record stores a finished trace (copying its tiles into a reusable
// ring slot and, when slow enough, an exemplar) and returns the trace
// to the pool. The trace must not be used afterwards. Nil recorder or
// trace no-ops.
func (r *Recorder) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.recorded.Add(1)
	if t.truncated {
		r.truncated.Add(1)
	}
	s := &r.stripes[t.ID%ringStripes]
	s.mu.Lock()
	slot := &s.buf[s.next]
	fillRecord(slot, t)
	s.next = (s.next + 1) % len(s.buf)
	s.n++
	s.mu.Unlock()
	r.offerExemplar(t)
	r.pool.Put(t)
}

// fillRecord copies t into slot, reusing the slot's tile capacity.
func fillRecord(slot *Record, t *Trace) {
	slot.ID = t.ID
	slot.Start = t.start
	slot.Workload = t.Workload
	slot.Codec = t.Codec
	slot.Block = t.Block
	slot.Outcome = t.Outcome
	slot.TotalNS = t.TotalNS
	slot.Spans = append(slot.Spans[:0], t.spans...)
}

// offerExemplar admits t to the slowest-K set if it beats the current
// minimum (or the set is not full). Exemplars deep-copy: they outlive
// the pooled trace and the ring's recycling.
func (r *Recorder) offerExemplar(t *Trace) {
	r.exMu.Lock()
	defer r.exMu.Unlock()
	if len(r.exemplars) < r.exK {
		var rec Record
		fillRecord(&rec, t)
		rec.Spans = append([]Span(nil), t.spans...)
		r.exemplars = append(r.exemplars, rec)
		return
	}
	min := 0
	for i := 1; i < len(r.exemplars); i++ {
		if r.exemplars[i].TotalNS < r.exemplars[min].TotalNS {
			min = i
		}
	}
	if t.TotalNS <= r.exemplars[min].TotalNS {
		return
	}
	fillRecord(&r.exemplars[min], t)
}

// Snapshot returns up to n of the most recent records, newest first.
// Records are deep copies, safe to hold and marshal while recording
// continues.
func (r *Recorder) Snapshot(n int) []Record {
	if r == nil || n <= 0 {
		return nil
	}
	var out []Record
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		have := s.n
		if have > len(s.buf) {
			have = len(s.buf)
		}
		for j := 0; j < have; j++ {
			slot := s.buf[(s.next-1-j+2*len(s.buf))%len(s.buf)]
			slot.Spans = append([]Span(nil), slot.Spans...)
			out = append(out, slot)
		}
		s.mu.Unlock()
	}
	// Newest first across stripes; ids are globally ordered.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID > out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Exemplars returns deep copies of the slowest-K records, slowest
// first.
func (r *Recorder) Exemplars() []Record {
	if r == nil {
		return nil
	}
	r.exMu.Lock()
	out := make([]Record, len(r.exemplars))
	for i := range r.exemplars {
		out[i] = r.exemplars[i]
		out[i].Spans = append([]Span(nil), r.exemplars[i].Spans...)
	}
	r.exMu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].TotalNS > out[j-1].TotalNS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Stats snapshots recorder counters; zero value on a nil recorder.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	return RecorderStats{
		Recorded:  r.recorded.Load(),
		Truncated: r.truncated.Load(),
	}
}
