package obs

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

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

// Recorder collects finished traces into a ring buffer and keeps the
// slowest-K traces as exemplars; one mutex guards both, so recording
// a trace takes one lock. Traces it starts come from an internal pool
// and return to it on Record, so steady-state recording allocates
// nothing. A nil *Recorder is the disabled sink: StartTrace returns
// nil and everything downstream no-ops.
type Recorder struct {
	seq       atomic.Uint64
	recorded  atomic.Int64
	truncated atomic.Int64
	pool      sync.Pool

	mu        sync.Mutex
	ring      []Record // the last len(ring) traces; ring[next] is the next slot written
	next      int
	filled    int      // slots written so far, at most len(ring)
	exemplars []Record // up to exK, unordered; min evicted on overflow
	exK       int
}

// NewRecorder creates a recorder holding the last capacity traces (at
// least one) and the exemplarK slowest (at least one).
func NewRecorder(capacity, exemplarK int) *Recorder {
	r := &Recorder{ring: make([]Record, max(capacity, 1)), exK: max(exemplarK, 1)}
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
	r.mu.Lock()
	fillRecord(&r.ring[r.next], t)
	r.next = (r.next + 1) % len(r.ring)
	r.filled = min(r.filled+1, len(r.ring))
	r.offerExemplar(t)
	r.mu.Unlock()
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
// minimum (or the set is not full); the caller holds r.mu. Exemplars
// deep-copy: they outlive the pooled trace and the ring's recycling.
func (r *Recorder) offerExemplar(t *Trace) {
	if len(r.exemplars) < r.exK {
		r.exemplars = append(r.exemplars, Record{})
		fillRecord(&r.exemplars[len(r.exemplars)-1], t)
		return
	}
	low := 0
	for i := 1; i < len(r.exemplars); i++ {
		if r.exemplars[i].TotalNS < r.exemplars[low].TotalNS {
			low = i
		}
	}
	if t.TotalNS <= r.exemplars[low].TotalNS {
		return
	}
	fillRecord(&r.exemplars[low], t)
}

// Snapshot returns up to n of the most recently recorded traces,
// newest first.
// Records are deep copies, safe to hold and marshal while recording
// continues.
func (r *Recorder) Snapshot(n int) []Record {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Record
	for i := 0; i < min(n, r.filled); i++ { // backwards from the newest slot
		rec := r.ring[(r.next-1-i+len(r.ring))%len(r.ring)]
		rec.Spans = append([]Span(nil), rec.Spans...)
		out = append(out, rec)
	}
	return out
}

// Exemplars returns deep copies of the slowest-K records, slowest
// first.
func (r *Recorder) Exemplars() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Record, len(r.exemplars))
	for i, rec := range r.exemplars {
		out[i] = rec
		out[i].Spans = append([]Span(nil), rec.Spans...)
	}
	r.mu.Unlock()
	slices.SortStableFunc(out, func(a, b Record) int { return cmp.Compare(b.TotalNS, a.TotalNS) })
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
