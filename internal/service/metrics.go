package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"apbcc/internal/report"
	"apbcc/internal/store"
)

// histBounds are the latency bucket upper bounds. The last bucket is
// open-ended. Spacing is roughly logarithmic from 1µs to 1s: the
// sub-50µs buckets resolve per-stage attribution (a route or a
// single-block decode is microseconds), the top covers cold
// whole-container packs.
var histBounds = []time.Duration{
	1 * time.Microsecond,
	5 * time.Microsecond,
	10 * time.Microsecond,
	25 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
}

// numBuckets is len(histBounds) plus the open-ended overflow bucket.
const numBuckets = 19

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation. Observations beyond the last bound land in an overflow
// bucket whose maximum is tracked exactly, so quantiles falling there
// report the real worst case instead of silently clamping to 1s.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	sumNS  atomic.Int64
	n      atomic.Int64
	maxNS  atomic.Int64 // largest overflow observation
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.Search(len(histBounds), func(i int) bool { return d <= histBounds[i] })
	if i == len(histBounds) {
		for {
			cur := h.maxNS.Load()
			if int64(d) <= cur || h.maxNS.CompareAndSwap(cur, int64(d)) {
				break
			}
		}
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Mean returns the mean observed duration, 0 when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNS.Load() / n)
}

// Quantile approximates the q-quantile (0 < q <= 1) by linear
// interpolation within the bucket holding the q-th observation:
// assuming observations spread uniformly across a bucket, the value
// sits at lower + (rank position within bucket)/(bucket count) of the
// bucket's width. Reporting the raw upper bound instead would
// overstate the quantile by up to one full bucket width (a p50 of
// 30µs in the 25µs..50µs bucket used to print as 50µs). A quantile
// landing in the open-ended overflow bucket reports the largest
// overflow observation actually seen — never the last bound, which
// would silently understate pathological tails.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c > 0 && seen+c >= rank {
			if i >= len(histBounds) {
				return h.overflowMax()
			}
			var lower time.Duration
			if i > 0 {
				lower = histBounds[i-1]
			}
			upper := histBounds[i]
			frac := float64(rank-seen) / float64(c)
			return lower + time.Duration(frac*float64(upper-lower))
		}
		seen += c
	}
	return h.overflowMax()
}

// snapshot copies the bucket counts (cumulative) and total sum for
// exposition. The exposed _count is the cumulative total of the
// buckets themselves — not n, which a racing Observe could have
// advanced past the bucket increments we saw — so the +Inf bucket and
// _count always agree, as the exposition format requires.
func (h *Histogram) snapshot() (cum [numBuckets]int64, sumNS int64) {
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, h.sumNS.Load()
}

// overflowMax reports the largest observation beyond the last bound,
// falling back to the last bound if (impossibly) none was recorded.
func (h *Histogram) overflowMax() time.Duration {
	if max := h.maxNS.Load(); max > 0 {
		return time.Duration(max)
	}
	return histBounds[len(histBounds)-1]
}

// Metrics aggregates service-wide counters: request counts per route
// family, error counts, in-flight requests and per-codec block-serving
// latency histograms.
type Metrics struct {
	start time.Time

	Requests  atomic.Int64 // all HTTP requests
	Errors    atomic.Int64 // responses with status >= 400
	InFlight  atomic.Int64 // HTTP requests currently being handled
	Packs     atomic.Int64 // containers built (not cached re-serves)
	Blocks    atomic.Int64 // block fetches served
	BytesSent atomic.Int64 // payload bytes written

	// Word-granular serving counters: every word span is decoded from
	// the entry's resident container. The decoded counters are the word
	// path's decompression overhead.
	WordReads        atomic.Int64 // word-span requests served
	WordGroups       atomic.Int64 // word groups decoded through a group directory
	WordDecodedBytes atomic.Int64 // compressed bytes decoded: covering groups, or whole payloads

	// Disk-store counters (all zero when no store is configured).
	StoreWarm     atomic.Int64 // entries restored from the store without packing
	StorePersists atomic.Int64 // containers persisted to the store

	Shed atomic.Int64 // requests rejected 429 by queue-depth admission control

	// Container verifications (one full pack.Unpack after each build and
	// on each warm restore) and the nanoseconds they took.
	VerifyUnpacks atomic.Int64
	VerifyNS      atomic.Int64

	// Nothing writes these; they stay declared, always 0, only because
	// cmd/apcc-bench reads them.
	StoreWordReads                                             atomic.Int64
	StoreL2Hits, StoreL2Misses, StoreReadahead                 atomic.Int64
	RetrySuccess, RetryExhausted, RetryAborted, BreakerRejects atomic.Int64

	// Histogram maps use an RWMutex with a read-locked fast path: the
	// maps only ever grow (codec and stage universes are tiny and
	// fixed), so after warmup every lookup is an RLock + map read —
	// no allocation, no exclusive lock, no boxing (sync.Map's any-keyed
	// Load would heap-allocate the key on every call). Pinned by
	// TestMetricsLookupAllocFree.
	mu       sync.RWMutex
	perCodec map[string]*Histogram

	stageMu  sync.RWMutex
	perStage map[StageKey]*Histogram
}

// StageKey identifies one per-stage latency series: where the time
// went (obs stage name), under which codec, with what outcome.
type StageKey struct {
	Stage, Codec, Outcome string
}

// NewMetrics creates an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		perCodec: make(map[string]*Histogram),
		perStage: make(map[StageKey]*Histogram),
	}
}

// CodecHist returns (creating if needed) the latency histogram for a
// codec. The resident-codec path takes only a read lock and does not
// allocate.
func (m *Metrics) CodecHist(codec string) *Histogram {
	m.mu.RLock()
	h, ok := m.perCodec[codec]
	m.mu.RUnlock()
	if ok {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.perCodec[codec]; ok {
		return h
	}
	h = &Histogram{}
	m.perCodec[codec] = h
	return h
}

// StageHist returns (creating if needed) the per-stage histogram for
// {stage, codec, outcome} — the series behind
// apcc_block_stage_seconds. Same RWMutex fast path as CodecHist.
func (m *Metrics) StageHist(stage, codec, outcome string) *Histogram {
	k := StageKey{Stage: stage, Codec: codec, Outcome: outcome}
	m.stageMu.RLock()
	h, ok := m.perStage[k]
	m.stageMu.RUnlock()
	if ok {
		return h
	}
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	if h, ok := m.perStage[k]; ok {
		return h
	}
	h = &Histogram{}
	m.perStage[k] = h
	return h
}

// codecNames returns the codecs with histograms, sorted.
func (m *Metrics) codecNames() []string {
	m.mu.RLock()
	names := make([]string, 0, len(m.perCodec))
	for name := range m.perCodec {
		names = append(names, name)
	}
	m.mu.RUnlock()
	sort.Strings(names)
	return names
}

// stageKeys returns the populated stage series, sorted for stable
// exposition order.
func (m *Metrics) stageKeys() []StageKey {
	m.stageMu.RLock()
	keys := make([]StageKey, 0, len(m.perStage))
	for k := range m.perStage {
		keys = append(keys, k)
	}
	m.stageMu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Codec != b.Codec {
			return a.Codec < b.Codec
		}
		return a.Outcome < b.Outcome
	})
	return keys
}

// WriteTables renders the metrics through internal/report. mem is the
// built entries' memory by codec. st carries the disk-store census (nil
// when no store is configured; the store table is omitted). csv selects
// the CSV dialect (one table after another, separated by blank lines);
// otherwise aligned text tables are written.
func (m *Metrics) WriteTables(w io.Writer, mem []EntryMemory, pool PoolStats, st *store.Stats, csv bool) error {
	svc := report.NewTable("service", "metric", "value")
	svc.AddRow("uptime_seconds", fmt.Sprintf("%.1f", time.Since(m.start).Seconds()))
	svc.AddRow("requests_total", m.Requests.Load())
	svc.AddRow("errors_total", m.Errors.Load())
	svc.AddRow("in_flight", m.InFlight.Load())
	svc.AddRow("packs_built_total", m.Packs.Load())
	svc.AddRow("blocks_served_total", m.Blocks.Load())
	svc.AddRow("word_reads_total", m.WordReads.Load())
	svc.AddRow("word_groups_decoded_total", m.WordGroups.Load())
	svc.AddRow("word_decoded_bytes_total", m.WordDecodedBytes.Load())
	svc.AddRow("payload_bytes_total", m.BytesSent.Load())

	et := report.NewTable("entry memory by codec", "codec", "resident_bytes", "plain_bytes")
	for _, e := range mem {
		et.AddRow(e.Codec, e.Resident, e.Plain)
	}

	pt := report.NewTable("worker pool", "metric", "value")
	pt.AddRow("workers", pool.Workers)
	pt.AddRow("submitted", pool.Submitted)
	pt.AddRow("completed", pool.Completed)
	pt.AddRow("in_flight", pool.InFlight)

	lt := report.NewTable("block latency by codec", "codec", "count", "mean", "p50", "p90", "p99")
	for _, name := range m.codecNames() {
		h := m.CodecHist(name)
		lt.AddRow(name, h.Count(), h.Mean().String(),
			h.Quantile(0.50).String(), h.Quantile(0.90).String(), h.Quantile(0.99).String())
	}

	rt := report.NewTable("resilience", "metric", "value")
	rt.AddRow("shed_total", m.Shed.Load())

	tables := []*report.Table{svc, et, pt, lt, rt}
	if st != nil {
		dt := report.NewTable("disk store", "metric", "value")
		dt.AddRow("objects", st.Objects)
		dt.AddRow("refs", st.Refs)
		dt.AddRow("warm_restores", m.StoreWarm.Load())
		dt.AddRow("containers_persisted", m.StorePersists.Load())
		dt.AddRow("put_bytes", st.PutBytes)
		dt.AddRow("quarantined", st.Quarantined)
		tables = append(tables, dt)
	}
	for _, t := range tables {
		if csv {
			if _, err := io.WriteString(w, t.CSV()); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
			continue
		}
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
