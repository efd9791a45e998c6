package service

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"apbcc/internal/faults"
	"apbcc/internal/obs"
	"apbcc/internal/report"
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
// {stage, codec, outcome}. Same RWMutex fast path as CodecHist.
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

// promBounds is histBounds in seconds, the unit Prometheus histograms
// expose.
var promBounds = func() []float64 {
	out := make([]float64, len(histBounds))
	for i, b := range histBounds {
		out[i] = b.Seconds()
	}
	return out
}()

// metricSink receives what Server.writeMetrics declares: each family's
// header, then that family's samples or histogram series.
type metricSink interface {
	family(name, typ, help string)
	sample(name string, labels []obs.Label, v float64)
	histogram(name string, labels []obs.Label, h *Histogram)
}

// promSink renders families as Prometheus text exposition (version
// 0.0.4).
type promSink struct{ p *obs.PromWriter }

func (s promSink) family(name, typ, help string) { s.p.Family(name, typ, help) }

func (s promSink) sample(name string, labels []obs.Label, v float64) { s.p.Sample(name, labels, v) }

func (s promSink) histogram(name string, labels []obs.Label, h *Histogram) {
	cum, sumNS := h.snapshot()
	s.p.Histogram(name, labels, promBounds, cum[:len(histBounds)],
		time.Duration(sumNS).Seconds(), cum[numBuckets-1])
}

// tableSink renders families as the /metrics tables: a metrics row per
// sample and a latency row per histogram series, each named by its
// Prometheus series. Values are written in full, never in exponent
// form.
type tableSink struct{ metrics, latency *report.Table }

func newTableSink() tableSink {
	return tableSink{
		metrics: report.NewTable("metrics", "series", "value"),
		latency: report.NewTable("latency", "series", "count", "mean", "p50", "p90", "p99"),
	}
}

func (tableSink) family(name, typ, help string) {}

func (t tableSink) sample(name string, labels []obs.Label, v float64) {
	t.metrics.AddRow(obs.SeriesName(name, labels), strconv.FormatFloat(v, 'f', -1, 64))
}

func (t tableSink) histogram(name string, labels []obs.Label, h *Histogram) {
	t.latency.AddRow(obs.SeriesName(name, labels), h.Count(), h.Mean().String(),
		h.Quantile(0.50).String(), h.Quantile(0.90).String(), h.Quantile(0.99).String())
}

// writeMetrics is the one place a metric family is declared: it emits
// each family's name, type and help, then its samples, to sink. The
// Prometheus exposition and the /metrics tables are both rendered from
// it, so they carry the same series. Family names are fixed at compile
// time, so scrape configs survive restarts (pinned by
// TestPromNamesStableAcrossRestarts). The store families appear only
// when a store is configured.
func (s *Server) writeMetrics(sink metricSink) {
	m := s.metrics
	scalar := func(name, typ, help string, v float64) {
		sink.family(name, typ, help)
		sink.sample(name, nil, v)
	}
	scalar("apcc_uptime_seconds", "gauge", "Seconds since the server started.", time.Since(m.start).Seconds())
	scalar("apcc_http_requests_total", "counter", "HTTP requests received.", float64(m.Requests.Load()))
	scalar("apcc_http_errors_total", "counter", "HTTP responses with status >= 400.", float64(m.Errors.Load()))
	scalar("apcc_http_in_flight", "gauge", "HTTP requests currently being handled.", float64(m.InFlight.Load()))
	scalar("apcc_packs_built_total", "counter", "Containers built (not cached re-serves).", float64(m.Packs.Load()))
	scalar("apcc_blocks_served_total", "counter", "Block fetches served.", float64(m.Blocks.Load()))
	scalar("apcc_payload_bytes_total", "counter", "Payload bytes written to clients.", float64(m.BytesSent.Load()))
	scalar("apcc_word_reads_total", "counter",
		"Word-span reads served, each decoded from the resident container.", float64(m.WordReads.Load()))
	scalar("apcc_word_groups_decoded_total", "counter",
		"Word groups decoded by word reads through a group directory (whole-block decodes add none).",
		float64(m.WordGroups.Load()))
	scalar("apcc_word_decoded_bytes_total", "counter",
		"Compressed bytes decoded by word reads: the covering groups, or the whole payload without a group directory.",
		float64(m.WordDecodedBytes.Load()))

	mem := s.memoryByCodec()
	sink.family("apcc_entry_resident_bytes", "gauge",
		"Memory built entries hold, by codec: container capacity, layout and group-offset tables, each entry's struct, ready channel and map slot, and the decoders word reads have built.")
	for _, e := range mem {
		sink.sample("apcc_entry_resident_bytes", []obs.Label{{Name: "codec", Value: e.codec}}, float64(e.resident))
	}
	sink.family("apcc_entry_plain_bytes", "gauge", "Plain code bytes the built entries' containers encode, by codec.")
	for _, e := range mem {
		sink.sample("apcc_entry_plain_bytes", []obs.Label{{Name: "codec", Value: e.codec}}, float64(e.plain))
	}

	pool := s.pool.Stats()
	scalar("apcc_pool_workers", "gauge", "Worker-pool size.", float64(pool.Workers))
	sink.family("apcc_pool_jobs_total", "counter", "Worker-pool jobs by state.")
	sink.sample("apcc_pool_jobs_total", []obs.Label{{Name: "state", Value: "submitted"}}, float64(pool.Submitted))
	sink.sample("apcc_pool_jobs_total", []obs.Label{{Name: "state", Value: "completed"}}, float64(pool.Completed))
	scalar("apcc_pool_in_flight", "gauge", "Jobs submitted but not finished.", float64(pool.InFlight))

	scalar("apcc_verify_unpacks_total", "counter",
		"Container verification unpacks (one pack.Unpack per build and per warm restore).",
		float64(m.VerifyUnpacks.Load()))
	scalar("apcc_verify_unpack_seconds_total", "counter",
		"Cumulative seconds spent in verification unpacks.", time.Duration(m.VerifyNS.Load()).Seconds())

	scalar("apcc_shed_total", "counter",
		"Requests rejected 429 by queue-depth admission control.", float64(m.Shed.Load()))
	sink.family("apcc_faults_injected_total", "counter",
		"Failpoint activations by site and action kind (zero when fault injection is disabled).")
	for _, site := range faults.Snapshot() {
		for _, kind := range []string{faults.KindLatency, faults.KindTransient, faults.KindBitFlip} {
			sink.sample("apcc_faults_injected_total", []obs.Label{
				{Name: "site", Value: site.Name},
				{Name: "kind", Value: kind},
			}, float64(site.Injected[kind]))
		}
	}

	rs := s.rec.Stats()
	scalar("apcc_trace_records_total", "counter", "Request traces recorded to the ring buffer.", float64(rs.Recorded))
	scalar("apcc_trace_truncated_total", "counter", "Traces that hit the per-trace span cap.", float64(rs.Truncated))

	if s.store != nil {
		st := s.store.Stats()
		scalar("apcc_store_objects", "gauge", "Objects in the disk store.", float64(st.Objects))
		scalar("apcc_store_refs", "gauge", "Named refs in the disk store.", float64(st.Refs))
		scalar("apcc_store_warm_restores_total", "counter",
			"Entries restored from the store without packing.", float64(m.StoreWarm.Load()))
		scalar("apcc_store_persists_total", "counter", "Containers persisted to the store.", float64(m.StorePersists.Load()))
		scalar("apcc_store_put_bytes_total", "counter", "Bytes written to the store.", float64(st.PutBytes))
		scalar("apcc_store_quarantined_total", "counter", "Objects quarantined as corrupt.", float64(st.Quarantined))
	}

	sink.family("apcc_block_serve_seconds", "histogram", "End-to-end block serve latency by codec.")
	for _, name := range m.codecNames() {
		sink.histogram("apcc_block_serve_seconds", []obs.Label{{Name: "codec", Value: name}}, m.CodecHist(name))
	}
	sink.family("apcc_block_stage_seconds", "histogram",
		"Per-stage exclusive latency of block serving, attributed by stage, codec and outcome.")
	for _, k := range m.stageKeys() {
		sink.histogram("apcc_block_stage_seconds", []obs.Label{
			{Name: "stage", Value: k.Stage},
			{Name: "codec", Value: k.Codec},
			{Name: "outcome", Value: k.Outcome},
		}, m.StageHist(k.Stage, k.Codec, k.Outcome))
	}
}
