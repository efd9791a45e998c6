package service

import (
	"io"
	"time"

	"apbcc/internal/faults"
	"apbcc/internal/obs"
	"apbcc/internal/pack"
	"apbcc/internal/store"
)

// promBounds is histBounds in seconds, the unit Prometheus histograms
// expose.
var promBounds = func() []float64 {
	out := make([]float64, len(histBounds))
	for i, b := range histBounds {
		out[i] = b.Seconds()
	}
	return out
}()

// WriteProm renders every service counter and histogram as Prometheus
// text exposition (version 0.0.4): the same data /metrics shows as
// tables, plus the per-stage attribution histograms
// apcc_block_stage_seconds{stage,codec,outcome} the tracing layer
// feeds. st and rec may be nil (no store / tracing disabled); their
// families are omitted or zero. Family names are fixed at compile
// time, so scrape configs survive restarts (pinned by
// TestPromNamesStableAcrossRestarts).
func (m *Metrics) WriteProm(w io.Writer, cache CacheStats, pool PoolStats, st *store.Stats, ver pack.VerifyStats, rec *obs.Recorder) error {
	p := obs.NewPromWriter(w)

	p.Family("apcc_uptime_seconds", "gauge", "Seconds since the server started.")
	p.Sample("apcc_uptime_seconds", nil, time.Since(m.start).Seconds())
	p.Family("apcc_http_requests_total", "counter", "HTTP requests received.")
	p.Sample("apcc_http_requests_total", nil, float64(m.Requests.Load()))
	p.Family("apcc_http_errors_total", "counter", "HTTP responses with status >= 400.")
	p.Sample("apcc_http_errors_total", nil, float64(m.Errors.Load()))
	p.Family("apcc_http_in_flight", "gauge", "HTTP requests currently being handled.")
	p.Sample("apcc_http_in_flight", nil, float64(m.InFlight.Load()))
	p.Family("apcc_packs_built_total", "counter", "Containers built (not cached re-serves).")
	p.Sample("apcc_packs_built_total", nil, float64(m.Packs.Load()))
	p.Family("apcc_blocks_served_total", "counter", "Block fetches served.")
	p.Sample("apcc_blocks_served_total", nil, float64(m.Blocks.Load()))
	p.Family("apcc_payload_bytes_total", "counter", "Payload bytes written to clients.")
	p.Sample("apcc_payload_bytes_total", nil, float64(m.BytesSent.Load()))
	p.Family("apcc_word_reads_total", "counter",
		"Word-span reads served, by source (store = v3 group directory, memory = resident container decode).")
	p.Sample("apcc_word_reads_total", []obs.Label{{Name: "source", Value: "store"}}, float64(m.StoreWordReads.Load()))
	p.Sample("apcc_word_reads_total", []obs.Label{{Name: "source", Value: "memory"}}, float64(m.WordFallbacks.Load()))

	p.Family("apcc_cache_events_total", "counter", "Block-cache events by kind.")
	for _, e := range []struct {
		kind string
		v    int64
	}{
		{"hit", cache.Hits}, {"miss", cache.Misses},
		{"coalesced", cache.Coalesced}, {"wait_abort", cache.WaitAborts},
		{"eviction", cache.Evictions},
	} {
		p.Sample("apcc_cache_events_total", []obs.Label{{Name: "event", Value: e.kind}}, float64(e.v))
	}
	p.Family("apcc_cache_entries", "gauge", "Resident block-cache entries.")
	p.Sample("apcc_cache_entries", nil, float64(cache.Entries))
	p.Family("apcc_cache_bytes", "gauge", "Resident block-cache bytes.")
	p.Sample("apcc_cache_bytes", nil, float64(cache.Bytes))

	p.Family("apcc_pool_workers", "gauge", "Worker-pool size.")
	p.Sample("apcc_pool_workers", nil, float64(pool.Workers))
	p.Family("apcc_pool_jobs_total", "counter", "Worker-pool jobs by state.")
	p.Sample("apcc_pool_jobs_total", []obs.Label{{Name: "state", Value: "submitted"}}, float64(pool.Submitted))
	p.Sample("apcc_pool_jobs_total", []obs.Label{{Name: "state", Value: "completed"}}, float64(pool.Completed))
	p.Family("apcc_pool_batches_total", "counter", "Worker wakeups (Completed/Batches = mean batch).")
	p.Sample("apcc_pool_batches_total", nil, float64(pool.Batches))
	p.Family("apcc_pool_in_flight", "gauge", "Jobs submitted but not finished.")
	p.Sample("apcc_pool_in_flight", nil, float64(pool.InFlight))

	p.Family("apcc_verify_unpacks_total", "counter",
		"Container verification unpacks by mode (reused = cached skeleton fast path).")
	p.Sample("apcc_verify_unpacks_total", []obs.Label{{Name: "mode", Value: "full"}}, float64(ver.Full))
	p.Sample("apcc_verify_unpacks_total", []obs.Label{{Name: "mode", Value: "reused"}}, float64(ver.Reused))
	p.Family("apcc_verify_unpack_seconds_total", "counter",
		"Cumulative seconds spent in verification unpacks.")
	p.Sample("apcc_verify_unpack_seconds_total", nil, time.Duration(ver.NS).Seconds())

	p.Family("apcc_shed_total", "counter",
		"Requests rejected 429 by queue-depth admission control.")
	p.Sample("apcc_shed_total", nil, float64(m.Shed.Load()))
	p.Family("apcc_faults_injected_total", "counter",
		"Failpoint activations by site and action kind (zero when fault injection is disabled).")
	for _, site := range faults.Snapshot() {
		for _, kind := range []string{faults.KindLatency, faults.KindTransient, faults.KindBitFlip} {
			p.Sample("apcc_faults_injected_total", []obs.Label{
				{Name: "site", Value: site.Name},
				{Name: "kind", Value: kind},
			}, float64(site.Injected[kind]))
		}
	}

	rs := rec.Stats()
	p.Family("apcc_trace_records_total", "counter", "Request traces recorded to the ring buffer.")
	p.Sample("apcc_trace_records_total", nil, float64(rs.Recorded))
	p.Family("apcc_trace_truncated_total", "counter", "Traces that hit the per-trace span cap.")
	p.Sample("apcc_trace_truncated_total", nil, float64(rs.Truncated))

	if st != nil {
		p.Family("apcc_store_objects", "gauge", "Objects in the disk store.")
		p.Sample("apcc_store_objects", nil, float64(st.Objects))
		p.Family("apcc_store_refs", "gauge", "Named refs in the disk store.")
		p.Sample("apcc_store_refs", nil, float64(st.Refs))
		p.Family("apcc_store_warm_restores_total", "counter", "Entries restored from the store without packing.")
		p.Sample("apcc_store_warm_restores_total", nil, float64(m.StoreWarm.Load()))
		p.Family("apcc_store_persists_total", "counter", "Containers persisted to the store.")
		p.Sample("apcc_store_persists_total", nil, float64(m.StorePersists.Load()))
		p.Family("apcc_store_word_reads_total", "counter", "Word-group reads through store objects' group directories.")
		p.Sample("apcc_store_word_reads_total", nil, float64(st.WordReads))
		p.Family("apcc_store_word_read_bytes_total", "counter", "Compressed bytes read by word-group reads.")
		p.Sample("apcc_store_word_read_bytes_total", nil, float64(st.WordReadBytes))
		p.Family("apcc_store_put_bytes_total", "counter", "Bytes written to the store.")
		p.Sample("apcc_store_put_bytes_total", nil, float64(st.PutBytes))
		p.Family("apcc_store_quarantined_total", "counter", "Objects quarantined as corrupt.")
		p.Sample("apcc_store_quarantined_total", nil, float64(st.Quarantined))
	}

	p.Family("apcc_block_serve_seconds", "histogram",
		"End-to-end block serve latency by codec.")
	for _, name := range m.codecNames() {
		m.promHistogram(p, "apcc_block_serve_seconds",
			[]obs.Label{{Name: "codec", Value: name}}, m.CodecHist(name))
	}

	p.Family("apcc_block_stage_seconds", "histogram",
		"Per-stage exclusive latency of block serving, attributed by stage, codec and outcome.")
	for _, k := range m.stageKeys() {
		m.promHistogram(p, "apcc_block_stage_seconds", []obs.Label{
			{Name: "stage", Value: k.Stage},
			{Name: "codec", Value: k.Codec},
			{Name: "outcome", Value: k.Outcome},
		}, m.StageHist(k.Stage, k.Codec, k.Outcome))
	}

	return p.Err()
}

func (m *Metrics) promHistogram(p *obs.PromWriter, name string, labels []obs.Label, h *Histogram) {
	cum, sumNS := h.snapshot()
	p.Histogram(name, labels, promBounds, cum[:len(histBounds)],
		time.Duration(sumNS).Seconds(), cum[numBuckets-1])
}
