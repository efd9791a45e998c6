package service

import (
	"io"
	"time"

	"apbcc/internal/faults"
	"apbcc/internal/obs"
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
// feeds. mem is the built entries' memory by codec. st and rec may be
// nil (no store / tracing disabled); their families are omitted or
// zero. Family names are fixed at compile time, so scrape configs
// survive restarts (pinned by TestPromNamesStableAcrossRestarts).
func (m *Metrics) WriteProm(w io.Writer, mem []EntryMemory, pool PoolStats, st *store.Stats, rec *obs.Recorder) error {
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
	p.Family("apcc_word_reads_total", "counter", "Word-span reads served, each decoded from the resident container.")
	p.Sample("apcc_word_reads_total", nil, float64(m.WordReads.Load()))
	p.Family("apcc_word_groups_decoded_total", "counter",
		"Word groups decoded by word reads through a group directory (whole-block decodes add none).")
	p.Sample("apcc_word_groups_decoded_total", nil, float64(m.WordGroups.Load()))
	p.Family("apcc_word_decoded_bytes_total", "counter",
		"Compressed bytes decoded by word reads: the covering groups, or the whole payload without a group directory.")
	p.Sample("apcc_word_decoded_bytes_total", nil, float64(m.WordDecodedBytes.Load()))

	p.Family("apcc_entry_resident_bytes", "gauge",
		"Memory built entries hold, by codec: container capacity plus layout and group-offset tables.")
	for _, e := range mem {
		p.Sample("apcc_entry_resident_bytes", []obs.Label{{Name: "codec", Value: e.Codec}}, float64(e.Resident))
	}
	p.Family("apcc_entry_plain_bytes", "gauge", "Plain code bytes the built entries' containers encode, by codec.")
	for _, e := range mem {
		p.Sample("apcc_entry_plain_bytes", []obs.Label{{Name: "codec", Value: e.Codec}}, float64(e.Plain))
	}

	p.Family("apcc_pool_workers", "gauge", "Worker-pool size.")
	p.Sample("apcc_pool_workers", nil, float64(pool.Workers))
	p.Family("apcc_pool_jobs_total", "counter", "Worker-pool jobs by state.")
	p.Sample("apcc_pool_jobs_total", []obs.Label{{Name: "state", Value: "submitted"}}, float64(pool.Submitted))
	p.Sample("apcc_pool_jobs_total", []obs.Label{{Name: "state", Value: "completed"}}, float64(pool.Completed))
	p.Family("apcc_pool_in_flight", "gauge", "Jobs submitted but not finished.")
	p.Sample("apcc_pool_in_flight", nil, float64(pool.InFlight))

	p.Family("apcc_verify_unpacks_total", "counter",
		"Container verification unpacks (one pack.Unpack per build and per warm restore).")
	p.Sample("apcc_verify_unpacks_total", nil, float64(m.VerifyUnpacks.Load()))
	p.Family("apcc_verify_unpack_seconds_total", "counter",
		"Cumulative seconds spent in verification unpacks.")
	p.Sample("apcc_verify_unpack_seconds_total", nil, time.Duration(m.VerifyNS.Load()).Seconds())

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
