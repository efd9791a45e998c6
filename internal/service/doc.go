// Package service is the concurrent pack-serving subsystem: an HTTP
// service that packs workloads and assembled programs into APCC
// containers on demand and serves whole containers as well as
// individual compressed basic blocks to fleets of devices. It is the
// delivery side only: the server hands out the compressed blocks a
// device asks for and makes that path fast at fleet scale. The paper's
// on-demand/predictive decompression loop (which blocks to fetch,
// decompress ahead or drop) is not modeled on the device yet: every
// internal/loadgen device fetches each block its trace visits, and
// checks its bytes.
//
// The subsystem is built from three pieces:
//
//   - a slot gate bounding concurrent pack and compress jobs
//     (pool.go). Each job runs on the goroutine that submits it once
//     one of Config.Workers slots is free; when the jobs waiting for a
//     slot reach Config.QueueDepth, /v1/ requests are shed with 429.
//
//   - the HTTP server itself (server.go), stdlib net/http only. Every
//     container built is round-tripped through pack.Unpack before it is
//     ever served, so the whole-image checksum is verified on the
//     serving path, not just trusted from the packer. That verified
//     container is the entry's only copy of its code, and nothing else
//     holds its bytes: a block response is the block's payload slice of
//     it, and a word read (?word=W&words=N) decodes its span from it —
//     only the covering word groups when the container has a v3 group
//     directory, the whole block otherwise. Both find the block through
//     the pack.Layout that the same Unpack read the index into and
//     returned in its Info. /metrics and /metrics/prom
//     report the entries' resident and plain bytes by codec.
//
//   - an optional disk tier (Config.StoreDir, internal/store): a
//     content-addressed container store. Built containers are
//     persisted asynchronously, and a restarted server restores
//     previously-built (workload, codec) entries from disk without
//     invoking the packer. No request reads it, and no entry holds a
//     store object open.
//
// Endpoints:
//
//	GET  /healthz                          liveness probe
//	GET  /metrics[?format=csv]             every family as two tables: metrics, latency
//	GET  /metrics/prom                     the same families as Prometheus text exposition
//	GET  /debug/trace?n=N                  recent request traces and slowest exemplars (JSON)
//	GET  /v1/workloads                     the synthetic suite
//	GET  /v1/codecs                        registered codecs
//	GET  /v1/pack/{workload}?codec=dict    whole verified container
//	POST /v1/pack?name=N&codec=C           pack ERI32 assembly from the request body
//	GET  /v1/block/{workload}/{id}?codec=C one compressed block + metadata headers
//	     ...&word=W&words=N                 plain bytes of a word span of the block
//
// Server.writeMetrics declares every metric family once. /metrics
// renders it through internal/report, in the same table/CSV dialect as
// the rest of the repo, with each row named by its Prometheus series;
// /metrics/prom renders it through obs.PromWriter.
package service
