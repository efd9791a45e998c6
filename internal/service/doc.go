// Package service is the concurrent pack-serving subsystem: an HTTP
// service that packs workloads and assembled programs into APCC
// containers on demand and serves whole containers as well as
// individual compressed basic blocks to fleets of devices. It lifts the
// paper's on-demand/predictive decompression loop from one simulated
// core to the network: a device under memory pressure fetches exactly
// the compressed blocks its access pattern touches, and the server's
// job is to make that path fast at fleet scale.
//
// The subsystem is built from five pieces:
//
//   - a sharded, content-addressed block cache (cache.go). Keys are
//     SHA-256 over codec name, serialized codec model and the plain
//     block image, so identical blocks compressed under identical
//     models are served from cache regardless of which workload or
//     request produced them. Each shard carries its own lock, its own
//     instance of a pluggable replacement policy (internal/policy;
//     LRU by default, cost-aware and LFU selectable via Config.Policy)
//     and an in-flight table providing singleflight-style duplicate
//     suppression: concurrent misses on one key run the miss compute
//     once. A miss compresses nothing: it slices the block's payload
//     out of the entry's resident container.
//
//   - a bounded worker pool with request batching (pool.go). Pack and
//     compress jobs are queued; a worker that wakes for one job drains
//     up to its batch limit before sleeping again, amortizing
//     scheduling overhead under load while the queue bound provides
//     backpressure.
//
//   - the HTTP server itself (server.go), stdlib net/http only. Every
//     container built is round-tripped through pack.Unpack before it is
//     ever served, so the whole-image checksum is verified on the
//     serving path, not just trusted from the packer. That verified
//     container is the entry's only copy of its code.
//
//   - an optional disk tier (Config.StoreDir, internal/store): a
//     content-addressed container store. Built containers are
//     persisted asynchronously; word reads go through a stored
//     container's v3 group directory, their disk bytes cross-checked
//     against the resident container; and a restarted server restores
//     previously-built (workload, codec) entries from disk without
//     invoking the packer. Block reads never touch it.
//
//   - a load generator (loadgen.go) that replays internal/trace access
//     patterns as HTTP block fetches from N concurrent simulated
//     devices, decompressing and verifying every payload it receives;
//     RunColdWarm is the restart scenario quantifying what the disk
//     tier saves.
//
// Endpoints:
//
//	GET  /healthz                          liveness probe
//	GET  /metrics[?format=csv]             cache hit rate, in-flight, per-codec latency
//	GET  /v1/workloads                     the synthetic suite
//	GET  /v1/codecs                        registered codecs
//	GET  /v1/pack/{workload}?codec=dict    whole verified container
//	POST /v1/pack?name=N&codec=C           pack ERI32 assembly from the request body
//	GET  /v1/block/{workload}/{id}?codec=C one compressed block + metadata headers
//
// Metrics are rendered through internal/report so the service speaks
// the same table/CSV dialect as the rest of the repo.
package service
