package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/errclass"
	"apbcc/internal/faults"
	"apbcc/internal/isa"
	"apbcc/internal/obs"
	"apbcc/internal/pack"
	"apbcc/internal/program"
	"apbcc/internal/report"
	"apbcc/internal/store"
	"apbcc/internal/workloads"
)

// Response headers carrying block metadata to the fetching device.
const (
	HeaderCodec = "X-Apcc-Codec" // codec the payload was compressed with
	HeaderWords = "X-Apcc-Words" // plain size in ERI32 words
	HeaderCRC   = "X-Apcc-Crc32" // IEEE CRC-32 of the plain block image
	HeaderCache = "X-Apcc-Cache" // hit | miss; "bypass" on word reads
	// HeaderWord and HeaderSource are set only on word-read responses
	// (?word=W&words=N): the span's first word index, and whether the
	// bytes came through the store's v3 group directory ("store") or by
	// decoding the entry's resident container ("memory").
	HeaderWord   = "X-Apcc-Word"
	HeaderSource = "X-Apcc-Source"
	// HeaderTrace and HeaderStages are only set when tracing is enabled:
	// the request's trace id (correlate with /debug/trace) and its
	// per-stage exclusive nanoseconds as "stage:ns;..." — everything but
	// the response write, which is still open when headers go out.
	HeaderTrace  = "X-Apcc-Trace"
	HeaderStages = "X-Apcc-Stages"
)

// maxAsmBody bounds POST /v1/pack request bodies.
const maxAsmBody = 1 << 20

// faultCacheCompute injects latency or transient errors into the L1
// miss compute, ahead of the container slice.
var faultCacheCompute = faults.Register("service.cache-compute")

// Config sizes the serving subsystem. Zero values select defaults.
type Config struct {
	// CacheShards is the block-cache shard count (default 16).
	CacheShards int
	// CacheBytes is the total block-cache capacity, split evenly across
	// shards (default 32 MiB).
	CacheBytes int
	// Workers is the pack/compress worker-pool size (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pool's job queue (default 256).
	QueueDepth int
	// MaxBatch is the pool's per-wakeup batch limit (default 8).
	MaxBatch int
	// Policy names the block-cache replacement policy (policy.Names);
	// empty selects "klru", which with expiry disabled is plain LRU.
	// "cost-aware" keeps blocks that are expensive to recompress
	// resident longer (GreedyDual-Size over the codec cost model).
	Policy string
	// StoreDir, when non-empty, roots the content-addressed disk store:
	// built containers are persisted there asynchronously, word reads
	// go through the stored object's group directory, and a restart
	// against a warm store serves previously-built containers without
	// re-packing. Block reads never touch it: they are slices of the
	// entry's resident container.
	StoreDir string
	// TraceRing is the capacity of the completed-request trace ring
	// behind GET /debug/trace. 0 selects the default of 256; negative
	// disables tracing entirely, leaving block serving on the nil-sink
	// fast path (no clock reads, no allocations).
	TraceRing int
	// TraceExemplars is how many slowest-request traces survive ring
	// recycling as exemplars (default 8). Only meaningful with tracing
	// enabled.
	TraceExemplars int
	// RequestTimeout is the per-request deadline applied by the
	// instrumented handler: the request context is cancelled when it
	// expires, which aborts coalesced cache waits, entry-build waits
	// and queued pool work, and the client gets 504. 0 disables
	// (default).
	RequestTimeout time.Duration
	// ShedDepth is the pool backlog (queued, unstarted jobs) at which
	// the admission controller sheds /v1/ requests with 429 and
	// Retry-After instead of letting them block on a saturated queue.
	// 0 selects the pool's queue depth; negative disables shedding.
	ShedDepth int
	// DebugFaults mounts the fault-injection control endpoint
	// (GET/POST /debug/faults) on the serving mux. Off by default:
	// unlike /debug/trace, the endpoint mutates process-global fault
	// state, so an unauthenticated client could fail every store read
	// and quarantine healthy objects with one request. Enable it only
	// on chaos/debug deployments (apcc-serve arms it via -debug-faults,
	// or implicitly when -faults is given).
	DebugFaults bool
	// Log receives the server's structured events (request debug lines,
	// quarantines, eviction storms). nil discards everything.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 32 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	if c.TraceRing < 0 {
		c.TraceRing = 0
	}
	if c.TraceExemplars <= 0 {
		c.TraceExemplars = 8
	}
	if c.ShedDepth == 0 {
		c.ShedDepth = c.QueueDepth
	}
	if c.ShedDepth < 0 {
		c.ShedDepth = 0
	}
	if c.Log == nil {
		c.Log = obs.Discard
	}
	return c
}

// Server is the pack-serving subsystem: container and block endpoints
// in front of the sharded L1 block cache, the batching worker pool,
// and (when configured) the content-addressed disk store.
type Server struct {
	cache   *BlockCache
	pool    *Pool
	metrics *Metrics
	store   *store.Store // nil when no StoreDir was configured
	handler http.Handler
	rec     *obs.Recorder // nil when tracing is disabled
	log     *slog.Logger  // never nil (obs.Discard by default)

	timeout   time.Duration // per-request deadline (0 = none)
	shedDepth int           // pool backlog that triggers 429 shedding (0 = off)
	draining  atomic.Bool   // BeginDrain was called; /healthz reports 503

	mu      sync.Mutex
	entries map[string]*entry
	closing bool // no new persists may start once set

	// unp re-verifies containers through pack's streaming Unpacker:
	// repeated verification of an unchanged container (idempotent
	// POST /v1/pack retries, warm restores of a container another
	// entry already proved) skips the parse-and-rebuild and runs only
	// the decode+CRC pass. Guarded by unpMu; results are read-only and
	// never recycled, so entries may keep them.
	unpMu sync.Mutex
	unp   *pack.Unpacker

	persistWG sync.WaitGroup // in-flight async store persists

	workloadsOnce  sync.Once
	workloadsTable string
	workloadsErr   error
}

// entry is one built (workload, codec) container, ready to serve. It is
// constructed once per key: later requesters wait on ready.
type entry struct {
	ready chan struct{}
	err   error

	// container is the verified container and the entry's only copy of
	// its code: block responses are slices of it, and word reads decode
	// from it when the store cannot serve them.
	container []byte
	codec     compress.Codec
	blocks    []blockLoc // per-block layout, copied out of the container's index
	keys      []string   // per-block content addresses, precomputed
	hist      *Histogram // latency histogram for this entry's codec

	// obj is the entry's open store object, which word reads go through.
	// Set asynchronously after a cold build persists (or immediately on
	// a warm restore); nil when no store is configured or the object
	// went corrupt and was detached.
	obj atomic.Pointer[store.Object]
}

// blockLoc is one block's row of an entry's layout table: where its
// payload sits in the container and what its response advertises. The
// table holds only these four words per block because a parsed
// pack.Index per entry would cost more heap than keeping every block's
// plain image.
type blockLoc struct {
	off, len uint32 // payload byte range within the container
	crc      uint32 // IEEE CRC-32 of the plain block image
	words    uint32 // plain size in ERI32 words
}

// payload returns block id's compressed payload: a zero-copy slice of
// the container, capped so no append can write into it.
func (e *entry) payload(id int) []byte {
	b := e.blocks[id]
	return e.container[b.off : b.off+b.len : b.off+b.len]
}

// New builds a Server. Call Close when done to stop the worker pool.
// An unknown Config.Policy falls back to the LRU default (use
// policy.Names to validate user input first). The only error source is
// opening Config.StoreDir.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := NewBlockCachePolicy(cfg.CacheShards, cfg.CacheBytes/cfg.CacheShards, cfg.Policy)
	if err != nil {
		cache = NewBlockCache(cfg.CacheShards, cfg.CacheBytes/cfg.CacheShards)
	}
	s := &Server{
		cache:     cache,
		pool:      NewPool(cfg.Workers, cfg.QueueDepth, cfg.MaxBatch),
		metrics:   NewMetrics(),
		entries:   make(map[string]*entry),
		unp:       pack.NewUnpacker(),
		log:       cfg.Log,
		timeout:   cfg.RequestTimeout,
		shedDepth: cfg.ShedDepth,
	}
	if cfg.TraceRing > 0 {
		s.rec = obs.NewRecorder(cfg.TraceRing, cfg.TraceExemplars)
	}
	cache.SetEvictionStormFn(func(key string, evicted int) {
		s.log.Warn("cache eviction storm: one insert displaced many residents",
			"key", shortKey(key), "evicted", evicted)
	})
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			s.pool.Close()
			return nil, err
		}
		s.store = st
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics/prom", s.handleMetricsProm)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	if cfg.DebugFaults {
		mux.Handle("/debug/faults", faults.Handler())
	}
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/codecs", s.handleCodecs)
	mux.HandleFunc("GET /v1/pack/{workload}", s.handlePackWorkload)
	mux.HandleFunc("POST /v1/pack", s.handlePackAsm)
	mux.HandleFunc("GET /v1/block/{workload}/{id}", s.handleBlock)
	s.handler = s.instrument(mux)
	return s, nil
}

// Handler returns the instrumented HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Close waits for in-flight store persists, stops the worker pool
// (draining queued jobs), and releases open store objects.
func (s *Server) Close() {
	// Flip closing under the same lock persistAsync uses for Add, so no
	// Add can race the Wait below on a drained counter (sync.WaitGroup
	// forbids Add concurrent with Wait at zero).
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.persistWG.Wait()
	s.pool.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ent := range s.entries {
		if obj := ent.obj.Swap(nil); obj != nil {
			obj.Close()
		}
	}
}

// Store exposes the disk store (nil when not configured); tests and
// operational tooling inspect it directly.
func (s *Server) Store() *store.Store { return s.store }

// Metrics exposes the server's counters (for in-process inspection and
// tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheStats exposes the block cache aggregate.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// BeginDrain flips the server into draining mode: /healthz starts
// reporting 503 so load balancers stop routing here, while in-flight
// and new requests still complete. Call before http.Server.Shutdown.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.log.Info("drain started: /healthz now reports 503")
	}
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// instrument wraps the mux with request/error/in-flight accounting,
// queue-depth admission control (shed with 429 + Retry-After instead
// of blocking on a saturated pool), and the per-request deadline.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Requests.Add(1)
		s.metrics.InFlight.Add(1)
		defer s.metrics.InFlight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec.status >= 400 {
				s.metrics.Errors.Add(1)
			}
			s.metrics.BytesSent.Add(rec.bytes)
		}()
		// Shed serving-path requests while the pool backlog is at the
		// configured depth: a request admitted now would only block on
		// the full queue. Health, metrics, and debug endpoints are
		// never shed — operators need them most during overload.
		if s.shedDepth > 0 && strings.HasPrefix(r.URL.Path, "/v1/") &&
			s.pool.Backlog() >= int64(s.shedDepth) {
			s.metrics.Shed.Add(1)
			rec.Header().Set("Retry-After", "1")
			http.Error(rec, "server overloaded: worker queue saturated", http.StatusTooManyRequests)
			return
		}
		if s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(rec, r)
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	csv := r.URL.Query().Get("format") == "csv"
	if csv {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	var st *store.Stats
	if s.store != nil {
		ss := s.store.Stats()
		st = &ss
	}
	s.metrics.WriteTables(w, s.cache.Stats(), s.pool.Stats(), st, csv)
}

// handleMetricsProm serves the same counters as /metrics, plus the
// per-stage attribution histograms, in Prometheus text exposition.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var st *store.Stats
	if s.store != nil {
		ss := s.store.Stats()
		st = &ss
	}
	s.metrics.WriteProm(w, s.cache.Stats(), s.pool.Stats(), st, s.unp.Stats(), s.rec)
}

// handleTrace dumps the trace ring as JSON: the n most recent request
// traces (default 100) plus the slowest-K exemplars.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		http.Error(w, "tracing disabled (Config.TraceRing < 0)", http.StatusNotFound)
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, fmt.Sprintf("bad n %q", q), http.StatusBadRequest)
			return
		}
		n = v
	}
	d := obs.Dump{Traces: s.rec.Snapshot(n), Exemplars: s.rec.Exemplars()}
	if d.Traces == nil {
		d.Traces = []obs.Record{}
	}
	if d.Exemplars == nil {
		d.Exemplars = []obs.Record{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(d)
}

// shortKey truncates a content address for log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	// The suite is deterministic; synthesize and render it once.
	s.workloadsOnce.Do(func() {
		suite, err := workloads.Suite()
		if err != nil {
			s.workloadsErr = err
			return
		}
		t := report.NewTable("workloads", "name", "blocks", "bytes", "desc")
		for _, wl := range suite {
			t.AddRow(wl.Name, wl.Program.Graph.NumBlocks(), wl.Program.TotalBytes(), wl.Desc)
		}
		s.workloadsTable = t.String()
	})
	if s.workloadsErr != nil {
		http.Error(w, s.workloadsErr.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, s.workloadsTable)
}

func (s *Server) handleCodecs(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, strings.Join(compress.Names(), "\n")+"\n")
}

func (s *Server) handlePackWorkload(w http.ResponseWriter, r *http.Request) {
	ent, status, err := s.entryFor(r.Context(), r.PathValue("workload"), codecParam(r))
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderCodec, ent.codec.Name())
	w.Write(ent.container)
}

func (s *Server) handlePackAsm(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "posted"
	}
	src, err := io.ReadAll(io.LimitReader(r.Body, maxAsmBody+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(src) > maxAsmBody {
		http.Error(w, "assembly source too large", http.StatusRequestEntityTooLarge)
		return
	}
	// Parse and validate outside the pool so client mistakes are cheap
	// 400s and never queue behind real work.
	if err := checkCodec(codecParam(r)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p, err := program.FromAssembly(name, string(src))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var container []byte
	err = s.pool.Do(r.Context(), func() error {
		var perr error
		container, _, _, perr = s.buildContainer(p, codecParam(r))
		return perr
	})
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	s.metrics.Packs.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(container)
}

func (s *Server) handleBlock(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// With tracing disabled (nil recorder) tr is nil and every obs call
	// below is a free no-op: the hot path costs what it did untraced
	// (pinned by BenchmarkBlockSource l1-hit and TestTracedPathAllocs).
	tr := s.rec.StartTrace()
	rsp := tr.Begin(obs.StageRoute)
	ctx := obs.WithTrace(r.Context(), tr)
	ent, status, err := s.entryFor(ctx, r.PathValue("workload"), codecParam(r))
	if err != nil {
		rsp.End(obs.OutcomeError)
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, err.Error(), status)
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= len(ent.blocks) {
		rsp.End(obs.OutcomeError)
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, fmt.Sprintf("no block %q (%d blocks)", r.PathValue("id"), len(ent.blocks)),
			http.StatusNotFound)
		return
	}
	tr.SetLabels(r.PathValue("workload"), ent.codec.Name(), id)
	if r.URL.Query().Get("word") != "" {
		s.serveWordRange(ctx, w, r, tr, rsp, ent, id)
		return
	}
	blk := ent.blocks[id]
	// Cost-aware replacement weighs the block's modeled compression
	// cost against its bytes.
	missCost := ent.codec.Cost().CompressCycles(int(blk.words) * isa.WordSize)
	compute := func() ([]byte, int64, error) {
		if err := faultCacheCompute.Err(); err != nil {
			return nil, 0, err
		}
		return ent.payload(id), missCost, nil
	}
	// The closure allocation above stays inside the route span so the
	// hand-off to the cache leaves only call overhead unattributed.
	rsp.End(obs.OutcomeOK)
	payload, hit, err := s.cache.GetOrComputeCost(ctx, ent.keys[id], compute)
	if err != nil {
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	if ctx.Err() != nil {
		// The deadline fired while the compute ran (an injected stall);
		// don't start a response write the client already gave up on.
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, ctx.Err().Error(), statusFor(ctx.Err()))
		return
	}
	outcome := obs.OutcomeMiss
	if hit {
		outcome = obs.OutcomeHit
	}
	// The write span opens before the metric and header work so almost
	// all handler time lives inside some span: summed exclusive times
	// then track the trace's end-to-end total (asserted within 10% by
	// the e2e test).
	wsp := tr.Begin(obs.StageWrite)
	s.metrics.Blocks.Add(1)
	ent.hist.Observe(time.Since(start))
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderCodec, ent.codec.Name())
	h.Set(HeaderWords, strconv.Itoa(int(blk.words)))
	h.Set(HeaderCRC, fmt.Sprintf("%08x", blk.crc))
	h.Set(HeaderCache, outcome)
	if tr != nil {
		h.Set(HeaderTrace, strconv.FormatUint(tr.TraceID(), 10))
		h.Set(HeaderStages, stagesHeader(tr.Spans()))
	}
	w.Write(payload)
	wsp.End(obs.OutcomeOK)
	s.finishTrace(tr, outcome)
}

// wordReadCompGuess pre-sizes the pooled compressed-bytes buffer for a
// word read: small spans cover a handful of groups, far below one
// block's payload.
const wordReadCompGuess = 4 << 10

// errWordMismatch marks a store word read whose compressed group bytes
// differ from the entry's verified container.
var errWordMismatch = errors.New("word groups read from the store differ from the entry's container")

// serveWordRange handles ?word=W&words=N on the block endpoint — the
// sub-block serving path. The response is the span's *plain* bytes
// (N×4), not a compressed payload: a word read exists precisely so the
// client skips its own full-block decode. The read prefers the store's
// v3 group directory (a bounded ReadAt plus per-group decode, traced
// as l2-word-read) and cross-checks the group bytes it read against
// the entry's container — a partial decode has no CRC of its own, so
// the container is the integrity authority, and a mismatch quarantines
// the object before the span is decoded from memory instead. Word
// reads never touch the L1 block cache in either direction: the cache
// holds whole compressed blocks for full-block serving, and letting
// sub-block probes admit or promote entries would let a word-scanning
// client evict the real working set (pinned by
// TestWordReadDoesNotTouchL1).
func (s *Server) serveWordRange(ctx context.Context, w http.ResponseWriter, r *http.Request, tr *obs.Trace, rsp obs.SpanHandle, ent *entry, id int) {
	q := r.URL.Query()
	word, err := strconv.Atoi(q.Get("word"))
	nwords := 1
	if err == nil {
		if ws := q.Get("words"); ws != "" {
			nwords, err = strconv.Atoi(ws)
		}
	}
	blockWords := int(ent.blocks[id].words)
	if err != nil || word < 0 || nwords < 1 || word > blockWords-nwords {
		rsp.End(obs.OutcomeError)
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, fmt.Sprintf("bad word range word=%q words=%q (block %d has %d words)",
			q.Get("word"), q.Get("words"), id, blockWords), http.StatusBadRequest)
		return
	}
	rsp.End(obs.OutcomeOK)
	dst := compress.GetBuf(nwords * isa.WordSize)
	defer func() { compress.PutBuf(dst) }()
	span, fromStore := s.wordSpanFromStore(ctx, ent, id, word, nwords, dst[:0])
	source := "store"
	if fromStore {
		dst = span // recycle the (possibly grown) buffer
		s.metrics.StoreWordReads.Add(1)
	} else {
		// Fallback (v2 containers, non-group codecs, failed reads,
		// detached or absent objects): decode the resident payload.
		var err error
		if span, err = wordSpanFromMemory(ctx, ent, id, word, nwords, dst[:0]); err != nil {
			s.finishTrace(tr, obs.OutcomeError)
			http.Error(w, err.Error(), statusFor(err))
			return
		}
		dst = span
		source = "memory"
		s.metrics.WordFallbacks.Add(1)
	}
	s.metrics.WordReads.Add(1)
	wsp := tr.Begin(obs.StageWrite)
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderCodec, ent.codec.Name())
	h.Set(HeaderWords, strconv.Itoa(nwords))
	h.Set(HeaderWord, strconv.Itoa(word))
	h.Set(HeaderSource, source)
	h.Set(HeaderCRC, fmt.Sprintf("%08x", crc32.ChecksumIEEE(span)))
	h.Set(HeaderCache, "bypass")
	if tr != nil {
		h.Set(HeaderTrace, strconv.FormatUint(tr.TraceID(), 10))
		h.Set(HeaderStages, stagesHeader(tr.Spans()))
	}
	w.Write(span)
	wsp.End(obs.OutcomeOK)
	s.finishTrace(tr, obs.OutcomeOK)
}

// wordSpanFromStore reads [word, word+nwords) of block id through the
// entry's store object and its container's v3 group directory,
// appending the plain bytes to dst. It reports false — decode from the
// resident container instead — when there is no attached object, the
// container predates v3 or its codec cannot decode groups, or the read
// fails. Failed reads are triaged through errclass: only corrupt bytes
// — and any cross-check mismatch — detach and quarantine the object,
// because a store that cannot reproduce the entry's bytes must not
// serve anyone again. A transient hiccup, a dying context, or a benign
// miss (ErrNoGroupIndex) costs this request the store path, never the
// entry its healthy object.
func (s *Server) wordSpanFromStore(ctx context.Context, ent *entry, id, word, nwords int, dst []byte) ([]byte, bool) {
	obj := ent.obj.Load()
	if obj == nil || !obj.HasGroupIndex() {
		return dst, false
	}
	comp := compress.GetBuf(wordReadCompGuess)
	defer func() { compress.PutBuf(comp) }()
	var plain []byte
	comp, plain, err := obj.ReadWordRangeCtx(ctx, ent.codec, id, word, nwords, comp[:0], dst)
	if err != nil {
		if errclass.IsCorrupt(err) {
			s.detachObject(obs.FromContext(ctx), ent, obj, id, "word range read", err)
		}
		return dst, false
	}
	// A partial decode has no CRC of its own; the resident container is
	// the authority. attachObject proved the object's layout is the
	// container's, so the group bytes read from disk must equal the same
	// range of ent.container, and that range lies inside block id.
	start, _ := obj.Index().WordGroupSpan(id, word, nwords)
	off := int64(ent.blocks[id].off) + start
	if !bytes.Equal(comp, ent.container[off:off+int64(len(comp))]) {
		s.detachObject(obs.FromContext(ctx), ent, obj, id, "word range cross-check", errWordMismatch)
		return dst, false
	}
	return plain, true
}

// wordSpanFromMemory appends [word, word+nwords) of block id to dst by
// decoding the block's resident payload into pooled scratch. The
// container passed the full Unpack verification at build, so the
// decode needs no check of its own.
func wordSpanFromMemory(ctx context.Context, ent *entry, id, word, nwords int, dst []byte) ([]byte, error) {
	sp := obs.FromContext(ctx).Begin(obs.StageDecode)
	scratch := compress.GetBuf(int(ent.blocks[id].words) * isa.WordSize)
	defer func() { compress.PutBuf(scratch) }()
	plain, err := ent.codec.DecompressAppend(scratch[:0], ent.payload(id))
	if err != nil {
		sp.End(obs.OutcomeError)
		return dst, err
	}
	scratch = plain
	sp.End(obs.OutcomeOK)
	return append(dst, plain[word*isa.WordSize:(word+nwords)*isa.WordSize]...), nil
}

// detachObject quarantines a store object that failed verification and
// detaches it from the entry (first failure wins; later racers no-op),
// degrading that entry's word reads to the resident container instead
// of retrying corrupt disk forever.
func (s *Server) detachObject(tr *obs.Trace, ent *entry, obj *store.Object, block int, what string, err error) {
	if ent.obj.CompareAndSwap(obj, nil) {
		s.store.Quarantine(obj.Key())
		obj.Close()
		tr.Event(obs.StageQuarantine, obs.OutcomeCorrupt)
		s.log.Warn("store object quarantined, detaching from entry",
			"key", shortKey(obj.Key()), "block", block, "what", what, "err", err)
	}
}

// stagesHeader renders a trace's spans as "stage:exclNS;..." for the
// X-Apcc-Stages header. The write span is still open while the header
// is rendered, so it is omitted — /debug/trace has it.
func stagesHeader(spans []obs.Span) string {
	var sb strings.Builder
	for _, sp := range spans {
		if sp.Stage == obs.StageWrite {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(sp.Stage)
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatInt(sp.ExclNS, 10))
	}
	return sb.String()
}

// finishTrace stamps a completed request trace, attributes each span's
// exclusive time to the per-stage histograms, emits the per-request
// debug log line, and hands the trace to the ring. Nil trace no-ops.
func (s *Server) finishTrace(tr *obs.Trace, outcome string) {
	if tr == nil {
		return
	}
	tr.Finish(outcome)
	codec := tr.Codec
	if codec == "" {
		codec = "unknown" // request failed before the entry resolved
	}
	for _, sp := range tr.Spans() {
		s.metrics.StageHist(sp.Stage, codec, sp.Outcome).Observe(time.Duration(sp.ExclNS))
	}
	if s.log.Enabled(context.Background(), slog.LevelDebug) {
		s.log.Debug("block request",
			"trace", tr.TraceID(), "workload", tr.Workload, "codec", codec,
			"block", tr.Block, "outcome", outcome,
			"dur", time.Duration(tr.TotalNS))
	}
	s.rec.Record(tr)
}

// codecParam extracts the codec query parameter, defaulting to dict.
func codecParam(r *http.Request) string {
	if c := r.URL.Query().Get("codec"); c != "" {
		return c
	}
	return "dict"
}

// checkCodec validates a codec name against the registry without
// building or training anything.
func checkCodec(name string) error {
	if !compress.Registered(name) {
		return fmt.Errorf("%w %q (have %v)", compress.ErrUnknownCodec, name, compress.Names())
	}
	return nil
}

// entryFor returns the built container entry for (workload, codec),
// building it exactly once. The returned status is an HTTP status for
// err.
func (s *Server) entryFor(ctx context.Context, workload, codecName string) (*entry, int, error) {
	key := store.RefName(workload, codecName)
	s.mu.Lock()
	ent, ok := s.entries[key]
	if !ok {
		ent = &entry{ready: make(chan struct{})}
		s.entries[key] = ent
		s.mu.Unlock()
		bsp := obs.FromContext(ctx).Begin(obs.StageBuild)
		ent.err = s.build(ent, workload, codecName)
		if ent.err != nil {
			bsp.End(obs.OutcomeError)
		} else {
			bsp.End(obs.OutcomeOK)
		}
		if ent.err != nil {
			// Drop failed builds so errors are not cached forever and
			// bogus names cannot grow the map without bound.
			s.mu.Lock()
			delete(s.entries, key)
			s.mu.Unlock()
		}
		close(ent.ready)
	} else {
		s.mu.Unlock()
		select {
		case <-ent.ready:
		case <-ctx.Done():
			return nil, statusFor(ctx.Err()), ctx.Err()
		}
	}
	if ent.err != nil {
		return nil, statusFor(ent.err), ent.err
	}
	return ent, http.StatusOK, nil
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, workloads.ErrUnknown):
		return http.StatusNotFound
	case errors.Is(err, compress.ErrUnknownCodec):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		// The per-request deadline fired while we were working upstream.
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrPoolClosed), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errclass.IsTransient(err):
		// The client may retry; the resource is not (known to be) corrupt.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// build materializes the entry for (workload, codec): from the warm
// disk store when a previously-built container is available, otherwise
// by packing the workload and verifying the container by fully
// unpacking it — the served artifact has passed the image checksum,
// not just the packer's intent. Block responses are then slices of that
// verified container, so what devices fetch is exactly what survived
// verification. Freshly-built containers are persisted to the store
// asynchronously through the worker pool.
func (s *Server) build(ent *entry, workload, codecName string) error {
	wl, err := workloads.ByName(workload)
	if err != nil {
		return err
	}
	// Reject bad codec names before they occupy a pool slot.
	if err := checkCodec(codecName); err != nil {
		return err
	}
	if s.store != nil && s.restoreFromStore(ent, workload, codecName) {
		return nil
	}
	var (
		container []byte
		p         *program.Program
		codec     compress.Codec
	)
	err = s.pool.Do(context.Background(), func() error {
		var perr error
		container, p, codec, perr = s.buildContainer(wl.Program, codecName)
		return perr
	})
	if err != nil {
		return err
	}
	if err := s.finishEntry(ent, container, p, codec); err != nil {
		return err
	}
	s.metrics.Packs.Add(1)
	if s.store != nil {
		s.persistAsync(ent, store.RefName(workload, codecName), container)
	}
	return nil
}

// restoreFromStore is the warm-restart path: resolve the (workload,
// codec) ref, read and hash-verify the container, and Unpack it (the
// full image-checksum verification pass) — no packer involved. Any
// corruption quarantines the object and falls back to a cold build.
func (s *Server) restoreFromStore(ent *entry, workload, codecName string) bool {
	key, ok := s.store.Ref(store.RefName(workload, codecName))
	if !ok {
		return false
	}
	container, err := s.store.Get(key) // corrupt entries self-quarantine here
	if err != nil {
		return false
	}
	p, codec, _, err := s.verifyUnpack(workload, container)
	if err != nil {
		s.store.Quarantine(key)
		s.log.Warn("warm restore failed verification, object quarantined",
			"key", shortKey(key), "workload", workload, "codec", codecName, "err", err)
		return false
	}
	if err := s.finishEntry(ent, container, p, codec); err != nil {
		return false
	}
	if obj, err := s.store.Open(key); err == nil {
		s.attachObject(ent, obj)
	}
	s.metrics.StoreWarm.Add(1)
	return true
}

// attachObject binds an open store object to its entry after proving
// the object's layout is the entry's container's: the same size and the
// same metadata prefix, so every index field — block table, group
// directory, codec model — is the same. store.Open parses whatever
// index is on disk without re-hashing it, and the word path slices
// ent.container at the object's group offsets, so an object whose index
// disagrees is corrupt-or-wrong and gets quarantined instead. An object
// whose prefix cannot be read is closed but left on disk.
func (s *Server) attachObject(ent *entry, obj *store.Object) {
	ok := obj.Size() == int64(len(ent.container))
	if ok {
		meta, err := obj.ReadMeta()
		if err != nil {
			obj.Close()
			s.log.Warn("store object metadata unreadable, not attached",
				"key", shortKey(obj.Key()), "err", err)
			return
		}
		ok = bytes.Equal(meta, ent.container[:len(meta)])
	}
	if !ok {
		s.store.Quarantine(obj.Key())
		obj.Close()
		s.log.Warn("store object layout does not match entry, quarantined",
			"key", shortKey(obj.Key()))
		return
	}
	if !ent.obj.CompareAndSwap(nil, obj) {
		obj.Close() // someone else attached first
	}
}

// finishEntry fills the entry's serving state from a verified
// (container, reconstructed program, codec) triple. The program's plain
// block images are needed only to derive the cache keys; the entry
// keeps the container and a layout table copied out of its index.
func (s *Server) finishEntry(ent *entry, container []byte, p *program.Program, codec compress.Codec) error {
	plain, err := p.AllBlockBytes()
	if err != nil {
		return err
	}
	idx, err := pack.ParseIndex(container)
	if err != nil {
		return err
	}
	if len(idx.Blocks) != len(plain) || idx.PayloadBase+idx.PayloadLen != int64(len(container)) ||
		len(container) > math.MaxUint32 {
		return fmt.Errorf("service: %s container layout does not fit its program", p.Name)
	}
	blocks := make([]blockLoc, len(idx.Blocks))
	for i, e := range idx.Blocks {
		blocks[i] = blockLoc{off: uint32(idx.PayloadBase + e.Off), len: uint32(e.Len), crc: e.CRC, words: uint32(e.Words)}
	}
	ent.container = container
	ent.codec = codec
	ent.blocks = blocks
	ent.keys = BlockAddresses(codec.Name(), compress.MarshalModel(codec), plain)
	// Resolve the histogram once so the hot path never takes the
	// metrics mutex.
	ent.hist = s.metrics.CodecHist(codec.Name())
	return nil
}

// persistAsync writes a freshly-built container to the disk store
// through the worker pool, without blocking the requester that
// triggered the build. Once the object and its ref land, the entry is
// handed the open object so later word reads can go through it.
// Persistence is best-effort: a failure leaves the server serving from
// memory exactly as if no store were configured.
func (s *Server) persistAsync(ent *entry, name string, container []byte) {
	s.mu.Lock()
	if s.closing {
		// Shutting down: the pool is (about to be) closed and Close may
		// already be waiting on persistWG — starting a persist now would
		// both race the WaitGroup and submit to a dead pool.
		s.mu.Unlock()
		return
	}
	s.persistWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.persistWG.Done()
		_ = s.pool.Do(context.Background(), func() error {
			key, err := s.store.Put(container)
			if err != nil {
				return err
			}
			if err := s.store.PutRef(name, key); err != nil {
				return err
			}
			if obj, err := s.store.Open(key); err == nil {
				s.attachObject(ent, obj)
			}
			s.metrics.StorePersists.Add(1)
			return nil
		})
	}()
}

// buildContainer trains the codec on the program's code and packs it,
// then round-trips the result through Unpack so no unverifiable
// container ever leaves the server. The reconstructed program and
// rebuilt codec from that verification pass are returned alongside the
// container bytes.
func (s *Server) buildContainer(p *program.Program, codecName string) ([]byte, *program.Program, compress.Codec, error) {
	code, err := p.CodeBytes()
	if err != nil {
		return nil, nil, nil, err
	}
	codec, err := compress.New(codecName, code)
	if err != nil {
		return nil, nil, nil, err
	}
	container, err := pack.Pack(p, codec)
	if err != nil {
		return nil, nil, nil, err
	}
	up, ucodec, _, err := s.verifyUnpack(p.Name, container)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("service: packed container failed verification: %w", err)
	}
	return container, up, ucodec, nil
}

// verifyUnpack runs a full container verification through the shared
// streaming Unpacker: an unchanged container (a client re-posting the
// same program, a restore of a just-verified build) pays only the
// decode+CRC pass instead of a fresh parse-and-rebuild. Results are
// read-only and possibly shared between entries that verified the
// same container — which is exactly how entries use them.
// The Unpacker is used opportunistically: when another verification
// holds it, this one runs a plain parallel Unpack instead of queueing
// ms-scale verify work behind a global lock.
func (s *Server) verifyUnpack(name string, container []byte) (*program.Program, compress.Codec, *pack.Info, error) {
	if s.unpMu.TryLock() {
		defer s.unpMu.Unlock()
		return s.unp.Unpack(name, container)
	}
	return pack.Unpack(name, container)
}
