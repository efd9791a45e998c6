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
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"apbcc/internal/compress"
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
	// HeaderWord is set only on word-read responses (?word=W&words=N):
	// the span's first word index.
	HeaderWord = "X-Apcc-Word"
	// HeaderTrace and HeaderStages are only set when tracing is enabled:
	// the request's trace id (correlate with /debug/trace) and its
	// per-stage exclusive nanoseconds as "stage:ns;..." — everything but
	// the response write, which is still open when headers go out.
	HeaderTrace  = "X-Apcc-Trace"
	HeaderStages = "X-Apcc-Stages"
)

// maxAsmBody bounds POST /v1/pack request bodies.
const maxAsmBody = 1 << 20

// faultBlock injects latency or transient errors into every block GET,
// ahead of the payload slice.
var faultBlock = faults.Register("service.block")

// Config sizes the serving subsystem. Zero values select defaults.
type Config struct {
	// Deprecated: the block cache is gone and nothing reads these two
	// fields. They stay only until cmd/apcc-bench stops setting them
	// (ROADMAP item 1).
	CacheShards, CacheBytes int
	// Workers is how many pack/compress jobs run at once (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth is the pool backlog (jobs waiting for a slot) at which
	// /v1/ requests are shed with 429 and Retry-After instead of
	// waiting behind it (default 256).
	QueueDepth int
	// StoreDir, when non-empty, roots the content-addressed disk store:
	// built containers are persisted there asynchronously, and a restart
	// against a warm store restores previously-built containers without
	// re-packing. No request reads it: block and word reads are served
	// from the entry's resident container.
	StoreDir string
	// TraceRing is the capacity of the completed-request trace ring
	// behind GET /debug/trace. 0 selects the default of 256; negative
	// disables tracing entirely, leaving block serving on the nil-sink
	// fast path (no clock reads, no allocations).
	TraceRing int
	// RequestTimeout is the per-request deadline applied by the
	// instrumented handler: the request context is cancelled when it
	// expires, which aborts entry-build waits and pool slot waits, and
	// the client gets 504. 0 disables (default).
	RequestTimeout time.Duration
	// Log receives the server's structured events (request debug lines,
	// quarantines, failed persists). nil discards everything.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	if c.TraceRing < 0 {
		c.TraceRing = 0
	}
	if c.Log == nil {
		c.Log = obs.Discard
	}
	return c
}

// Server is the pack-serving subsystem: container and block endpoints
// over the built entries, the pool that bounds pack jobs, and (when
// configured) the content-addressed disk store.
type Server struct {
	pool    *Pool
	metrics *Metrics
	store   *store.Store // nil when no StoreDir was configured
	handler http.Handler
	rec     *obs.Recorder // nil when tracing is disabled
	log     *slog.Logger  // never nil (obs.Discard by default)

	timeout    time.Duration // per-request deadline (0 = none)
	queueDepth int           // pool backlog that triggers 429 shedding
	draining   atomic.Bool   // BeginDrain was called; /healthz reports 503

	mu      sync.Mutex
	entries map[string]*entry
	closing bool // no new persists may start once set

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
	// from it.
	container []byte
	codec     string // codec name, from the container's index
	// dec holds the codec that decodes the payloads, nil until the first
	// word read builds it (decoder): block GETs never decode.
	dec atomic.Pointer[compress.Codec]
	// layout locates every block's payload and word groups in container:
	// the rows the verifying pack.Unpack read from the container's index
	// and checked against its payloads and codec. Its Groups are nil when
	// the container has no group directory: word reads then decode the
	// whole block.
	layout pack.Layout
	hist   *Histogram // latency histogram for this entry's codec
}

// decoder returns the codec that decodes the entry's payloads. The
// entry's first word read builds it from the model in the container's
// header, the only part of the container it parses; when first readers
// race, each builds one and the entry keeps the first stored.
func (e *entry) decoder() (compress.Codec, error) {
	if c := e.dec.Load(); c != nil {
		return *c, nil
	}
	h, err := pack.ParseHeader(e.container)
	if err != nil {
		return nil, err
	}
	c, err := h.NewCodec()
	if err != nil {
		return nil, err
	}
	e.dec.CompareAndSwap(nil, &c)
	return *e.dec.Load(), nil
}

// decodeWords appends words [word, word+nwords) of block id to dst,
// decoding them from the resident container: only the covering word
// groups when the container has a group directory, the whole block
// otherwise. dst is grown once to what that decode writes, so a dst
// with the block's plain size in spare capacity stays allocation-free
// and a nil one costs one allocation. It also reports how many word
// groups and compressed bytes it decoded; a whole-block decode counts
// its payload and no groups. The container passed the full Unpack
// verification at build, its group directory included, so the decode
// needs no check of its own. An injected compress.decode fault fails
// it before anything is decoded, the decoder included.
func (e *entry) decodeWords(dst []byte, id, word, nwords int) (out []byte, groups, decoded int, err error) {
	if err := compress.FaultDecode.Err(); err != nil {
		return dst, 0, 0, fmt.Errorf("service: block %d word decode: %w", id, err)
	}
	codec, err := e.decoder()
	if err != nil {
		return dst, 0, 0, err
	}
	comp, words := e.layout.Payload(e.container, id), int(e.layout.Blocks[id].Words)
	if gc, ok := compress.AsGroupCodec(codec); ok && e.layout.Groups != nil {
		offs := e.layout.GroupOffsets(id)
		gw := gc.GroupWords()
		g0, g1 := word/gw, (word+nwords-1)/gw
		dst = reserve(dst, (min((g1+1)*gw, words)-g0*gw)*isa.WordSize)
		if out, err = compress.DecodeWordRange(dst, gc, comp, offs, words, word, nwords); err != nil {
			return dst, 0, 0, err
		}
		end := len(comp)
		if g1+1 < len(offs) {
			end = int(offs[g1+1])
		}
		return out, g1 - g0 + 1, end - int(offs[g0]), nil
	}
	base := len(dst)
	if out, err = codec.DecompressAppend(reserve(dst, words*isa.WordSize), comp); err != nil {
		return dst, 0, 0, err
	}
	// Slide the span to the front of the decoded block and drop the rest.
	n := copy(out[base:], out[base+word*isa.WordSize:base+(word+nwords)*isa.WordSize])
	return out[:base+n], 0, len(comp), nil
}

// reserve returns dst with room for n more bytes, allocating once when
// it has not. (slices.Grow allocates twice in a -race build.)
func reserve(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// New builds a Server. Call Close when done to wait out its pack jobs.
// The only error source is opening Config.StoreDir.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		pool:       NewPool(cfg.Workers),
		metrics:    NewMetrics(),
		entries:    make(map[string]*entry),
		log:        cfg.Log,
		timeout:    cfg.RequestTimeout,
		queueDepth: cfg.QueueDepth,
	}
	if cfg.TraceRing > 0 {
		s.rec = obs.NewRecorder(cfg.TraceRing, 8) // the 8 slowest traces outlive the ring
	}
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
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/codecs", s.handleCodecs)
	mux.HandleFunc("GET /v1/pack/{workload}", s.handlePackWorkload)
	mux.HandleFunc("POST /v1/pack", s.handlePackAsm)
	mux.HandleFunc("GET /v1/block/{workload}/{id}", s.handleBlock)
	s.handler = s.instrument(mux)
	return s, nil
}

// ServeLoopback boots a server on cfg behind a listener on a free
// loopback port, with apcc-serve's serving timeouts, and returns it with
// its base URL. stop closes the listener and then the server, waiting
// out its persists; it may be called more than once.
func ServeLoopback(cfg Config) (srv *Server, base string, stop func(), err error) {
	if srv, err = New(cfg); err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", nil, err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go hs.Serve(ln)
	return srv, "http://" + ln.Addr().String(), func() { hs.Close(); srv.Close() }, nil
}

// Handler returns the instrumented HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Close waits for in-flight store persists and closes the pool
// (waiting for admitted jobs).
func (s *Server) Close() {
	// Flip closing under the same lock persistAsync uses for Add, so no
	// Add can race the Wait below on a drained counter (sync.WaitGroup
	// forbids Add concurrent with Wait at zero).
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.persistWG.Wait()
	s.pool.Close()
}

// Store exposes the disk store (nil when not configured); tests and
// operational tooling inspect it directly.
func (s *Server) Store() *store.Store { return s.store }

// Metrics exposes the server's counters (for in-process inspection and
// tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheStats is always zero.
//
// Deprecated: the block cache is gone. The type stays only until
// cmd/apcc-bench stops reading it (ROADMAP item 1).
type CacheStats struct {
	Hits, Misses, Coalesced, Evictions int64
}

// CacheStats returns a zero CacheStats.
//
// Deprecated: the block cache is gone. The method stays only until
// cmd/apcc-bench stops calling it (ROADMAP item 1).
func (s *Server) CacheStats() CacheStats { return CacheStats{} }

// BeginDrain flips the server into draining mode: /healthz starts
// reporting 503 so load balancers stop routing here, while in-flight
// and new requests still complete. Call before http.Server.Shutdown.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.log.Info("drain started: /healthz now reports 503")
	}
}

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
		// Shed serving-path requests while the pool backlog is at
		// QueueDepth: a request admitted now would only wait behind it.
		// Health, metrics, and debug endpoints are never shed —
		// operators need them most during overload.
		if strings.HasPrefix(r.URL.Path, "/v1/") && s.pool.Backlog() >= int64(s.queueDepth) {
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

// handleMetrics renders every family as two tables, metrics and
// latency, in aligned text or, with ?format=csv, as CSV.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	t := newTableSink()
	s.writeMetrics(t)
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		io.WriteString(w, t.metrics.CSV()+"\n"+t.latency.CSV()+"\n")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, t.metrics.String()+"\n"+t.latency.String()+"\n")
}

// handleMetricsProm renders the same families as /metrics in Prometheus
// text exposition, with each histogram's buckets, sum and count.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(promSink{obs.NewPromWriter(w)})
}

// entryMemory is the memory held by one codec's built entries.
type entryMemory struct {
	codec string
	// resident is what the entries keep: container capacity, 16 B per
	// layout row, 4 B per group offset, each entry's fixed cost and key,
	// and the decoder of each entry a word read has reached.
	resident int64
	// plain is the size of the plain code images the containers encode.
	plain int64
}

// Every entry holds its struct, its ready channel (a 112 B allocation)
// and a map slot (key header and entry pointer); a built decoder adds
// the 16 B interface value its slot points to.
const (
	entryFixedBytes  = int64(unsafe.Sizeof(entry{})) + 112 + 24
	decoderSlotBytes = 16
)

// memoryByCodec sums the built entries' memory by codec, in codec
// order. Entries still building are skipped.
func (s *Server) memoryByCodec() []entryMemory {
	byCodec := map[string]*entryMemory{}
	s.mu.Lock()
	for key, ent := range s.entries {
		select {
		case <-ent.ready:
		default:
			continue
		}
		if ent.err != nil {
			continue
		}
		m := byCodec[ent.codec]
		if m == nil {
			m = &entryMemory{codec: ent.codec}
			byCodec[m.codec] = m
		}
		m.resident += entryFixedBytes + int64(len(key)+cap(ent.container)+16*cap(ent.layout.Blocks)+4*cap(ent.layout.Groups))
		if c := ent.dec.Load(); c != nil {
			m.resident += decoderSlotBytes + compress.DecoderBytes(*c)
		}
		for _, b := range ent.layout.Blocks {
			m.plain += int64(b.Words) * isa.WordSize
		}
	}
	s.mu.Unlock()
	out := make([]entryMemory, 0, len(byCodec))
	for _, m := range byCodec {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].codec < out[j].codec })
	return out
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
	ent, status, err := s.entryFor(r.Context(), r.PathValue("workload"), codecParam(r.URL.Query()))
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set(HeaderCodec, ent.codec)
	writeContainer(w, ent.container)
}

// writeContainer sends a whole container. Its declared length keeps a
// container over net/http's 2 KiB buffer from going out chunked.
func writeContainer(w http.ResponseWriter, container []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(container)))
	w.Write(container)
}

func (s *Server) handlePackAsm(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name, codecName := q.Get("name"), codecParam(q)
	if name == "" {
		name = "posted"
	}
	// Sized by the declared length, the body lands in one allocation
	// (the MinRead spare lets ReadFrom see EOF without growing).
	body := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), maxAsmBody)+bytes.MinRead))
	_, err := body.ReadFrom(io.LimitReader(r.Body, maxAsmBody+1))
	src := body.Bytes()
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
	if err := checkCodec(codecName); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The assembler reads the body in place: nothing writes the buffer
	// after this, and the program's labels may keep windows of it.
	p, err := program.FromAssembly(name, unsafe.String(unsafe.SliceData(src), len(src)))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var container []byte
	err = s.pool.Do(r.Context(), func() (err error) {
		container, _, err = s.buildContainer(p, codecName)
		return err
	})
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	s.metrics.Packs.Add(1)
	writeContainer(w, container)
}

func (s *Server) handleBlock(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// With tracing disabled (nil recorder) tr is nil and every obs call
	// below is a free no-op: the hot path costs what it did untraced
	// (pinned by TestBlockGetAllocs).
	tr := s.rec.StartTrace(obs.StageRoute)
	ctx := obs.WithTrace(r.Context(), tr)
	// One parse of the query serves the codec, the word check and the
	// word range: each r.URL.Query() call re-parses and allocates.
	q := r.URL.Query()
	ent, status, err := s.entryFor(ctx, r.PathValue("workload"), codecParam(q))
	if err != nil {
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, err.Error(), status)
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= len(ent.layout.Blocks) {
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, fmt.Sprintf("no block %q (%d blocks)", r.PathValue("id"), len(ent.layout.Blocks)),
			http.StatusNotFound)
		return
	}
	tr.SetLabels(r.PathValue("workload"), ent.codec, id)
	if q.Get("word") != "" {
		s.serveWordRange(w, q, tr, ent, id)
		return
	}
	err = faultBlock.Err()
	if err == nil {
		// The deadline may have fired during an injected stall; don't
		// start a response write the client already gave up on.
		err = ctx.Err()
	}
	if err != nil {
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	tr.Next(obs.StageWrite)
	blk := ent.layout.Blocks[id]
	s.metrics.Blocks.Add(1)
	ent.hist.Observe(time.Since(start))
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderCodec, ent.codec)
	h.Set(HeaderWords, strconv.Itoa(int(blk.Words)))
	h.Set(HeaderCRC, crcHex(blk.CRC))
	if tr != nil {
		h.Set(HeaderTrace, strconv.FormatUint(tr.TraceID(), 10))
		h.Set(HeaderStages, stagesHeader(tr.Spans()))
	}
	w.Write(ent.layout.Payload(ent.container, id))
	s.finishTrace(tr, obs.OutcomeOK)
}

// serveWordRange handles ?word=W&words=N on the block endpoint — the
// sub-block serving path. The response is the span's *plain* bytes
// (N×4), not a compressed payload: a word read exists precisely so the
// client skips its own full-block decode. The span is decoded from the
// entry's resident container (decodeWords), traced as the decode stage.
func (s *Server) serveWordRange(w http.ResponseWriter, q url.Values, tr *obs.Trace, ent *entry, id int) {
	word, err := strconv.Atoi(q.Get("word"))
	nwords := 1
	if err == nil {
		if ws := q.Get("words"); ws != "" {
			nwords, err = strconv.Atoi(ws)
		}
	}
	blockWords := int(ent.layout.Blocks[id].Words)
	if err != nil || word < 0 || nwords < 1 || word > blockWords-nwords {
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, fmt.Sprintf("bad word range word=%q words=%q (block %d has %d words)",
			q.Get("word"), q.Get("words"), id, blockWords), http.StatusBadRequest)
		return
	}
	tr.Next(obs.StageDecode)
	buf, groups, decoded, err := ent.decodeWords(nil, id, word, nwords)
	if err != nil {
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	tr.Next(obs.StageWrite)
	s.metrics.WordReads.Add(1)
	s.metrics.WordGroups.Add(int64(groups))
	s.metrics.WordDecodedBytes.Add(int64(decoded))
	if s.store != nil {
		// Keeps the store's word counters, which cmd/apcc-bench reads
		// for the word-read payload ratio, counting the bytes decoded.
		s.store.CountWordRead(decoded)
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderCodec, ent.codec)
	h.Set(HeaderWords, strconv.Itoa(nwords))
	h.Set(HeaderWord, strconv.Itoa(word))
	h.Set(HeaderCRC, crcHex(crc32.ChecksumIEEE(buf)))
	if tr != nil {
		h.Set(HeaderTrace, strconv.FormatUint(tr.TraceID(), 10))
		h.Set(HeaderStages, stagesHeader(tr.Spans()))
	}
	w.Write(buf)
	s.finishTrace(tr, obs.OutcomeOK)
}

// crcHex renders a CRC-32 as X-Apcc-Crc32's eight lowercase hex digits,
// as fmt's %08x would, without boxing the value.
func crcHex(crc uint32) string {
	var b [8]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = "0123456789abcdef"[crc&0xf]
		crc >>= 4
	}
	return string(b[:])
}

// stagesHeader renders a trace's tiles as "stage:exclNS;..." for the
// X-Apcc-Stages header. The write tile is still open while the header
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

// finishTrace ends a request trace's last tile with outcome,
// attributes each tile's time to the per-stage histograms, emits the
// per-request debug log line, and hands the trace to the ring. Nil
// trace no-ops.
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
func codecParam(q url.Values) string {
	if c := q.Get("codec"); c != "" {
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
		// A failed build's tile stays open for the caller's Finish to
		// close with the error.
		tr := obs.FromContext(ctx)
		tr.Next(obs.StageBuild)
		ent.err = s.build(ent, workload, codecName)
		if ent.err == nil {
			tr.Next(obs.StageRoute)
		} else {
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
	case errors.Is(err, faults.ErrTransient):
		// An injected fault, the only transient error a request can
		// meet: no request does I/O past reading its body, whose errors
		// answer 400 first. The client may retry.
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
// asynchronously through the pool. Only the cold path synthesizes the
// workload's program; a warm restore never needs it.
func (s *Server) build(ent *entry, workload, codecName string) error {
	// An unknown workload is a 404 ahead of a bad codec's 400, and
	// neither occupies a pool slot.
	if err := workloads.Check(workload); err != nil {
		return err
	}
	if err := checkCodec(codecName); err != nil {
		return err
	}
	if s.store != nil && s.restoreFromStore(ent, workload, codecName) {
		return nil
	}
	wl, err := workloads.ByName(workload)
	if err != nil {
		return err
	}
	var container []byte
	var info *pack.Info
	err = s.pool.Do(context.Background(), func() (err error) {
		container, info, err = s.buildContainer(wl.Program, codecName)
		return err
	})
	if err != nil {
		return err
	}
	s.finishEntry(ent, container, info)
	s.metrics.Packs.Add(1)
	if s.store != nil {
		s.persistAsync(store.RefName(workload, codecName), container)
	}
	return nil
}

// restoreFromStore is the warm-restart path: resolve the (workload,
// codec) ref, read and hash-verify the container, and Unpack it (the
// full image-checksum verification pass) — no packer involved. Any
// failure falls back to a cold build; only corruption also quarantines
// the object, so a transient error (an injected decode fault) leaves a
// healthy object for the next restart.
func (s *Server) restoreFromStore(ent *entry, workload, codecName string) bool {
	key, ok := s.store.Ref(store.RefName(workload, codecName))
	if !ok {
		return false
	}
	container, err := s.store.Get(key) // corrupt entries self-quarantine here
	if err != nil {
		return false
	}
	info, err := s.verifyUnpack(workload, container)
	if err != nil {
		corrupt := pack.IsCorrupt(err)
		if corrupt {
			s.store.Quarantine(key)
		}
		s.log.Warn("warm restore failed verification, rebuilding cold",
			"key", shortKey(key), "workload", workload, "codec", codecName, "quarantined", corrupt, "err", err)
		return false
	}
	s.finishEntry(ent, container, info)
	s.metrics.StoreWarm.Add(1)
	return true
}

// finishEntry fills the entry's serving state from a container and the
// Info its verifying pack.Unpack returned: the container, its codec's
// name, and the block layout Unpack read from its index and checked
// against its payloads and codec.
func (s *Server) finishEntry(ent *entry, container []byte, info *pack.Info) {
	ent.container = container
	ent.codec = info.Codec
	ent.layout = info.Layout
	// Resolve the histogram once so the hot path never takes the
	// metrics mutex.
	ent.hist = s.metrics.CodecHist(info.Codec)
}

// persistAsync writes a freshly-built container and its ref to the
// disk store through the pool, without blocking the requester that
// triggered the build, so a restart can restore it. Persistence is
// best-effort: a failure is logged and changes nothing the entry
// serves.
func (s *Server) persistAsync(name string, container []byte) {
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
		var key string
		err := s.pool.Do(context.Background(), func() error {
			var err error
			if key, err = s.store.Put(container); err != nil {
				return err
			}
			if err := s.store.PutRef(name, key); err != nil {
				return err
			}
			s.metrics.StorePersists.Add(1)
			return nil
		})
		if err != nil {
			if key == "" {
				key = store.Key(container)
			}
			s.log.Warn("container persist failed, a restart will rebuild it",
				"ref", name, "key", shortKey(key), "err", err)
		}
	}()
}

// buildContainer trains the codec on the program's code and packs it
// (pack.Build), then round-trips the result through Unpack so no
// unverifiable container ever leaves the server. It returns the Info
// of that Unpack beside the container.
func (s *Server) buildContainer(p *program.Program, codecName string) ([]byte, *pack.Info, error) {
	container, err := pack.Build(p, codecName)
	if err != nil {
		return nil, nil, err
	}
	info, err := s.verifyUnpack(p.Name, container)
	if err != nil {
		return nil, nil, fmt.Errorf("service: packed container failed verification: %w", err)
	}
	return container, info, nil
}

// verifyUnpack is the one verification every served container passes,
// after each build and on each warm restore: a full pack.Unpack,
// counted in the verify metrics. Its Info holds the layout the entry
// serves from.
func (s *Server) verifyUnpack(name string, container []byte) (*pack.Info, error) {
	start := time.Now()
	_, _, info, err := pack.Unpack(name, container)
	s.metrics.VerifyUnpacks.Add(1)
	s.metrics.VerifyNS.Add(int64(time.Since(start)))
	return info, err
}
