package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/isa"
	"apbcc/internal/pack"
	"apbcc/internal/trace"
)

// LoadConfig parameterizes a load-generation run: N simulated devices
// replaying a workload's block access pattern as HTTP fetches.
type LoadConfig struct {
	// BaseURL is the server to hit, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Workload is the scenario list: one suite workload name, or a
	// comma-separated list assigned to clients round-robin so one run
	// mixes access-pattern classes (e.g. "fft,zipf,loopphase").
	Workload string
	// Codec selects the block codec (default dict).
	Codec string
	// Clients is the number of concurrent simulated devices (default 1).
	Clients int
	// Steps is the trace length each client replays (default 200).
	Steps int
	// Seed offsets every client's trace seed so devices diverge.
	Seed int64
	// Client optionally overrides the HTTP client (tests inject the
	// httptest server's client).
	Client *http.Client
	// WordFrac, in (0, 1], is the fraction of block visits issued as
	// sub-block word reads (?word=W&words=N) instead of full-block
	// fetches — the wordread scenario. Start words are zipf-distributed
	// (hot words dominate, like hot basic-block heads dominate real
	// access patterns) and spans are 1-4 words. 0 disables.
	WordFrac float64
	// TraceOut, when non-nil, receives one JSON line per block fetch
	// with the server's trace id and per-stage attribution parsed from
	// the X-Apcc-Trace / X-Apcc-Stages response headers — the raw
	// material for offline latency analysis. Writes are serialized
	// internally; any io.Writer works.
	TraceOut io.Writer
	// RetryBusy makes clients honor the server's overload/transient
	// contract: 429 (shed), 503 and 504 responses are retried a few
	// times with capped backoff instead of counting as errors — what a
	// well-behaved embedded device does when the server says "later".
	RetryBusy bool
}

// busyRetryMax bounds RetryBusy re-attempts per fetch; busyRetryBase
// scales the capped backoff between them.
const (
	busyRetryMax  = 5
	busyRetryBase = 10 * time.Millisecond
)

// retryableStatus reports whether a response status is part of the
// server's "try again later" contract.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// FetchRecord is one -trace-out JSONL line: a single block fetch as
// the client saw it, joined with the server's stage attribution.
type FetchRecord struct {
	Client   int              `json:"client"`
	Workload string           `json:"workload"`
	Block    int              `json:"block"`
	Codec    string           `json:"codec"`
	TotalNS  int64            `json:"total_ns"`         // client-observed fetch latency
	Cache    string           `json:"cache,omitempty"`  // X-Apcc-Cache: hit | miss | bypass
	TraceID  uint64           `json:"trace,omitempty"`  // X-Apcc-Trace (0 if tracing off)
	Stages   map[string]int64 `json:"stages,omitempty"` // stage -> exclusive ns, from X-Apcc-Stages
	// Word/Words carry the requested span of a word read. Words > 0
	// marks the row as a word read (an absent "word" field then means
	// the span starts at word 0); both are absent on full-block fetches.
	Word  int    `json:"word,omitempty"`
	Words int    `json:"words,omitempty"`
	Err   string `json:"err,omitempty"`
}

// traceSink serializes FetchRecord JSONL writes from all clients.
type traceSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newTraceSink(w io.Writer) *traceSink {
	if w == nil {
		return nil
	}
	return &traceSink{enc: json.NewEncoder(w)}
}

func (s *traceSink) write(rec *FetchRecord) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.enc.Encode(rec)
	s.mu.Unlock()
}

// parseStagesHeader decodes the X-Apcc-Stages "stage:ns;..." form;
// malformed segments are skipped rather than failing the fetch.
func parseStagesHeader(h string) map[string]int64 {
	if h == "" {
		return nil
	}
	out := make(map[string]int64)
	for _, part := range strings.Split(h, ";") {
		stage, nsText, ok := strings.Cut(part, ":")
		if !ok {
			continue
		}
		ns, err := strconv.ParseInt(nsText, 10, 64)
		if err != nil {
			continue
		}
		out[stage] += ns // repeated stages (e.g. two decode spans) sum
	}
	return out
}

// LoadStats aggregates a load run.
type LoadStats struct {
	Clients   int
	Requests  int64 // fetches issued (block + word reads)
	WordReads int64 // sub-block word reads among Requests
	Errors    int64 // transport errors, bad statuses, verify failures
	// VerifyErrors is the subset of Errors where a 200 response carried
	// bytes that failed client-side verification — the wrong-bytes
	// signal chaos runs must see stay at zero, separate from the HTTP
	// failures fault injection is expected to produce.
	VerifyErrors int64
	// BusyRetries counts RetryBusy re-attempts after 429/503/504.
	BusyRetries int64
	Bytes       int64 // compressed payload bytes received
	CacheHits   int64 // responses marked X-Apcc-Cache: hit
	Duration    time.Duration
	Latency     *Histogram // per-fetch latency across all clients
	FirstError  error      // sample for diagnostics
}

// Throughput returns fetches per second over the run.
func (s *LoadStats) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Requests) / s.Duration.Seconds()
}

// RunLoad replays the workload's access pattern from Clients concurrent
// devices. Each client first fetches the whole container and unpacks it
// (running checksum verification), then walks its own seeded trace,
// fetching each visited block over HTTP, decompressing the payload with
// the container's codec and checking it against the expected block
// image and its CRC header. Any mismatch counts as an error.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadStats, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 200
	}
	if cfg.Codec == "" {
		cfg.Codec = "dict"
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Clients * 2,
			MaxIdleConnsPerHost: cfg.Clients * 2,
		}}
	}

	scenarios := strings.Split(cfg.Workload, ",")
	kept := scenarios[:0]
	for _, s := range scenarios {
		if s = strings.TrimSpace(s); s != "" {
			kept = append(kept, s)
		}
	}
	scenarios = kept
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("service: empty workload list")
	}

	stats := &LoadStats{Clients: cfg.Clients, Latency: &Histogram{}}
	sink := newTraceSink(cfg.TraceOut)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cs, err := runClient(ctx, client, cfg, scenarios[id%len(scenarios)], id, stats.Latency, sink)
			mu.Lock()
			defer mu.Unlock()
			stats.Requests += cs.requests
			stats.WordReads += cs.wordReads
			stats.Errors += cs.errors
			stats.VerifyErrors += cs.verifyErrors
			stats.BusyRetries += cs.busyRetries
			stats.Bytes += cs.bytes
			stats.CacheHits += cs.hits
			if err != nil {
				stats.Errors++
				if stats.FirstError == nil {
					stats.FirstError = err
				}
			} else if cs.firstError != nil && stats.FirstError == nil {
				stats.FirstError = cs.firstError
			}
		}(i)
	}
	wg.Wait()
	stats.Duration = time.Since(start)
	return stats, nil
}

type clientStats struct {
	requests, wordReads, errors, bytes, hits int64
	verifyErrors, busyRetries                int64
	firstError                               error
}

// runClient is one simulated device: fetch container, verify, replay
// its assigned scenario.
func runClient(ctx context.Context, client *http.Client, cfg LoadConfig, workload string, id int, lat *Histogram, sink *traceSink) (clientStats, error) {
	var cs clientStats
	seed := cfg.Seed + int64(id)
	url := fmt.Sprintf("%s/v1/pack/%s?codec=%s", cfg.BaseURL, workload, cfg.Codec)
	body, _, err := fetchBusy(ctx, client, url, cfg.RetryBusy, &cs)
	if err != nil {
		return cs, fmt.Errorf("container fetch: %w", err)
	}
	// Unpack runs the whole-image checksum verification client-side.
	prog, codec, _, err := pack.Unpack(workload, body)
	if err != nil {
		return cs, fmt.Errorf("container verify: %w", err)
	}
	want, err := prog.AllBlockBytes()
	if err != nil {
		return cs, err
	}

	tr, err := trace.Generate(prog.Graph, trace.GenConfig{Seed: seed, MaxSteps: cfg.Steps, Restart: true})
	if err != nil {
		return cs, err
	}
	// One pooled decode buffer per client, reused across every fetched
	// block — a simulated device decompresses into fixed scratch, not a
	// fresh slice per block.
	maxBlock := 0
	for _, b := range want {
		if len(b) > maxBlock {
			maxBlock = len(b)
		}
	}
	scratch := compress.GetBuf(maxBlock)
	defer func() { compress.PutBuf(scratch) }()
	// The wordread scenario draws start words from a zipf over the
	// largest block's word range (folded into each block's own range):
	// a few hot words soak up most probes, the tail keeps every group
	// of the directory warm. Seeded per client, like the block walk.
	var rng *rand.Rand
	var zipf *rand.Zipf
	if cfg.WordFrac > 0 && maxBlock/isa.WordSize > 1 {
		rng = rand.New(rand.NewSource(seed + 0x77647264))
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(maxBlock/isa.WordSize-1))
	}
	for _, blockID := range tr.Blocks {
		if ctx.Err() != nil {
			return cs, ctx.Err()
		}
		if zipf != nil && rng.Float64() < cfg.WordFrac {
			var werr error
			if werr = fetchWordSpan(ctx, client, cfg, workload, int(blockID), want[blockID], rng, zipf, lat, sink, &cs, id); werr != nil && cs.firstError == nil {
				cs.firstError = werr
			}
			continue
		}
		url := fmt.Sprintf("%s/v1/block/%s/%d?codec=%s", cfg.BaseURL, workload, blockID, cfg.Codec)
		t0 := time.Now()
		payload, hdr, err := fetchBusy(ctx, client, url, cfg.RetryBusy, &cs)
		elapsed := time.Since(t0)
		lat.Observe(elapsed)
		cs.requests++
		var rec *FetchRecord
		if sink != nil {
			rec = &FetchRecord{
				Client: id, Workload: workload, Block: int(blockID),
				Codec: cfg.Codec, TotalNS: int64(elapsed),
			}
		}
		if err != nil {
			cs.errors++
			if cs.firstError == nil {
				cs.firstError = err
			}
			if rec != nil {
				rec.Err = err.Error()
				sink.write(rec)
			}
			continue
		}
		cs.bytes += int64(len(payload))
		if hdr.Get(HeaderCache) == "hit" {
			cs.hits++
		}
		var verr error
		scratch, verr = verifyBlock(codec, payload, hdr, want[blockID], scratch)
		if verr != nil {
			cs.errors++
			cs.verifyErrors++
			if cs.firstError == nil {
				cs.firstError = fmt.Errorf("block %d: %w", blockID, verr)
			}
		}
		if rec != nil {
			rec.Cache = hdr.Get(HeaderCache)
			rec.TraceID, _ = strconv.ParseUint(hdr.Get(HeaderTrace), 10, 64)
			rec.Stages = parseStagesHeader(hdr.Get(HeaderStages))
			if verr != nil {
				rec.Err = verr.Error()
			}
			sink.write(rec)
		}
	}
	return cs, nil
}

// fetchWordSpan issues one sub-block word read and verifies the plain
// span bytes against the client's own unpacked image plus the CRC
// header. Word-read errors count like block-fetch errors; the JSONL
// row carries the requested span.
func fetchWordSpan(ctx context.Context, client *http.Client, cfg LoadConfig, workload string, blockID int, want []byte, rng *rand.Rand, zipf *rand.Zipf, lat *Histogram, sink *traceSink, cs *clientStats, id int) error {
	blockWords := len(want) / isa.WordSize
	word := int(zipf.Uint64()) % blockWords
	nwords := 1 + rng.Intn(4)
	if nwords > blockWords-word {
		nwords = blockWords - word
	}
	url := fmt.Sprintf("%s/v1/block/%s/%d?codec=%s&word=%d&words=%d",
		cfg.BaseURL, workload, blockID, cfg.Codec, word, nwords)
	t0 := time.Now()
	body, hdr, err := fetchBusy(ctx, client, url, cfg.RetryBusy, cs)
	elapsed := time.Since(t0)
	lat.Observe(elapsed)
	cs.requests++
	cs.wordReads++
	var rec *FetchRecord
	if sink != nil {
		rec = &FetchRecord{
			Client: id, Workload: workload, Block: blockID, Codec: cfg.Codec,
			TotalNS: int64(elapsed), Word: word, Words: nwords,
		}
		defer sink.write(rec)
	}
	if err == nil {
		cs.bytes += int64(len(body))
		wantSpan := want[word*isa.WordSize : (word+nwords)*isa.WordSize]
		if !bytes.Equal(body, wantSpan) {
			err = fmt.Errorf("word span bytes differ from the unpacked image")
			cs.verifyErrors++
		} else if h := hdr.Get(HeaderCRC); h != "" {
			if crc, perr := strconv.ParseUint(h, 16, 32); perr != nil || crc32.ChecksumIEEE(body) != uint32(crc) {
				err = fmt.Errorf("word span crc mismatch (%s=%q)", HeaderCRC, h)
				cs.verifyErrors++
			}
		}
	}
	if err != nil {
		cs.errors++
		err = fmt.Errorf("block %d word %d+%d: %w", blockID, word, nwords, err)
		if rec != nil {
			rec.Err = err.Error()
		}
		return err
	}
	if rec != nil {
		rec.Cache = hdr.Get(HeaderCache)
		rec.TraceID, _ = strconv.ParseUint(hdr.Get(HeaderTrace), 10, 64)
		rec.Stages = parseStagesHeader(hdr.Get(HeaderStages))
	}
	return nil
}

// verifyBlock decompresses a served payload into scratch and checks it
// against the expected plain image and the CRC the server advertised.
// It returns the (possibly grown) scratch for reuse.
func verifyBlock(codec compress.Codec, payload []byte, hdr http.Header, want, scratch []byte) ([]byte, error) {
	plain, err := codec.DecompressAppend(scratch[:0], payload)
	if err != nil {
		return scratch, fmt.Errorf("decompress: %w", err)
	}
	if !bytes.Equal(plain, want) {
		return plain, fmt.Errorf("plain image mismatch: %d bytes vs %d expected", len(plain), len(want))
	}
	if h := hdr.Get(HeaderCRC); h != "" {
		crc, err := strconv.ParseUint(h, 16, 32)
		if err != nil {
			return plain, fmt.Errorf("bad %s header %q", HeaderCRC, h)
		}
		if got := crc32.ChecksumIEEE(plain); got != uint32(crc) {
			return plain, fmt.Errorf("crc mismatch: %08x != %08x", got, crc)
		}
	}
	return plain, nil
}

// CodecMixStats is one codec's leg of a RunCodecMix sweep.
type CodecMixStats struct {
	Codec string
	Stats *LoadStats
}

// RunCodecMix replays the same load scenario once per registered codec,
// in registry order. Every leg packs, serves, decompresses and verifies
// the same workload set under a different codec, so after a mix run the
// server's per-codec metrics (cache entries, Prometheus stage/codec
// labels, decode attribution) are populated across the whole codec
// family — the end-to-end exercise for codec-labelled observability.
// cfg.Codec is ignored; each leg sets its own.
func RunCodecMix(ctx context.Context, cfg LoadConfig) ([]CodecMixStats, error) {
	names := compress.Names()
	out := make([]CodecMixStats, 0, len(names))
	for _, name := range names {
		leg := cfg
		leg.Codec = name
		st, err := RunLoad(ctx, leg)
		if err != nil {
			return nil, fmt.Errorf("service: codecmix %s: %w", name, err)
		}
		out = append(out, CodecMixStats{Codec: name, Stats: st})
	}
	return out, nil
}

// ColdWarmStats reports the two phases of a cold-start/warm-restart
// scenario run against the same store directory.
type ColdWarmStats struct {
	Cold, Warm           *LoadStats
	ColdPacks, WarmPacks int64         // containers actually built per phase
	WarmRestores         int64         // entries restored from the store
	ColdFirst, WarmFirst time.Duration // time to the first served container
}

// RunColdWarm is the restart scenario: phase one starts a server
// against cfg.StoreDir (typically empty — every container is packed
// from scratch and persisted), replays the load, and shuts the server
// down. Phase two starts a *fresh* server on the same directory and
// replays the same load; with a warm store it must restore containers
// from disk without invoking the packer. The two phases' pack counts
// and first-container latencies quantify what the disk tier buys a
// restarted server.
func RunColdWarm(ctx context.Context, cfg Config, lcfg LoadConfig) (*ColdWarmStats, error) {
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("service: cold/warm scenario requires Config.StoreDir")
	}
	out := &ColdWarmStats{}
	run := func(packs *int64, first *time.Duration, restores *int64) (*LoadStats, error) {
		srv, err := New(cfg)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		httpSrv := &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      30 * time.Second,
		}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()

		phase := lcfg
		phase.BaseURL = "http://" + ln.Addr().String()
		phase.Client = nil

		// Time-to-first-container: what a device waits on after the
		// server (re)starts — packer latency cold, disk restore warm.
		wl := strings.TrimSpace(strings.Split(phase.Workload, ",")[0])
		t0 := time.Now()
		codec := phase.Codec
		if codec == "" {
			codec = "dict"
		}
		if _, _, err := fetch(ctx, http.DefaultClient,
			fmt.Sprintf("%s/v1/pack/%s?codec=%s", phase.BaseURL, wl, codec)); err != nil {
			return nil, err
		}
		*first = time.Since(t0)

		stats, err := RunLoad(ctx, phase)
		if err != nil {
			return nil, err
		}
		*packs = srv.Metrics().Packs.Load()
		*restores = srv.Metrics().StoreWarm.Load()
		return stats, nil
	}
	var coldRestores int64
	var err error
	if out.Cold, err = run(&out.ColdPacks, &out.ColdFirst, &coldRestores); err != nil {
		return nil, fmt.Errorf("cold phase: %w", err)
	}
	if out.Warm, err = run(&out.WarmPacks, &out.WarmFirst, &out.WarmRestores); err != nil {
		return nil, fmt.Errorf("warm phase: %w", err)
	}
	return out, nil
}

// fetch GETs a URL, returning the body and headers; a non-200 status is
// an error (its code is still returned so callers can classify it).
func fetch(ctx context.Context, client *http.Client, url string) ([]byte, http.Header, error) {
	body, hdr, _, err := fetchStatus(ctx, client, url)
	return body, hdr, err
}

func fetchStatus(ctx context.Context, client *http.Client, url string) ([]byte, http.Header, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, resp.StatusCode,
			fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, resp.Header, resp.StatusCode, nil
}

// fetchBusy is fetch under the RetryBusy contract: 429/503/504
// responses are re-attempted with capped exponential backoff, counting
// each re-attempt in cs. Other failures return immediately.
func fetchBusy(ctx context.Context, client *http.Client, url string, retryBusy bool, cs *clientStats) ([]byte, http.Header, error) {
	for attempt := 0; ; attempt++ {
		body, hdr, status, err := fetchStatus(ctx, client, url)
		if err == nil || !retryBusy || !retryableStatus(status) || attempt >= busyRetryMax {
			return body, hdr, err
		}
		cs.busyRetries++
		d := busyRetryBase << attempt
		if d > 4*busyRetryBase {
			d = 4 * busyRetryBase
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return body, hdr, err
		}
	}
}
