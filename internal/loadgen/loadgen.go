// Package loadgen is the device side of the serving subsystem. N
// simulated devices replay internal/trace access patterns as HTTP
// block fetches and word reads against an internal/service server, and
// every device checks every byte it is served against the pack.Unpack
// image of the container it fetched, with one check: decode a block
// payload (a word span is plain already), compare the plain bytes with
// the image, and require X-Apcc-Crc32 to carry their CRC.
//
// Run is the load itself. RunCodecMix replays it once per codec,
// RunColdWarm against a cold and then a restarted server on one store,
// and RunChaos under injected faults, rotten restores and a healed
// restart. The package uses only service's exported API.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/isa"
	"apbcc/internal/pack"
	"apbcc/internal/service"
	"apbcc/internal/trace"
)

// Config parameterizes a load-generation run: N simulated devices
// replaying a workload's block access pattern as HTTP fetches.
type Config struct {
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

// withDefaults fills the zero fields that have defaults.
func (c Config) withDefaults() Config {
	c.Clients = max(c.Clients, 1)
	if c.Steps <= 0 {
		c.Steps = 200
	}
	if c.Codec == "" {
		c.Codec = "dict"
	}
	return c
}

// workloads splits the scenario list, dropping blank names.
func (c Config) workloads() []string {
	var out []string
	for _, s := range strings.Split(c.Workload, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// busyRetryMax bounds RetryBusy re-attempts per fetch; busyRetryBase
// scales the capped backoff between them.
const (
	busyRetryMax  = 5
	busyRetryBase = 10 * time.Millisecond
)

// FetchRecord is one -trace-out JSONL line: a single block fetch as
// the client saw it, joined with the server's stage attribution.
type FetchRecord struct {
	Client   int              `json:"client"`
	Workload string           `json:"workload"`
	Block    int              `json:"block"`
	Codec    string           `json:"codec"`
	TotalNS  int64            `json:"total_ns"`         // client-observed fetch latency
	TraceID  uint64           `json:"trace,omitempty"`  // X-Apcc-Trace (0 if tracing off)
	Stages   map[string]int64 `json:"stages,omitempty"` // stage -> exclusive ns, from X-Apcc-Stages
	// Word/Words carry the requested span of a word read. Words > 0
	// marks the row as a word read (an absent "word" field then means
	// the span starts at word 0); both are absent on full-block fetches.
	Word  int    `json:"word,omitempty"`
	Words int    `json:"words,omitempty"`
	Err   string `json:"err,omitempty"`
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
		out[stage] += ns // repeated stages (route before and after a build) sum
	}
	return out
}

// Stats aggregates a load run.
type Stats struct {
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
	Bytes       int64 // payload bytes received
	Duration    time.Duration
	Latency     *service.Histogram // per-fetch latency across all clients
	FirstError  error              // sample for diagnostics
}

// Throughput returns fetches per second over the run.
func (s *Stats) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Requests) / s.Duration.Seconds()
}

// add folds one device's counts into the run's.
func (s *Stats) add(d *Stats) {
	s.Requests += d.Requests
	s.WordReads += d.WordReads
	s.Errors += d.Errors
	s.VerifyErrors += d.VerifyErrors
	s.BusyRetries += d.BusyRetries
	s.Bytes += d.Bytes
	if s.FirstError == nil {
		s.FirstError = d.FirstError
	}
}

// Run replays the workload's access pattern from Clients concurrent
// devices. Each device first fetches the whole container and unpacks
// it (running checksum verification), then walks its own seeded trace,
// fetching each visited block over HTTP and checking it against the
// unpacked image and its CRC header. Any mismatch counts as an error.
func Run(ctx context.Context, cfg Config) (*Stats, error) {
	cfg = cfg.withDefaults()
	client := cfg.Client
	if client == nil {
		tr := &http.Transport{
			MaxIdleConns:        cfg.Clients * 2,
			MaxIdleConnsPerHost: cfg.Clients * 2,
		}
		// A transport made here is closed here: its keep-alive
		// connections would otherwise stay open, with a goroutine at
		// each end, until the server's idle timeout. A caller's client
		// is the caller's to close.
		defer tr.CloseIdleConnections()
		client = &http.Client{Transport: tr}
	}
	scenarios := cfg.workloads()
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("loadgen: empty workload list")
	}

	stats := &Stats{Clients: cfg.Clients, Latency: &service.Histogram{}}
	var mu sync.Mutex
	var sink func(*FetchRecord) // serializes the JSONL rows of all devices
	if cfg.TraceOut != nil {
		enc := json.NewEncoder(cfg.TraceOut)
		sink = func(rec *FetchRecord) { mu.Lock(); enc.Encode(rec); mu.Unlock() }
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			d := &device{id: id, workload: scenarios[id%len(scenarios)], cfg: cfg,
				client: client, lat: stats.Latency, sink: sink}
			if err := d.run(ctx); err != nil {
				d.st.Errors++
				d.st.FirstError = err
			}
			mu.Lock()
			defer mu.Unlock()
			stats.add(&d.st)
		}(i)
	}
	wg.Wait()
	stats.Duration = time.Since(start)
	return stats, nil
}

// device is one simulated device: the workload it replays, the
// unpacked image it checks every response against, and its counts.
type device struct {
	id       int
	workload string
	cfg      Config
	client   *http.Client
	lat      *service.Histogram
	sink     func(*FetchRecord)
	codec    compress.Codec
	want     [][]byte // the unpacked image, block by block
	st       Stats
}

// run fetches and unpacks the device's container, then replays its
// seeded trace, one visit per step.
func (d *device) run(ctx context.Context) error {
	url := fmt.Sprintf("%s/v1/pack/%s?codec=%s", d.cfg.BaseURL, d.workload, d.cfg.Codec)
	body, _, err := get(ctx, d.client, url, d.cfg.RetryBusy, &d.st.BusyRetries)
	if err != nil {
		return fmt.Errorf("container fetch: %w", err)
	}
	// Unpack runs the whole-image checksum verification client-side.
	prog, codec, _, err := pack.Unpack(d.workload, body)
	if err != nil {
		return fmt.Errorf("container verify: %w", err)
	}
	if d.want, err = prog.AllBlockBytes(); err != nil {
		return err
	}
	d.codec = codec
	seed := d.cfg.Seed + int64(d.id)
	tr, err := trace.Generate(prog.Graph, trace.GenConfig{Seed: seed, MaxSteps: d.cfg.Steps, Restart: true})
	if err != nil {
		return err
	}
	// One decode buffer per device, sized for its largest block and
	// reused across every fetched block — a simulated device
	// decompresses into fixed scratch, not a fresh slice per block.
	maxBlock := 0
	for _, b := range d.want {
		maxBlock = max(maxBlock, len(b))
	}
	scratch := make([]byte, 0, maxBlock)
	// The wordread scenario draws start words from a zipf over the
	// largest block's word range (folded into each block's own range):
	// a few hot words soak up most probes, the tail keeps every group
	// of the directory warm. Seeded per client, like the block walk.
	var rng *rand.Rand
	var zipf *rand.Zipf
	if d.cfg.WordFrac > 0 && maxBlock/isa.WordSize > 1 {
		rng = rand.New(rand.NewSource(seed + 0x77647264))
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(maxBlock/isa.WordSize-1))
	}
	for _, id := range tr.Blocks {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		word, nwords := 0, 0
		if zipf != nil && rng.Float64() < d.cfg.WordFrac {
			blockWords := len(d.want[id]) / isa.WordSize
			word = int(zipf.Uint64()) % blockWords
			nwords = min(1+rng.Intn(4), blockWords-word)
		}
		scratch = d.visit(ctx, int(id), word, nwords, scratch)
	}
	return nil
}

// visit is one device step: a fetch of block id (nwords 0), or a read
// of its words [word, word+nwords). It times and counts the request,
// checks the response, and writes the step's FetchRecord. It returns
// the (possibly grown) scratch.
func (d *device) visit(ctx context.Context, id, word, nwords int, scratch []byte) []byte {
	url := fmt.Sprintf("%s/v1/block/%s/%d?codec=%s", d.cfg.BaseURL, d.workload, id, d.cfg.Codec)
	want := d.want[id]
	if nwords > 0 {
		url += fmt.Sprintf("&word=%d&words=%d", word, nwords)
		want = want[word*isa.WordSize : (word+nwords)*isa.WordSize]
		d.st.WordReads++
	}
	t0 := time.Now()
	body, hdr, err := get(ctx, d.client, url, d.cfg.RetryBusy, &d.st.BusyRetries)
	elapsed := time.Since(t0)
	d.lat.Observe(elapsed)
	d.st.Requests++
	if err == nil {
		d.st.Bytes += int64(len(body))
		if scratch, err = check(d.codec, body, hdr, want, scratch, nwords == 0); err != nil {
			d.st.VerifyErrors++
		}
	}
	if err != nil {
		d.st.Errors++
		if d.st.FirstError == nil {
			where := fmt.Sprintf("block %d", id)
			if nwords > 0 {
				where += fmt.Sprintf(" word %d+%d", word, nwords)
			}
			d.st.FirstError = fmt.Errorf("%s: %w", where, err)
		}
	}
	if d.sink != nil {
		rec := &FetchRecord{
			Client: d.id, Workload: d.workload, Block: id, Codec: d.cfg.Codec,
			TotalNS: int64(elapsed), Word: word, Words: nwords,
		}
		if hdr != nil {
			rec.TraceID, _ = strconv.ParseUint(hdr.Get(service.HeaderTrace), 10, 64)
			rec.Stages = parseStagesHeader(hdr.Get(service.HeaderStages))
		}
		if err != nil {
			rec.Err = err.Error()
		}
		d.sink(rec)
	}
	return scratch
}

// check is the device's one byte check. A block payload (decode) is
// decompressed into scratch first; a word span's body is plain bytes
// already. The plain bytes must equal want, their image from
// pack.Unpack, and the response must carry their CRC in X-Apcc-Crc32.
// It returns the (possibly grown) scratch.
func check(codec compress.Codec, body []byte, hdr http.Header, want, scratch []byte, decode bool) ([]byte, error) {
	plain := body
	if decode {
		out, err := codec.DecompressAppend(scratch[:0], body)
		if err != nil {
			return scratch, fmt.Errorf("decompress: %w", err)
		}
		scratch, plain = out, out
	}
	if !bytes.Equal(plain, want) {
		return scratch, fmt.Errorf("plain bytes differ from the unpacked image (%d bytes, %d expected)", len(plain), len(want))
	}
	h := hdr.Get(service.HeaderCRC)
	crc, err := strconv.ParseUint(h, 16, 32)
	if err != nil {
		return scratch, fmt.Errorf("bad or missing %s header %q", service.HeaderCRC, h)
	}
	if got := crc32.ChecksumIEEE(plain); got != uint32(crc) {
		return scratch, fmt.Errorf("crc mismatch: %08x != %08x", got, crc)
	}
	return scratch, nil
}

// CodecMixStats is one codec's leg of a RunCodecMix sweep.
type CodecMixStats struct {
	Codec string
	Stats *Stats
}

// RunCodecMix replays the same load scenario once per registered codec,
// in registry order. Every leg packs, serves, decompresses and verifies
// the same workload set under a different codec, so after a mix run the
// server's per-codec metrics (entry memory, Prometheus stage/codec
// labels, decode attribution) are populated across the whole codec
// family — the end-to-end exercise for codec-labelled observability.
// cfg.Codec is ignored; each leg sets its own.
func RunCodecMix(ctx context.Context, cfg Config) ([]CodecMixStats, error) {
	names := compress.Names()
	out := make([]CodecMixStats, 0, len(names))
	for _, name := range names {
		leg := cfg
		leg.Codec = name
		st, err := Run(ctx, leg)
		if err != nil {
			return nil, fmt.Errorf("loadgen: codecmix %s: %w", name, err)
		}
		out = append(out, CodecMixStats{Codec: name, Stats: st})
	}
	return out, nil
}

// ColdWarmStats reports the two phases of a cold-start/warm-restart
// scenario run against the same store directory.
type ColdWarmStats struct {
	Cold, Warm                 *Stats
	ColdPacks, WarmPacks       int64         // containers actually built per phase
	ColdRestores, WarmRestores int64         // entries restored from the store per phase
	ColdFirst, WarmFirst       time.Duration // time to the first served container
}

// RunColdWarm is the restart scenario: phase one starts a server
// against cfg.StoreDir (typically empty — every container is packed
// from scratch and persisted), replays the load, and shuts the server
// down. Phase two starts a *fresh* server on the same directory and
// replays the same load; with a warm store it must restore containers
// from disk without invoking the packer. The two phases' pack and
// restore counts and first-container latencies quantify what the disk
// tier buys a restarted server.
func RunColdWarm(ctx context.Context, cfg service.Config, lcfg Config) (*ColdWarmStats, error) {
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("loadgen: cold/warm scenario requires Config.StoreDir")
	}
	lcfg = lcfg.withDefaults()
	wls := lcfg.workloads()
	if len(wls) == 0 {
		return nil, fmt.Errorf("loadgen: empty workload list")
	}
	out := &ColdWarmStats{}
	run := func(packs *int64, first *time.Duration, restores *int64) (*Stats, error) {
		srv, base, stop, err := service.ServeLoopback(cfg)
		if err != nil {
			return nil, err
		}
		defer stop()

		phase := lcfg
		phase.BaseURL = base
		phase.Client = nil

		// Time-to-first-container: what a device waits on after the
		// server (re)starts — packer latency cold, disk restore warm.
		t0 := time.Now()
		url := fmt.Sprintf("%s/v1/pack/%s?codec=%s", base, wls[0], phase.Codec)
		if _, _, err := get(ctx, http.DefaultClient, url, false, nil); err != nil {
			return nil, err
		}
		*first = time.Since(t0)

		stats, err := Run(ctx, phase)
		if err != nil {
			return nil, err
		}
		*packs = srv.Metrics().Packs.Load()
		*restores = srv.Metrics().StoreWarm.Load()
		return stats, nil
	}
	var err error
	if out.Cold, err = run(&out.ColdPacks, &out.ColdFirst, &out.ColdRestores); err != nil {
		return nil, fmt.Errorf("cold phase: %w", err)
	}
	if out.Warm, err = run(&out.WarmPacks, &out.WarmFirst, &out.WarmRestores); err != nil {
		return nil, fmt.Errorf("warm phase: %w", err)
	}
	return out, nil
}

// get GETs url and returns the body and headers of a 200 response; any
// other status is an error naming it. With retry, the server's "try
// again later" statuses (429, 503, 504) are re-attempted with capped
// exponential backoff, each re-attempt counted in *retries.
func get(ctx context.Context, client *http.Client, url string, retry bool, retries *int64) ([]byte, http.Header, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		if resp.StatusCode == http.StatusOK {
			return body, resp.Header, nil
		}
		err = fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
		busy := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusGatewayTimeout
		if !retry || !busy || attempt >= busyRetryMax {
			return nil, nil, err
		}
		*retries++
		t := time.NewTimer(min(busyRetryBase<<attempt, 4*busyRetryBase))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, nil, err
		}
	}
}
