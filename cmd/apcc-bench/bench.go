package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"apbcc/internal/obs"
	"apbcc/internal/service"
	"apbcc/internal/store"
)

// setupGap spaces a run's set-ups, so a short burst of host load
// slows only a few of them and the median skips it.
const setupGap = 100 * time.Millisecond

// plan sets the phases of one workload run.
type plan struct {
	setups                   int           // fresh set-ups; setup_s is their median
	warmup, untraced, traced time.Duration // traced 0 skips the traced phase
	direct                   time.Duration // direct layer timing budget; 0 skips them
}

// planFor maps the -trace mode to phases: 0 measures the end-to-end
// metrics over the whole run time, 1 splits it between an untraced and
// a traced phase for the per-layer metrics, -1 does both.
func planFor(traceMode int, seconds time.Duration) plan {
	p := plan{setups: 15, warmup: min(2*time.Second, seconds/10), untraced: seconds}
	switch traceMode {
	case 1:
		p.setups, p.untraced, p.traced, p.direct = 1, seconds/2, seconds/2, time.Second
	case -1:
		p.traced, p.direct = seconds/4, time.Second
	}
	return p
}

// runResult is one workload run as written to -out files.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// count adds the clients' last phase to the run's totals.
func (r *runResult) count(cls []*client) {
	for _, c := range cls {
		for _, t := range []*tally{&c.t, &c.rt} {
			r.Attempted += t.attempted
			r.Failed += t.failed
			if t.firstErr != nil && len(r.Errors) < 4 {
				r.Errors = append(r.Errors, t.firstErr.Error())
			}
		}
	}
}

// runWorkload runs one workload: set-ups, warm-up, the untraced phase
// (end-to-end metrics, counters, runtime), the traced phase on a fresh
// server (stage attribution) and the direct layer timings, as p says.
func runWorkload(w *workload, seed int64, p plan) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Metrics: map[string]float64{}}
	m := res.Metrics
	host0, err := readHostStat()
	if err != nil {
		return nil, err
	}
	var posts []*posted
	if w.packs {
		if posts, err = genPosted(seed); err != nil {
			return nil, err
		}
	}
	ref, err := startRef()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	cls := newClients(numClients)
	defer func() {
		for _, c := range cls {
			c.hc.CloseIdleConnections()
		}
	}()
	for _, c := range cls {
		if c.refGet, err = newGet(ref.base); err != nil {
			return nil, err
		}
	}

	targets, events, err := untracedRun(res, w, seed, cls, posts, p, ref)
	if err != nil {
		return nil, err
	}
	if p.traced > 0 {
		ev, err := tracedRun(res, w, cls, targets, p, ref)
		if err != nil {
			return nil, err
		}
		events += ev
	}
	if p.direct > 0 {
		if err := directTimings(m, directPairs(w, targets, posts), p.direct); err != nil {
			return nil, err
		}
	}
	m["resilience.events"] = float64(events)
	host1, err := readHostStat()
	if err != nil {
		return nil, err
	}
	m["host.loadavg1"] = host1.load1
	m["host.steal_frac"] = host1.stealFrac(host0)
	res.Correct = res.Failed == 0 && events == 0
	return res, nil
}

// untracedRun sets up p.setups fresh servers, keeps the last, and runs
// the warm-up and the untraced phase on it, interleaved with reference
// windows. It derives the end-to-end metrics and the counter and
// runtime per-layer metrics, then reads the server's resident memory
// and closes it. It returns the clients' oracle and the resilience
// events of every server it closed.
func untracedRun(res *runResult, w *workload, seed int64, cls []*client, posts []*posted, p plan, ref *refServer) (targets []*target, events int64, err error) {
	m := res.Metrics
	var f *fixture
	defer func() {
		if f != nil {
			events += f.close()
		}
	}()
	var setups []float64
	for i := 0; i < p.setups; i++ {
		if f != nil {
			events += f.close()
			f = nil
		}
		var tg []*target
		var took time.Duration
		if i > 0 {
			time.Sleep(setupGap)
		}
		if f, tg, took, err = setUp(w, cls[0], false); err != nil {
			return nil, events, fmt.Errorf("%s set-up %d: %w", w.name, i+1, err)
		}
		if targets == nil {
			targets = tg
		} else if err := sameOracle(targets, tg); err != nil {
			return nil, events, err
		}
		setups = append(setups, took.Seconds())
	}
	m["setup_s"] = median(setups)
	for i, c := range cls {
		if err := c.startGen(w, seed, i, targets, posts); err != nil {
			return nil, events, err
		}
		if err := c.attach(f.base); err != nil {
			return nil, events, err
		}
	}

	runPhase(cls, p.warmup, false, nil)
	res.count(cls)
	before, err := takeSnapshot(f, cls[0])
	if err != nil {
		return nil, events, err
	}
	dur, refDur, marks := runPhase(cls, p.untraced, false, ref)
	res.count(cls)
	after, err := takeSnapshot(f, cls[0])
	if err != nil {
		return nil, events, err
	}
	untracedMetrics(m, w, cls, dur, before, after)
	// The end-to-end rates and latencies are taken relative to the
	// reference server, measured in windows between the load's: host
	// speed moves both alike and drops out.
	refLat := refSamples(cls)
	m["ref.req_per_s"] = float64(len(refLat)) / refDur.Seconds()
	m["ref.p50_us"], m["ref.p99_us"] = quantileUS(refLat, 0.50), quantileUS(refLat, 0.99)
	m["rel_req_per_s"] = m["req_per_s"] / m["ref.req_per_s"]
	m["rel_p50"] = m["p50_us"] / m["ref.p50_us"]
	m["rel_p90"] = windowQuantile(cls, marks, w.primary, 0.90) / m["ref.p50_us"]

	// Resident memory: live heap with the server open, minus the same
	// after it is closed and released. Both readings follow the same
	// last requests and hold no connection buffers.
	for _, c := range cls {
		if err := c.replayFirst(); err != nil {
			res.Failed++
			res.Errors = append(res.Errors, err.Error())
		}
		c.hc.CloseIdleConnections()
	}
	if err := f.waitNoConns(); err != nil {
		return nil, events, err
	}
	open := liveHeap()
	events += f.close()
	f = nil
	m["resident_mb"] = (open - liveHeap()) / 1e6
	return targets, events, nil
}

// tracedRun sets up a fresh, otherwise identical server with tracing
// on, runs the warm-up and the traced phase, and derives the stage
// attribution metrics.
func tracedRun(res *runResult, w *workload, cls []*client, targets []*target, p plan, ref *refServer) (int64, error) {
	f, tg, _, err := setUp(w, cls[0], true)
	if err != nil {
		return 0, fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	err = sameOracle(targets, tg)
	for _, c := range cls {
		if err == nil {
			err = c.attach(f.base)
		}
	}
	if err == nil {
		err = tracedPhase(res, f, cls, p, ref)
	}
	events := f.close()
	return events, err
}

// snapshot is the server's and the process's counters at one instant.
type snapshot struct {
	mem   runtime.MemStats
	cpu   time.Duration
	cache service.CacheStats
	store store.Stats
	srv   struct{ l2Hits, l2Misses, readahead, wordReads, storeWordReads int64 }
	prom  map[string]float64
}

func takeSnapshot(f *fixture, c *client) (*snapshot, error) {
	s := &snapshot{cache: f.srv.CacheStats()}
	if st := f.srv.Store(); st != nil {
		s.store = st.Stats()
	}
	mt := f.srv.Metrics()
	s.srv.l2Hits, s.srv.l2Misses = mt.StoreL2Hits.Load(), mt.StoreL2Misses.Load()
	s.srv.readahead = mt.StoreReadahead.Load()
	s.srv.wordReads, s.srv.storeWordReads = mt.WordReads.Load(), mt.StoreWordReads.Load()
	var err error
	if s.prom, err = scrapeProm(c); err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	runtime.ReadMemStats(&s.mem)
	return s, nil
}

// scrapeProm reads /metrics/prom into series → value ("name{labels}").
func scrapeProm(c *client) (map[string]float64, error) {
	c.get.URL.Path, c.get.URL.RawQuery = "/metrics/prom", ""
	if _, err := c.roundTrip(c.get); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&c.body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad exposition line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// promSum sums every series of a family whose labels start with prefix.
func promSum(p map[string]float64, family, prefix string) float64 {
	var sum float64
	for k, v := range p {
		if k == family && prefix == "" || strings.HasPrefix(k, family+"{"+prefix) {
			sum += v
		}
	}
	return sum
}

// untracedMetrics derives the end-to-end metrics and the counter and
// runtime per-layer metrics from the untraced phase.
func untracedMetrics(m map[string]float64, w *workload, cls []*client, dur time.Duration, b, a *snapshot) {
	var primary, reads []uint32
	var ok, ops, comp, plain, readOps int64
	for _, c := range cls {
		ops += c.t.attempted
		if c.kind != opPack {
			reads = append(reads, c.t.lat...)
			readOps += c.t.attempted
		}
		if !w.primary(c) {
			continue
		}
		primary = append(primary, c.t.lat...)
		ok += c.t.attempted - c.t.failed
		comp += c.t.comp
		plain += c.t.plain
	}
	m["req_per_s"] = float64(ok) / dur.Seconds()
	slices.Sort(primary)
	m["p50_us"] = quantileUS(primary, 0.50)
	m["p99_us"] = quantileUS(primary, 0.99)
	m["e2e.p999_us"] = quantileUS(primary, 0.999)
	slices.Sort(reads)
	m["reads.p50_us"] = quantileUS(reads, 0.50)
	m["reads.p99_us"] = quantileUS(reads, 0.99)
	if w.words {
		// Word reads return plain bytes; what they cost in compressed
		// bytes is what the store read to decode them.
		comp = a.store.WordReadBytes - b.store.WordReadBytes
	}
	m["payload_ratio"] = ratio(comp, plain)

	hits := a.cache.Hits - b.cache.Hits + a.cache.Coalesced - b.cache.Coalesced
	m["cache.hit_rate"] = ratio(hits, hits+a.cache.Misses-b.cache.Misses)
	m["cache.evictions_per_req"] = ratio(a.cache.Evictions-b.cache.Evictions, readOps)
	m["cache.coalesced_per_req"] = ratio(a.cache.Coalesced-b.cache.Coalesced, readOps)

	jobs := promSum(a.prom, "apcc_pool_jobs_total", `state="completed"`) - promSum(b.prom, "apcc_pool_jobs_total", `state="completed"`)
	m["pool.jobs_per_s"] = jobs / dur.Seconds()
	m["pool.mean_batch"] = fratio(jobs, promSum(a.prom, "apcc_pool_batches_total", "")-promSum(b.prom, "apcc_pool_batches_total", ""))

	l2Hits := a.srv.l2Hits - b.srv.l2Hits
	m["store.l2_hit_frac"] = ratio(l2Hits, l2Hits+a.srv.l2Misses-b.srv.l2Misses)
	m["store.block_reads_per_req"] = ratio(a.store.BlockReads-b.store.BlockReads, readOps)
	m["store.block_kb_per_req"] = ratio(a.store.BlockBytes-b.store.BlockBytes, readOps) / 1024
	m["store.readahead_per_l2_read"] = ratio(a.srv.readahead-b.srv.readahead, l2Hits)
	m["store.word_store_frac"] = ratio(a.srv.storeWordReads-b.srv.storeWordReads, a.srv.wordReads-b.srv.wordReads)
	m["store.word_kb_per_req"] = ratio(a.store.WordReadBytes-b.store.WordReadBytes, readOps) / 1024

	// Runtime counters cover the whole process: clients and server.
	m["runtime.alloc_kb_per_req"] = ratio(int64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops) / 1024
	m["runtime.allocs_per_req"] = ratio(int64(a.mem.Mallocs-b.mem.Mallocs), ops)
	m["runtime.gc_per_kreq"] = 1000 * ratio(int64(a.mem.NumGC-b.mem.NumGC), ops)
	m["runtime.gc_pause_p99_us"] = quantileUS(gcPauses(&b.mem, &a.mem), 0.99)
	m["runtime.cpu_us_per_req"] = ratio(int64(a.cpu-b.cpu), ops) / 1e3
}

// refSamples returns the sorted round trips of a phase's reference
// windows.
func refSamples(cls []*client) []uint32 {
	var lat []uint32
	for _, c := range cls {
		lat = append(lat, c.rt.lat...)
	}
	slices.Sort(lat)
	return lat
}

func isRead(c *client) bool { return c.kind != opPack }

// primary reports whether c issues the requests the workload's
// end-to-end metrics describe: the POSTs in pack-write, reads elsewhere.
func (w *workload) primary(c *client) bool { return w.packs == (c.kind == opPack) }

// windowQuantile is the median over load windows of the q-quantile
// latency of the picked clients, in µs: one window of heavy host
// interference moves it far less than it moves the phase's own
// quantile.
func windowQuantile(cls []*client, marks [][]int, pick func(*client) bool, q float64) float64 {
	var qs []float64
	start := make([]int, len(cls))
	for _, mark := range marks {
		var lat []uint32
		for i, c := range cls {
			if pick(c) {
				lat = append(lat, c.t.lat[start[i]:mark[i]]...)
			}
			start[i] = mark[i]
		}
		slices.Sort(lat)
		qs = append(qs, quantileUS(lat, q))
	}
	return median(qs)
}

// gcPauses returns the sorted pause times of the collections between
// two MemStats readings (at most the last 256, which MemStats keeps).
func gcPauses(b, a *runtime.MemStats) []uint32 {
	var out []uint32
	lo := b.NumGC + 1
	if a.NumGC > 256 {
		lo = max(lo, a.NumGC-255)
	}
	for n := lo; n <= a.NumGC; n++ {
		out = append(out, uint32(min(a.PauseNs[(n+255)%256], math.MaxUint32)))
	}
	slices.Sort(out)
	return out
}

// tracedPhase runs the warm-up and the traced phase on a fresh traced
// server and derives the stage attribution metrics.
func tracedPhase(res *runResult, f *fixture, cls []*client, p plan, ref *refServer) error {
	m := res.Metrics
	runPhase(cls, p.warmup, true, nil)
	res.count(cls)
	before, err := scrapeProm(cls[0])
	if err != nil {
		return err
	}
	runPhase(cls, p.traced, true, ref)
	res.count(cls)
	after, err := scrapeProm(cls[0])
	if err != nil {
		return err
	}

	var traced, tracedNS int64
	var count, ns [len(stages)]int64
	var reads, route, transport []uint32
	for _, c := range cls {
		if !isRead(c) {
			continue
		}
		reads = append(reads, c.t.lat...)
		traced += c.t.traced
		tracedNS += c.t.tracedNS
		for i := range stages {
			count[i] += c.t.stageCount[i]
			ns[i] += c.t.stageNS[i]
		}
		route = append(route, c.t.route...)
		transport = append(transport, c.t.transport...)
	}
	var transportNS int64
	for _, v := range transport {
		transportNS += int64(v)
	}
	slices.Sort(transport)
	m["transport.p50_us"] = quantileUS(transport, 0.50)
	m["transport.p99_us"] = quantileUS(transport, 0.99)
	m["transport.frac"] = ratio(transportNS, tracedNS)
	for i, s := range stages {
		m["stage."+s+".per_req"] = ratio(count[i], traced)
		m["stage."+s+".frac"] = ratio(ns[i], tracedNS)
	}
	slices.Sort(route)
	m["stage.route.p50_us"] = quantileUS(route, 0.50)
	m["stage.route.p99_us"] = quantileUS(route, 0.99)
	sum := promSum(after, "apcc_block_stage_seconds_sum", `stage="write"`) - promSum(before, "apcc_block_stage_seconds_sum", `stage="write"`)
	n := promSum(after, "apcc_block_stage_seconds_count", `stage="write"`) - promSum(before, "apcc_block_stage_seconds_count", `stage="write"`)
	m["stage.write.mean_us"] = fratio(sum, n) * 1e6
	slices.Sort(reads)
	// Tracing overhead: the reads' median relative to the reference,
	// traced over untraced.
	traced50 := quantileUS(reads, 0.50) / quantileUS(refSamples(cls), 0.50)
	m["trace.overhead_frac"] = traced50/(m["reads.p50_us"]/m["ref.p50_us"]) - 1

	// Reconciliation: the server's own span self times against its
	// request totals, over the traces its ring still holds.
	c := cls[0]
	c.get.URL.Path, c.get.URL.RawQuery = "/debug/trace", "n=100000"
	if _, err := c.roundTrip(c.get); err != nil {
		return err
	}
	var dump obs.Dump
	if err := json.Unmarshal(c.body.Bytes(), &dump); err != nil {
		return fmt.Errorf("decode /debug/trace: %w", err)
	}
	var self, total int64
	for _, r := range dump.Traces {
		total += r.TotalNS
		for _, sp := range r.Spans {
			self += sp.ExclNS
		}
	}
	m["stage.sum_frac"] = ratio(self, total)
	return nil
}

// quantileUS is the exact q-quantile (nearest rank) of sorted ns
// samples, in µs; 0 for no samples.
func quantileUS(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / 1e3
}

func ratio(a, b int64) float64 { return fratio(float64(a), float64(b)) }

func fratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeap returns the live heap after collections that also empty
// the sync.Pools.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// hostStat is the host's load average and CPU time counters.
type hostStat struct {
	load1        float64
	steal, total uint64
}

func readHostStat() (hostStat, error) {
	var h hostStat
	la, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return h, err
	}
	if h.load1, err = strconv.ParseFloat(strings.Fields(string(la))[0], 64); err != nil {
		return h, err
	}
	st, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h, err
	}
	line, _, _ := strings.Cut(string(st), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(line)
	for i, f := range fields[1:min(9, len(fields))] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return h, fmt.Errorf("/proc/stat: %w", err)
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h, nil
}

func (h hostStat) stealFrac(since hostStat) float64 {
	return ratio(int64(h.steal-since.steal), int64(h.total-since.total))
}

// median is the middle value (mean of the middle two for even counts).
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
