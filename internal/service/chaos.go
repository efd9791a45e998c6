package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/faults"
	"apbcc/internal/isa"
	"apbcc/internal/pack"
	"apbcc/internal/report"
	"apbcc/internal/store"
	"apbcc/internal/workloads"
)

// ChaosStats summarizes a RunChaos run: what the fault layer injected,
// how the serving path reacted, and — the point of the whole exercise —
// whether any client ever saw wrong bytes.
type ChaosStats struct {
	Load *LoadStats // phase-1 load under the injected fault profile

	// WrongBytes is the number of 200 responses whose payload failed
	// client-side verification. Any value but zero is a correctness
	// bug: faults may cost latency and availability, never integrity.
	WrongBytes int64

	Shed            int64            // requests rejected 429 by admission control
	Quarantined     int64            // store objects quarantined as corrupt
	DegradedFetches int64            // phase-2 word reads served from memory while every store read failed
	Recovered       bool             // phase 3's word read came from the store again
	Injected        map[string]int64 // faults injected, by action kind

	P99 time.Duration // phase-1 client-observed fetch latency p99
}

// WriteReport renders the chaos run as a table.
func (c *ChaosStats) WriteReport(w io.Writer) error {
	t := report.NewTable("chaos", "metric", "value")
	t.AddRow("requests", c.Load.Requests)
	t.AddRow("word_reads", c.Load.WordReads)
	t.AddRow("http_errors", c.Load.Errors)
	t.AddRow("wrong_bytes", c.WrongBytes)
	t.AddRow("busy_retries", c.Load.BusyRetries)
	t.AddRow("p99", c.P99.String())
	t.AddRow("shed", c.Shed)
	t.AddRow("quarantined", c.Quarantined)
	t.AddRow("degraded_fetches", c.DegradedFetches)
	t.AddRow("recovered", c.Recovered)
	for _, kind := range []string{faults.KindLatency, faults.KindTransient, faults.KindBitFlip} {
		t.AddRow("injected_"+kind, c.Injected[kind])
	}
	_, err := t.WriteTo(w)
	return err
}

// Err reports whether the run violated the chaos contract: zero wrong
// bytes, word reads that kept answering while the store failed, and an
// object still attached once the faults cleared.
func (c *ChaosStats) Err() error {
	if c.WrongBytes != 0 {
		return fmt.Errorf("chaos: %d responses carried wrong bytes", c.WrongBytes)
	}
	if c.DegradedFetches == 0 {
		return fmt.Errorf("chaos: no word read was served while the store failed")
	}
	if !c.Recovered {
		return fmt.Errorf("chaos: word reads never returned to the store after the faults cleared")
	}
	return nil
}

// chaosPhaseTimeout bounds how long the scenario waits for an entry's
// store object to attach, so a wedged server fails the run instead of
// hanging it.
const chaosPhaseTimeout = 30 * time.Second

// waitAttached waits until the (workload, codec) entry has its own store
// object attached. Only that entry's persist attaches it, so a persist
// of some other entry still running cannot satisfy the wait, as it
// could a wait on StorePersists. A failed persist never attaches: the
// wait ends at timeout or when ctx does.
func (s *Server) waitAttached(ctx context.Context, workload, codecName string, timeout time.Duration) error {
	key := store.RefName(workload, codecName)
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		ent := s.entries[key]
		s.mu.Unlock()
		if ent != nil && ent.obj.Load() != nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service: %s store object never attached", key)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// RunChaos is the fault-injection end-to-end scenario. It boots an
// in-process server on cfg (which must have a StoreDir — the faults
// under test live on the store read path, which word reads take), seeds
// the fault layer, then runs three phases:
//
//  1. Load under the caller's fault profile (latency, transient errors,
//     bit flips on store reads), half of it word reads (unless
//     lcfg.WordFrac says otherwise) against entries whose store objects
//     attached before the profile was armed, so the store is read:
//     clients must see zero wrong bytes no matter what the disk does,
//     because block reads never leave memory and every word read's
//     disk bytes are cross-checked against the resident container.
//  2. Hard failure: every store read fails against a fresh entry whose
//     codec decodes word groups. Every word read must still succeed,
//     from memory, without quarantining the object — degraded, not
//     down.
//  3. Heal: faults clear, and the next word read must come from the
//     store again, proving the object stayed attached.
//
// The fault layer is reset on the way out. Faults injected by the
// profile are process-global while the run lasts, so don't run chaos
// concurrently with anything that must not see them.
func RunChaos(ctx context.Context, cfg Config, lcfg LoadConfig, profile string, seed uint64) (*ChaosStats, error) {
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("service: chaos scenario requires Config.StoreDir")
	}
	faults.Reset()
	defer faults.Reset()
	faults.SetSeed(seed)

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
		Handler:      srv.Handler(),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}
	loadCodec := lcfg.Codec
	if loadCodec == "" {
		loadCodec = "dict" // RunLoad's default: what phase 1 actually uses
	}

	// Phase 1: build the load's entries and wait for their objects, so
	// word reads meet the store, then load under the caller's profile.
	// Clients retry the busy/transient statuses like a real device would.
	for _, wl := range strings.Split(lcfg.Workload, ",") {
		if wl = strings.TrimSpace(wl); wl == "" {
			continue
		}
		if _, _, err := fetch(ctx, client, base+"/v1/pack/"+wl+"?codec="+loadCodec); err != nil {
			return nil, fmt.Errorf("chaos phase 1 container build: %w", err)
		}
		if err := srv.waitAttached(ctx, wl, loadCodec, chaosPhaseTimeout); err != nil {
			return nil, fmt.Errorf("chaos phase 1: %w", err)
		}
	}
	if profile != "" {
		if err := faults.Set(profile); err != nil {
			return nil, err
		}
	}
	phase := lcfg
	phase.BaseURL = base
	phase.Client = nil
	phase.RetryBusy = true
	if phase.WordFrac == 0 {
		phase.WordFrac = 0.5
	}
	load, err := RunLoad(ctx, phase)
	if err != nil {
		return nil, fmt.Errorf("chaos load phase: %w", err)
	}
	if err := faults.Set(""); err != nil {
		return nil, err
	}

	st := &ChaosStats{
		Load:       load,
		WrongBytes: load.VerifyErrors,
		P99:        load.Latency.Quantile(0.99),
	}

	// Phases 2 and 3 drive one fresh entry deterministically: a codec
	// phase 1 did not use, so its object is untouched by phase 1's bit
	// flips, and one that decodes word groups, so its word reads go to
	// the store. The codec is picked from the registry rather than
	// hardcoded so running chaos with any -codec still finds one.
	wl := strings.TrimSpace(strings.Split(lcfg.Workload, ",")[0])
	w, err := workloads.ByName(wl)
	if err != nil {
		return nil, err
	}
	code, err := w.Program.CodeBytes()
	if err != nil {
		return nil, err
	}
	coldCodec := ""
	for _, name := range compress.Names() {
		if name == loadCodec {
			continue
		}
		if c, err := compress.New(name, code); err == nil {
			if _, ok := compress.AsGroupCodec(c); ok {
				coldCodec = name
				break
			}
		}
	}
	if coldCodec == "" {
		return nil, fmt.Errorf("chaos: no group-decoding codec distinct from %q for phases 2/3", loadCodec)
	}

	// Build the cold-codec entry, unpack it as the oracle, and wait for
	// its own object to attach: the object phases 2/3 exercise.
	container, _, err := fetch(ctx, client, base+"/v1/pack/"+wl+"?codec="+coldCodec)
	if err != nil {
		return nil, fmt.Errorf("chaos phase 2 container build: %w", err)
	}
	prog, _, _, err := pack.Unpack(wl, container)
	if err != nil {
		return nil, fmt.Errorf("chaos phase 2 container verify: %w", err)
	}
	want, err := prog.AllBlockBytes()
	if err != nil {
		return nil, err
	}
	if err := srv.waitAttached(ctx, wl, coldCodec, chaosPhaseTimeout); err != nil {
		return nil, fmt.Errorf("chaos phase 2: %w", err)
	}
	// fetchWord reads block id's first word and reports where it came
	// from; wrong bytes are counted, not returned, like phase 1's.
	fetchWord := func(id int) (string, error) {
		body, hdr, err := fetch(ctx, client,
			fmt.Sprintf("%s/v1/block/%s/%d?codec=%s&word=0&words=1", base, wl, id, coldCodec))
		if err != nil {
			return "", err
		}
		if !bytes.Equal(body, want[id][:isa.WordSize]) {
			st.WrongBytes++
		}
		return hdr.Get(HeaderSource), nil
	}

	// Phase 2: every store read fails. Each block's word read must
	// still answer, from memory, and a transient failure must never
	// quarantine the object.
	if err := faults.Set("store.read-at:p=1,err"); err != nil {
		return nil, err
	}
	quar0 := srv.Store().Stats().Quarantined
	for id := range want {
		source, err := fetchWord(id)
		if err != nil {
			return nil, fmt.Errorf("chaos phase 2: degraded word read failed: %w", err)
		}
		if source != "memory" {
			return nil, fmt.Errorf("chaos phase 2: block %d word read came from %q with every store read failing", id, source)
		}
		st.DegradedFetches++
	}
	if q := srv.Store().Stats().Quarantined; q != quar0 {
		return nil, fmt.Errorf("chaos phase 2: transient store failures quarantined %d objects", q-quar0)
	}

	// Phase 3: clear the faults; the object must still be attached.
	if err := faults.Set(""); err != nil {
		return nil, err
	}
	source, err := fetchWord(0)
	if err != nil {
		return nil, fmt.Errorf("chaos phase 3: word read failed: %w", err)
	}
	st.Recovered = source == "store"

	st.Shed = srv.Metrics().Shed.Load()
	st.Quarantined = srv.Store().Stats().Quarantined
	st.Injected = map[string]int64{
		faults.KindLatency:   faults.InjectedTotal(faults.KindLatency),
		faults.KindTransient: faults.InjectedTotal(faults.KindTransient),
		faults.KindBitFlip:   faults.InjectedTotal(faults.KindBitFlip),
	}
	return st, nil
}
