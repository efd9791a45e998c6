package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"apbcc/internal/faults"
	"apbcc/internal/isa"
	"apbcc/internal/pack"
	"apbcc/internal/report"
	"apbcc/internal/service"
	"apbcc/internal/store"
)

// ChaosStats summarizes a RunChaos run: what the fault layer injected,
// how the serving and restore paths reacted, and — the point of the
// whole exercise — whether any client ever saw wrong bytes.
type ChaosStats struct {
	Load *Stats // phase-1 load under the injected fault profile

	// WrongBytes is the number of 200 responses whose payload failed
	// client-side verification. Any value but zero is a correctness
	// bug: faults may cost latency and availability, never integrity.
	WrongBytes int64

	Shed         int64            // requests rejected 429 by admission control
	Quarantined  int64            // store objects quarantined as corrupt
	Rebuilt      int64            // phase-2 warm restores that failed their hash, were quarantined and rebuilt cold
	WarmRestores int64            // phase-3 entries restored warm once the faults cleared
	Injected     map[string]int64 // faults injected, by action kind

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
	t.AddRow("rebuilt_restores", c.Rebuilt)
	t.AddRow("warm_restores", c.WarmRestores)
	for _, kind := range []string{faults.KindLatency, faults.KindTransient, faults.KindBitFlip} {
		t.AddRow("injected_"+kind, c.Injected[kind])
	}
	_, err := t.WriteTo(w)
	return err
}

// Err reports whether the run violated the chaos contract: zero wrong
// bytes, at least one rotten warm restore quarantined and rebuilt, and
// at least one warm restore once the faults cleared.
func (c *ChaosStats) Err() error {
	if c.WrongBytes != 0 {
		return fmt.Errorf("chaos: %d responses carried wrong bytes", c.WrongBytes)
	}
	if c.Rebuilt == 0 {
		return fmt.Errorf("chaos: no warm restore was quarantined and rebuilt under bit flips")
	}
	if c.WarmRestores == 0 {
		return fmt.Errorf("chaos: no entry restored warm after the faults cleared")
	}
	return nil
}

// chaosPhaseTimeout bounds how long the scenario waits for an entry's
// persist, so a wedged server fails the run instead of hanging it.
const chaosPhaseTimeout = 30 * time.Second

// waitPersisted waits until srv's store holds the (workload, codec)
// entry's own ref. Only that entry's persist writes it, so a persist
// of some other entry still running cannot satisfy the wait, as it
// could a wait on StorePersists. A failed persist writes no ref: the
// wait ends at timeout or when ctx does.
func waitPersisted(ctx context.Context, srv *service.Server, workload, codecName string, timeout time.Duration) error {
	name := store.RefName(workload, codecName)
	for deadline := time.Now().Add(timeout); ; time.Sleep(2 * time.Millisecond) {
		if _, ok := srv.Store().Ref(name); ok {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %s never persisted", name)
		}
	}
}

// RunChaos is the fault-injection end-to-end scenario. It boots an
// in-process server on cfg (which must have a StoreDir — phases 2 and
// 3 restart on it, and the store's restore path is the only one that
// reads it), seeds the fault layer, then runs three phases:
//
//  1. Load under the caller's fault profile, half of it word reads
//     (unless lcfg.WordFrac says otherwise), against entries whose
//     containers persisted before the profile was armed. Clients must
//     see zero wrong bytes: every block and word response comes from
//     the entry's verified resident container, whatever the profile
//     does to its latency or availability.
//  2. Rot: a new server on the same StoreDir with every store read
//     flipping a bit. Each entry's warm restore must fail its hash, be
//     quarantined and be rebuilt cold, and every block and every word
//     of the rebuilt entries must equal phase 1's containers byte for
//     byte.
//  3. Heal: faults clear, and a third server on the StoreDir must
//     restore every entry warm, without packing, and serve the same
//     bytes.
//
// The fault layer is reset on the way out. Faults injected by the
// profile are process-global while the run lasts, so don't run chaos
// concurrently with anything that must not see them.
func RunChaos(ctx context.Context, cfg service.Config, lcfg Config, profile string, seed uint64) (*ChaosStats, error) {
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("loadgen: chaos scenario requires Config.StoreDir")
	}
	faults.Reset()
	defer faults.Reset()
	faults.SetSeed(seed)
	client := &http.Client{}
	lcfg = lcfg.withDefaults()
	codec := lcfg.Codec

	// Phase 1: build the load's entries, keep their containers as the
	// oracle, and wait for their persists, so phases 2 and 3 restore
	// them; then load under the caller's profile. Clients retry the
	// busy/transient statuses like a real device would.
	srv, base, stop, err := service.ServeLoopback(cfg)
	if err != nil {
		return nil, err
	}
	defer stop()
	var oracle []chaosEntry
	for _, wl := range lcfg.workloads() {
		container, _, err := get(ctx, client, base+"/v1/pack/"+wl+"?codec="+codec, false, nil)
		if err != nil {
			return nil, fmt.Errorf("chaos phase 1 container build: %w", err)
		}
		if err := waitPersisted(ctx, srv, wl, codec, chaosPhaseTimeout); err != nil {
			return nil, fmt.Errorf("chaos phase 1: %w", err)
		}
		oracle = append(oracle, chaosEntry{workload: wl, container: container})
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
	load, err := Run(ctx, phase)
	if err != nil {
		return nil, fmt.Errorf("chaos load phase: %w", err)
	}
	if err := faults.Set(""); err != nil {
		return nil, err
	}
	st := &ChaosStats{
		Load:        load,
		WrongBytes:  load.VerifyErrors,
		P99:         load.Latency.Quantile(0.99),
		Shed:        srv.Metrics().Shed.Load(),
		Quarantined: srv.Store().Stats().Quarantined,
	}
	stop()

	// restart serves cfg's store afresh under the fault profile rot
	// and checks every entry against its oracle, then clears the
	// faults and stops the server, whose counters stay readable.
	restart := func(rot string) (*service.Server, error) {
		srv, base, stop, err := service.ServeLoopback(cfg)
		if err != nil {
			return nil, err
		}
		defer stop()
		if err := faults.Set(rot); err != nil {
			return nil, err
		}
		for _, o := range oracle {
			if err := o.check(ctx, client, base, codec, st); err != nil {
				return nil, err
			}
		}
		return srv, faults.Set("")
	}

	// Phase 2: every store read flips a bit. No restore may pass; each
	// one is quarantined and rebuilt, and the rebuilt entries must
	// serve phase 1's bytes.
	if srv, err = restart("store.read-at:p=1,bitflip"); err != nil {
		return nil, fmt.Errorf("chaos phase 2: %w", err)
	}
	m := srv.Metrics()
	if warm := m.StoreWarm.Load(); warm != 0 {
		return nil, fmt.Errorf("chaos phase 2: %d warm restores passed with every store read flipping a bit", warm)
	}
	quarantined := srv.Store().Stats().Quarantined
	st.Rebuilt = min(quarantined, m.Packs.Load())
	st.Quarantined += quarantined
	st.Shed += m.Shed.Load()

	// Phase 3: healed, every entry restores warm with phase 1's bytes.
	if srv, err = restart(""); err != nil {
		return nil, fmt.Errorf("chaos phase 3: %w", err)
	}
	if packs := srv.Metrics().Packs.Load(); packs != 0 {
		return nil, fmt.Errorf("chaos phase 3: healed restart packed %d containers, want warm restores only", packs)
	}
	st.WarmRestores = srv.Metrics().StoreWarm.Load()
	st.Quarantined += srv.Store().Stats().Quarantined
	st.Shed += srv.Metrics().Shed.Load()
	st.Injected = map[string]int64{
		faults.KindLatency:   faults.InjectedTotal(faults.KindLatency),
		faults.KindTransient: faults.InjectedTotal(faults.KindTransient),
		faults.KindBitFlip:   faults.InjectedTotal(faults.KindBitFlip),
	}
	return st, nil
}

// chaosEntry is one entry the chaos scenario restarts, with the
// container phase 1 served as its oracle.
type chaosEntry struct {
	workload  string
	container []byte
}

// check fetches the entry from the server at base and compares the
// container with the oracle, and every block and every single-word
// span with its unpacked image through the devices' check, counting
// each response that differs in st.WrongBytes. A failed request is an
// error: phases 2 and 3 inject no fault a request can reach.
func (o chaosEntry) check(ctx context.Context, client *http.Client, base, codecName string, st *ChaosStats) error {
	container, _, err := get(ctx, client, base+"/v1/pack/"+o.workload+"?codec="+codecName, false, nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(container, o.container) {
		st.WrongBytes++
	}
	prog, codec, _, err := pack.Unpack(o.workload, o.container)
	if err != nil {
		return fmt.Errorf("oracle unpack: %w", err)
	}
	want, err := prog.AllBlockBytes()
	if err != nil {
		return err
	}
	var scratch []byte
	for id, img := range want {
		blockURL := fmt.Sprintf("%s/v1/block/%s/%d?codec=%s", base, o.workload, id, codecName)
		// w = -1 fetches the whole block; w >= 0 reads word w alone.
		for w := -1; w < len(img)/isa.WordSize; w++ {
			url, span := blockURL, img
			if w >= 0 {
				url = fmt.Sprintf("%s&word=%d&words=1", blockURL, w)
				span = img[w*isa.WordSize : (w+1)*isa.WordSize]
			}
			body, hdr, err := get(ctx, client, url, false, nil)
			if err != nil {
				return err
			}
			if scratch, err = check(codec, body, hdr, span, scratch, w < 0); err != nil {
				st.WrongBytes++
			}
		}
	}
	return nil
}
