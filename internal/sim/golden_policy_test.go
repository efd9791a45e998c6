package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"apbcc/internal/compress"
	"apbcc/internal/core"
	"apbcc/internal/policy"
	"apbcc/internal/trace"
	"apbcc/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata fixtures of the tests that run from the current implementation")

// goldenCell is one (workload, configuration) run captured in the
// fixture: the full policy-level counter set, the total cycle count and
// an order-sensitive hash of the complete event stream.
type goldenCell struct {
	Workload string     `json:"workload"`
	Config   string     `json:"config"`
	Stats    core.Stats `json:"stats"`
	Cycles   int64      `json:"cycles"`
	Events   int        `json:"events"`
	EventsH  uint64     `json:"events_hash"`
}

const goldenSteps = 2000

// goldenConfigs enumerates the configurations the fixture locks down:
// every decompression strategy plus budget-eviction mode, so the
// demand, prefetch, k-edge delete and LRU eviction paths are all
// exercised.
func goldenConfigs(w *workloads.Workload, codec compress.Codec) ([]core.Config, []string, error) {
	confs := []core.Config{
		{Codec: codec, CompressK: 4, Strategy: core.OnDemand},
		{Codec: codec, CompressK: 4, Strategy: core.PreAll, DecompressK: 2},
		{Codec: codec, CompressK: 4, Strategy: core.PreSingle, DecompressK: 2,
			Predictor: trace.NewMarkov(w.Program.Graph)},
	}
	names := []string{"on-demand", "pre-all", "pre-single-markov"}

	// Budget mode: cap halfway between the compressed floor and the
	// unconstrained peak of a probe run, forcing LRU evictions.
	probe, err := core.NewManager(w.Program, core.Config{Codec: codec, CompressK: 2})
	if err != nil {
		return nil, nil, err
	}
	tr, err := w.Trace()
	if err != nil {
		return nil, nil, err
	}
	tr.Blocks = tr.Blocks[:goldenSteps]
	if _, err := Run(probe, tr, DefaultCosts()); err != nil {
		return nil, nil, err
	}
	peak := probe.Occupancy().Peak()
	budget := probe.CompressedSize() + (peak-probe.CompressedSize())/2
	if budget >= probe.CompressedSize()+largestUnit(probe) {
		confs = append(confs, core.Config{Codec: codec, CompressK: 2, Strategy: core.OnDemand, BudgetBytes: budget})
		names = append(names, "on-demand-budget")
		confs = append(confs, core.Config{Codec: codec, CompressK: 2, Strategy: core.PreAll, DecompressK: 2, BudgetBytes: budget})
		names = append(names, "pre-all-budget")
	}
	return confs, names, nil
}

func largestUnit(m *core.Manager) int {
	max := 0
	for u := 0; u < m.NumUnits(); u++ {
		if b := m.UnitBytes(core.UnitID(u)); b > max {
			max = b
		}
	}
	return max
}

func runGoldenCell(w *workloads.Workload, conf core.Config) (*goldenCell, error) {
	conf.RecordEvents = true
	m, err := core.NewManager(w.Program, conf)
	if err != nil {
		return nil, err
	}
	tr, err := w.Trace()
	if err != nil {
		return nil, err
	}
	tr.Blocks = tr.Blocks[:goldenSteps]
	res, err := Run(m, tr, DefaultCosts())
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	for _, ev := range m.Events() {
		fmt.Fprintf(h, "%d:%d:%d:%d;", ev.Kind, ev.Block, ev.Unit, ev.Clock)
	}
	return &goldenCell{
		Workload: w.Name,
		Stats:    res.Core,
		Cycles:   res.Cycles,
		Events:   len(m.Events()),
		EventsH:  h.Sum64(),
	}, nil
}

// TestDefaultPolicyMatchesSeedGolden proves the default replacement and
// prefetch policy (klru) reproduces the seed Manager's behavior
// exactly: for every workload in the suite under every strategy (plus
// budget mode), the complete event stream, cycle count and Stats must
// match the fixture captured from the pre-refactor implementation.
// Regenerate deliberately with -update-golden after an intentional
// policy-semantics change.
func TestDefaultPolicyMatchesSeedGolden(t *testing.T) {
	// The zipf/loopphase scenarios postdate the seed fixture; the suite
	// originals are the equivalence witnesses.
	seedSuite := map[string]bool{
		"adpcm": true, "crc32": true, "dijkstra": true, "fft": true, "fir": true,
		"jpegdct": true, "mpeg2motion": true, "sha": true, "susan": true,
	}
	all, err := workloads.Suite()
	if err != nil {
		t.Fatal(err)
	}
	var cells []goldenCell
	for _, w := range all {
		if !seedSuite[w.Name] {
			continue
		}
		code, err := w.Program.CodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		codec, err := compress.New("dict", code)
		if err != nil {
			t.Fatal(err)
		}
		confs, names, err := goldenConfigs(w, codec)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for i, conf := range confs {
			cell, err := runGoldenCell(w, conf)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, names[i], err)
			}
			cell.Config = names[i]
			cells = append(cells, *cell)
		}
	}

	checkGolden(t, "seed_golden.json", cells)
}

// TestPoliciesMatchGolden pins the three alternative policies the way
// the seed fixture pins klru: every E4 workload under every golden
// configuration must reproduce the event stream, cycle count and Stats
// recorded in the fixture. The budget configurations force evictions,
// so each policy's victim rule is exercised, not just its prefetch.
func TestPoliciesMatchGolden(t *testing.T) {
	var cells []goldenCell
	for _, wname := range []string{"zipf", "loopphase", "jpegdct", "mpeg2motion"} {
		w, err := workloads.ByName(wname)
		if err != nil {
			t.Fatal(err)
		}
		code, err := w.Program.CodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		codec, err := compress.New("dict", code)
		if err != nil {
			t.Fatal(err)
		}
		_, names, err := goldenConfigs(w, codec)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, pname := range []string{"cost-aware", "lfu", "markov-prefetch"} {
			for i := range names {
				// Policies and the pre-single predictor carry per-run
				// state, so every cell gets fresh ones.
				confs, _, err := goldenConfigs(w, codec)
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				conf := confs[i]
				if conf.Policy, err = policy.New[core.UnitID](pname); err != nil {
					t.Fatal(err)
				}
				cell, err := runGoldenCell(w, conf)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", w.Name, pname, names[i], err)
				}
				cell.Config = pname + "/" + names[i]
				cells = append(cells, *cell)
			}
		}
	}
	checkGolden(t, "policy_golden.json", cells)
}

// checkGolden compares cells with testdata/<file>, or rewrites the
// fixture under -update-golden.
func checkGolden(t *testing.T, file string, cells []goldenCell) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(cells, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(cells), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
	}
	var want []goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cells) {
		t.Fatalf("fixture has %d cells, run produced %d", len(want), len(cells))
	}
	for i, g := range cells {
		wc := want[i]
		if g.Workload != wc.Workload || g.Config != wc.Config {
			t.Fatalf("cell %d is %s/%s, fixture has %s/%s", i, g.Workload, g.Config, wc.Workload, wc.Config)
		}
		if g.Stats != wc.Stats {
			t.Errorf("%s/%s: stats diverged from the fixture\n got %+v\nwant %+v", g.Workload, g.Config, g.Stats, wc.Stats)
		}
		if g.Cycles != wc.Cycles {
			t.Errorf("%s/%s: cycles %d, fixture %d", g.Workload, g.Config, g.Cycles, wc.Cycles)
		}
		if g.Events != wc.Events || g.EventsH != wc.EventsH {
			t.Errorf("%s/%s: event stream diverged from the fixture (%d events hash %x, fixture %d hash %x)",
				g.Workload, g.Config, g.Events, g.EventsH, wc.Events, wc.EventsH)
		}
	}
}
