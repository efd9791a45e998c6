package sim

import (
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/core"
	"apbcc/internal/policy"
	"apbcc/internal/trace"
	"apbcc/internal/workloads"
)

// newCell builds a manager for one workload (dict codec trained on the
// workload) and the workload's own trace: 20,000 steps from its seed.
func newCell(t *testing.T, w *workloads.Workload, conf core.Config) (*core.Manager, *trace.Trace) {
	t.Helper()
	code, err := w.Program.CodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if conf.Codec, err = compress.New("dict", code); err != nil {
		t.Fatal(err)
	}
	m, err := core.NewManager(w.Program, conf)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

// TestStallsOnlyOnDemandOrInFlight: an entry stalls only when the
// Manager demands a decompression or finds the target's prefetch in
// flight (a prefetch hit: a copy still in flight was never entered, so
// its sites are unpatched and the entry traps). Strict counters delete
// and re-issue prefetched copies on almost every edge, so stale jobs
// abound; none may charge an entry that found a finished copy.
func TestStallsOnlyOnDemandOrInFlight(t *testing.T) {
	all, err := workloads.Suite()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range all {
		m, tr := newCell(t, w, core.Config{CompressK: 4, Strategy: core.PreAll, DecompressK: 2, StrictCounters: true})
		e := NewEngine(m, DefaultCosts())
		graph := m.Program().Graph
		prev := cfg.None
		bad, first := 0, -1
		for step, b := range tr.Blocks {
			if prev != cfg.None && len(graph.Succs(prev)) == 0 {
				prev = cfg.None
			}
			stall, st := e.res.StallCycles, m.Stats()
			if err := e.Enter(prev, b); err != nil {
				t.Fatalf("%s step %d: %v", w.Name, step, err)
			}
			after := m.Stats()
			if e.res.StallCycles > stall &&
				after.DemandDecompresses == st.DemandDecompresses && after.PrefetchHits == st.PrefetchHits {
				if bad++; first < 0 {
					first = step
				}
			}
			e.Exec(graph.Block(b).Words())
			prev = b
		}
		if bad > 0 {
			t.Errorf("%s: %d entries neither demanded nor in flight were charged a stall (first at step %d)", w.Name, bad, first)
		}
	}
}

// TestOnlyDemandEvicts: under E4's memory budget (pre-all, kc 4, kd 2,
// halfway between the compressed floor and the unconstrained peak),
// every transition that evicts a copy demands a decompression. A
// prefetch that does not fit is skipped instead, so it never evicts a
// copy the same edge just prefetched, nor charges an eviction to the
// critical path.
func TestOnlyDemandEvicts(t *testing.T) {
	for _, name := range []string{"zipf", "loopphase", "jpegdct", "mpeg2motion"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		conf := core.Config{CompressK: 4, Strategy: core.PreAll, DecompressK: 2}
		m, tr := newCell(t, w, conf)
		free, err := Run(m, tr, DefaultCosts())
		if err != nil {
			t.Fatal(err)
		}
		budget := free.CompressedSize + (free.PeakResident-free.CompressedSize)/2
		for _, polName := range policy.Names() {
			pol, err := policy.New[core.UnitID](polName)
			if err != nil {
				t.Fatal(err)
			}
			conf.BudgetBytes, conf.Policy = budget, pol
			m, tr := newCell(t, w, conf)
			e := NewEngine(m, DefaultCosts())
			graph := m.Program().Graph
			prev := cfg.None
			evicting, bad, first := 0, 0, -1
			for step, b := range tr.Blocks {
				if prev != cfg.None && len(graph.Succs(prev)) == 0 {
					prev = cfg.None
				}
				st := m.Stats()
				if err := e.Enter(prev, b); err != nil {
					t.Fatalf("%s/%s step %d: %v", name, polName, step, err)
				}
				if after := m.Stats(); after.Evictions > st.Evictions {
					evicting++
					if after.DemandDecompresses == st.DemandDecompresses {
						if bad++; first < 0 {
							first = step
						}
					}
				}
				e.Exec(graph.Block(b).Words())
				prev = b
			}
			if evicting == 0 {
				t.Fatalf("%s/%s: no transition evicted; the budget exercises nothing", name, polName)
			}
			if bad > 0 {
				t.Errorf("%s/%s: %d of %d evicting transitions demanded no decompression (first at step %d)",
					name, polName, bad, evicting, first)
			}
		}
	}
}
