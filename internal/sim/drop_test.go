package sim

import (
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/core"
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

// TestEvictedPrefetchCostsNoCycles: under a memory budget, a
// transition's later prefetch can evict an earlier one it issued. The
// decompression thread must spend no cycles on such a job, so its busy
// time stays within the cycles of the prefetches that survived their
// issuing transition.
func TestEvictedPrefetchCostsNoCycles(t *testing.T) {
	for _, name := range []string{"zipf", "mpeg2motion"} {
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
		conf.BudgetBytes = free.CompressedSize + (free.PeakResident-free.CompressedSize)/2
		conf.RecordEvents = true
		m, tr = newCell(t, w, conf)
		res, err := Run(m, tr, DefaultCosts())
		if err != nil {
			t.Fatal(err)
		}

		cost := m.CodecCost()
		var bound int64
		evicted := 0
		issued := map[core.UnitID]bool{} // prefetched on the current edge
		clock := int64(-1)
		settle := func() {
			for u := range issued {
				bound += cost.DecompressCycles(m.UnitBytes(u))
			}
			clear(issued)
		}
		for _, ev := range m.Events() {
			if ev.Clock != clock {
				settle()
				clock = ev.Clock
			}
			switch ev.Kind {
			case core.EvPreDecompress:
				issued[ev.Unit] = true
			case core.EvEvict:
				if issued[ev.Unit] {
					delete(issued, ev.Unit)
					evicted++
				}
			}
		}
		settle()
		if evicted == 0 {
			t.Fatalf("%s: no prefetch was evicted by its own transition; the budget exercises nothing", name)
		}
		if res.DecompThreadBusy > bound {
			t.Errorf("%s: decompression thread busy %d cycles, above the %d of prefetches that survived their transition (%d evicted by it)",
				name, res.DecompThreadBusy, bound, evicted)
		}
	}
}
