package core

import (
	"testing"
	"testing/quick"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/program"
	"apbcc/internal/trace"
)

// TestManagerPropertyRandomRuns drives random configurations over random
// traces and checks the full invariant set after every single edge:
// allocator consistency, counter/liveness coupling, patch implications
// and budget compliance.
func TestManagerPropertyRandomRuns(t *testing.T) {
	figures := []func() *cfg.Graph{cfg.Figure1, cfg.Figure2, cfg.Figure5}
	codecs := []string{"dict", "lzss", "huffman", "identity", "cpack", "bdi"}
	f := func(seed int64) bool {
		r := seed
		next := func(n int64) int64 { // cheap deterministic splitter
			r = r*6364136223846793005 + 1442695040888963407
			v := r % n
			if v < 0 {
				v += n
			}
			return v
		}
		g := figures[next(int64(len(figures)))]()
		if next(2) == 0 {
			// Exercise function granularity with a two-way clustering.
			for _, b := range g.Blocks() {
				if int(b.ID)%2 == 0 {
					b.Func = "even"
				} else {
					b.Func = "odd"
				}
			}
		}
		p, err := program.Synthesize("prop", g, seed)
		if err != nil {
			t.Log(err)
			return false
		}
		code, err := p.CodeBytes()
		if err != nil {
			return false
		}
		codec, err := compress.New(codecs[next(int64(len(codecs)))], code)
		if err != nil {
			return false
		}
		conf := Config{
			Codec:     codec,
			CompressK: int(1 + next(8)),
			Strategy:  Strategy(next(3)),
		}
		if conf.Strategy != OnDemand {
			conf.DecompressK = int(1 + next(4))
		}
		if conf.Strategy == PreSingle {
			if next(2) == 0 {
				conf.Predictor = trace.NewStatic(p.Graph)
			} else {
				conf.Predictor = trace.NewMarkov(p.Graph)
			}
		}
		if next(2) == 0 {
			conf.Granularity = GranFunction
		}
		if next(2) == 0 {
			conf.WritebackCompression = true
			// Writeback holds dead copies until the compression thread
			// catches up, so give it extra headroom over the default.
			conf.ManagedBytes = 4 * p.TotalBytes()
		}
		m, err := NewManager(p, conf)
		if err != nil {
			t.Log(err)
			return false
		}
		if next(3) == 0 {
			// Budget mode: tight but feasible.
			budget := m.CompressedSize() + m.UncompressedSize()/2
			conf.BudgetBytes = budget
			m, err = NewManager(p, conf)
			if err != nil {
				// Tight budgets can be infeasible for function units;
				// that rejection is itself correct behaviour.
				return true
			}
		}
		tr, err := trace.Generate(p.Graph, trace.GenConfig{Seed: seed, MaxSteps: 400})
		if err != nil {
			return false
		}
		prev := cfg.None
		pendingDeletes := map[UnitID]int{}
		for i, b := range tr.Blocks {
			x, err := m.EnterBlock(prev, b)
			if err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
			// Model an eager simulator: finish decompressions right
			// away and writebacks a step later.
			if x.Demand != nil {
				m.FinishDecompress(*x.Demand)
			}
			for _, j := range x.Prefetches {
				m.FinishDecompress(j)
			}
			for u, n := range pendingDeletes {
				for k := 0; k < n; k++ {
					if err := m.FinishDelete(u); err != nil {
						t.Logf("seed %d step %d: %v", seed, i, err)
						return false
					}
				}
				delete(pendingDeletes, u)
			}
			for _, j := range x.Deletes {
				if j.Kind == JobWriteback {
					pendingDeletes[j.Unit]++
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
			m.Occupancy().Tick(10, m.Resident())
			prev = b
		}
		s := m.Stats()
		if s.Hits+s.DemandDecompresses != s.Entries {
			// Every entry either hit a copy or demanded a decompression
			// ... except unit-internal edges which count as hits; the
			// identity must still hold.
			t.Logf("seed %d: hits %d + demand %d != entries %d", seed, s.Hits, s.DemandDecompresses, s.Entries)
			return false
		}
		if m.Occupancy().Peak() < m.CompressedSize() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
