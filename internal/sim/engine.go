package sim

import (
	"fmt"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/core"
	"apbcc/internal/trace"
)

// Engine is the reusable three-thread timing core. internal/sim.Run
// drives it from a pre-recorded trace; internal/machine drives it from
// live VM execution. One Enter call per block entry plus Exec calls for
// executed instructions; Result finalizes.
type Engine struct {
	m     *core.Manager
	costs CostModel
	codec compress.CostModel
	res   *Result

	now       int64
	dec       *decompThread
	compFree  int64
	compQueue []cJob
}

// NewEngine builds a timing engine over a fresh manager.
func NewEngine(m *core.Manager, costs CostModel) *Engine {
	res := &Result{
		CompressedSize:   m.CompressedSize(),
		UncompressedSize: m.UncompressedSize(),
	}
	return &Engine{
		m:     m,
		costs: costs,
		codec: m.CodecCost(),
		res:   res,
		dec:   &decompThread{m: m, busy: &res.DecompThreadBusy},
	}
}

// Now returns the current cycle count.
func (e *Engine) Now() int64 { return e.now }

// completeCompression retires compression-thread jobs due by now.
func (e *Engine) completeCompression() error {
	keep := e.compQueue[:0]
	for _, j := range e.compQueue {
		if j.finish <= e.now {
			if j.kind == core.JobWriteback {
				if err := e.m.FinishDelete(j.unit); err != nil {
					return err
				}
			}
		} else {
			keep = append(keep, j)
		}
	}
	e.compQueue = keep
	return nil
}

// Enter advances the runtime across one block entry, charging all
// critical-path costs and scheduling background work. prev is cfg.None
// for the initial entry and after a program restart.
func (e *Engine) Enter(prev, b cfg.BlockID) error {
	e.dec.advance(e.now)
	if err := e.completeCompression(); err != nil {
		return err
	}
	before := e.now
	x, err := e.m.EnterBlock(prev, b)
	if err != nil {
		return err
	}
	if x.Exception {
		e.now += int64(e.costs.ExceptionCycles)
		e.res.ExceptionOverhead += int64(e.costs.ExceptionCycles)
	}
	if x.Patches > 0 {
		c := int64(x.Patches * e.costs.PatchCycles)
		e.now += c
		e.res.PatchOverhead += c
	}
	if x.Evicted > 0 {
		c := int64(x.Evicted * e.costs.EvictCycles)
		e.now += c
		e.res.EvictOverhead += c
	}
	if x.WritebackWaits > 0 {
		c := int64(x.WritebackWaits * e.costs.WritebackWaitCycles)
		e.now += c
		e.res.StallCycles += c
	}
	switch {
	case x.Demand != nil:
		stall := e.codec.DecompressCycles(x.Demand.Bytes)
		e.now += stall
		e.res.StallCycles += stall
		e.res.DemandStallCycles += stall
		e.m.FinishDecompress(*x.Demand)
	case x.InFlight:
		stall := e.dec.waitFor(e.now, e.m.UnitOf(b))
		e.now += stall
		e.res.StallCycles += stall
	default:
		e.dec.advance(e.now)
	}
	for _, d := range x.Deletes {
		start := e.compFree
		if e.now > start {
			start = e.now
		}
		var dur int64
		if d.Kind == core.JobWriteback {
			dur = e.codec.CompressCycles(d.Bytes) + int64(d.Sites*e.costs.PatchCycles)
		} else {
			dur = int64(e.costs.DeleteFixed) + int64(d.Sites*e.costs.PatchCycles)
		}
		e.compFree = start + dur
		e.res.CompThreadBusy += dur
		e.compQueue = append(e.compQueue, cJob{unit: d.Unit, kind: d.Kind, finish: start + dur})
	}
	for _, p := range x.Prefetches {
		e.dec.issue(e.now, p, e.codec.DecompressCycles(p.Bytes))
	}
	e.m.Occupancy().Tick(e.now-before, e.m.Resident())
	return nil
}

// Exec charges execution time for n instruction words.
func (e *Engine) Exec(n int) {
	c := int64(n * e.costs.CPI)
	e.now += c
	e.res.BaseCycles += c
	e.m.Occupancy().Tick(c, e.m.Resident())
}

// ChargeEvict charges a synchronous eviction performed outside
// EnterBlock (a cross-application coordinator reclaiming shared
// memory), with its branch-site patches.
func (e *Engine) ChargeEvict(patches int) {
	c := int64(e.costs.EvictCycles) + int64(patches*e.costs.PatchCycles)
	e.now += c
	e.res.EvictOverhead += c
}

// Result drains the background threads and finalizes the metrics. The
// engine must not be used afterwards.
func (e *Engine) Result() (*Result, error) {
	if e.compFree > e.now {
		e.now = e.compFree
	}
	e.dec.advance(e.now)
	if err := e.completeCompression(); err != nil {
		return nil, err
	}
	e.res.Cycles = e.now
	e.res.Core = e.m.Stats()
	e.res.PeakResident = e.m.Occupancy().Peak()
	e.res.AvgResident = e.m.Occupancy().Average()
	return e.res, nil
}

// Run simulates the trace over the manager and returns the metrics.
// The manager must be freshly built (no prior EnterBlock calls).
func Run(m *core.Manager, tr *trace.Trace, costs CostModel) (*Result, error) {
	if tr.Len() == 0 {
		return nil, fmt.Errorf("sim: empty trace")
	}
	e := NewEngine(m, costs)
	graph := m.Program().Graph
	prev := cfg.None
	for step, b := range tr.Blocks {
		if prev != cfg.None && len(graph.Succs(prev)) == 0 {
			// The program finished and was re-invoked: a fresh entry,
			// not a CFG edge.
			prev = cfg.None
		}
		if err := e.Enter(prev, b); err != nil {
			return nil, fmt.Errorf("sim: step %d: %w", step, err)
		}
		e.Exec(graph.Block(b).Words())
		prev = b
	}
	return e.Result()
}
