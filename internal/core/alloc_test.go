package core

import (
	"testing"

	"apbcc/internal/cfg"
)

// TestEnterBlockHotPathAllocs pins the steady-state allocation cost of
// the runtime's hot path: entering a block whose unit already has a
// live copy must allocate at most the returned *Transition (1 alloc),
// nothing else — no event records, no per-entry buffers, no site churn.
func TestEnterBlockHotPathAllocs(t *testing.T) {
	p := buildProgram(t, cfg.Figure1())
	m := newManager(t, p, func(c *Config) {
		c.RecordEvents = false // the event log is allowed to allocate
		c.CompressK = 1 << 30  // no deletes during the measurement
	})

	// Walk to the B3<->B4 inner loop and enter both blocks once so both
	// units hold live copies and their branch sites are patched.
	b3, b4 := cfg.BlockID(3), cfg.BlockID(4)
	prev := cfg.None
	for _, b := range []cfg.BlockID{0, 1, 3, 4, 3, 4} {
		if _, err := m.EnterBlock(prev, b); err != nil {
			t.Fatal(err)
		}
		prev = b
	}

	from, to := b3, b4
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.EnterBlock(from, to); err != nil {
			t.Fatal(err)
		}
		from, to = to, from
	})
	if allocs > 1 {
		t.Errorf("EnterBlock hot-path allocs/op = %.1f, want <= 1 (the Transition)", allocs)
	}
	// The copies must still verify after the hot loop.
	for _, b := range []cfg.BlockID{b3, b4} {
		if _, err := copyBytes(m, m.UnitOf(b)); err != nil {
			t.Fatal(err)
		}
	}
}
