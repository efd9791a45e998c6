package core

import (
	"testing"

	"apbcc/internal/cfg"
)

// filterEvents returns the subsequence of events matching any of the
// given kinds, preserving order.
func filterEvents(events []Event, kinds ...EventKind) []Event {
	want := make(map[EventKind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var out []Event
	for _, e := range events {
		if want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

func TestFilterEvents(t *testing.T) {
	events := []Event{
		{Kind: EvEnter, Block: 0, Clock: 1},
		{Kind: EvException, Block: 1, Clock: 2},
		{Kind: EvDecompress, Block: 1, Clock: 2},
		{Kind: EvEnter, Block: 1, Clock: 2},
		{Kind: EvDelete, Block: 0, Clock: 3},
	}
	got := filterEvents(events, EvEnter)
	if len(got) != 2 || got[0].Block != 0 || got[1].Block != 1 {
		t.Errorf("filterEvents(enter) = %v", got)
	}
	got = filterEvents(events, EvException, EvDelete)
	if len(got) != 2 || got[0].Kind != EvException || got[1].Kind != EvDelete {
		t.Errorf("filterEvents(exc,del) = %v", got)
	}
	if filterEvents(events) != nil {
		t.Error("empty filter should match nothing")
	}
	if filterEvents(nil, EvEnter) != nil {
		t.Error("nil events")
	}
}

func TestEventLogDisabledByDefault(t *testing.T) {
	p := buildProgram(t, cfg.Figure5())
	m := newManager(t, p, func(c *Config) { c.RecordEvents = false })
	drive(t, m, p, "B0", "B1", "B3")
	if len(m.Events()) != 0 {
		t.Errorf("events recorded with RecordEvents=false: %d", len(m.Events()))
	}
}

func TestEventLogOrderMatchesClock(t *testing.T) {
	p := buildProgram(t, cfg.Figure5())
	m := newManager(t, p, nil) // RecordEvents=true in the helper
	drive(t, m, p, "B0", "B1", "B0", "B1", "B3")
	events := m.Events()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Clock < events[i-1].Clock {
			t.Fatalf("event %d clock %d before predecessor %d", i, events[i].Clock, events[i-1].Clock)
		}
	}
	// The final event of each edge group is the enter event.
	last := events[len(events)-1]
	if last.Kind != EvEnter && last.Kind != EvDelete {
		t.Errorf("last event kind = %v", last.Kind)
	}
}

func TestForceEvictAndOldestLiveUse(t *testing.T) {
	p := buildProgram(t, cfg.Figure5())
	m := newManager(t, p, func(c *Config) { c.CompressK = 100 })
	if _, ok := m.OldestLiveUse(); ok {
		t.Error("fresh manager reports a live unit")
	}
	if _, _, ok := m.ForceEvict(); ok {
		t.Error("fresh manager evicted something")
	}
	drive(t, m, p, "B0", "B1")
	// B0 is the oldest live; the current unit (B1) is protected.
	clock, ok := m.OldestLiveUse()
	if !ok || clock != 1 {
		t.Errorf("oldest live = %d,%v want 1,true", clock, ok)
	}
	before := m.Resident()
	b0, _ := p.Graph.BlockByLabel("B0")
	freed, _, ok := m.ForceEvict()
	if !ok || freed != b0.Bytes() {
		t.Errorf("ForceEvict = %d,%v want %d,true", freed, ok, b0.Bytes())
	}
	if m.Resident() != before-freed {
		t.Error("resident not reduced by eviction")
	}
	if m.IsLive(m.UnitOf(b0.ID)) {
		t.Error("B0 still live after forced eviction")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if m.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", m.Stats().Evictions)
	}
	// Only B1 (current) remains: not evictable.
	if _, _, ok := m.ForceEvict(); ok {
		t.Error("evicted the currently-executing unit")
	}
}
