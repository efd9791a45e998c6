package loadgen

import (
	"context"
	"strings"
	"testing"

	"apbcc/internal/faults"
	"apbcc/internal/service"
)

// resetFaults clears the process-global fault layer before and after a
// test that configures it. Tests using it must not run in parallel.
func resetFaults(t *testing.T) {
	t.Helper()
	faults.Reset()
	t.Cleanup(faults.Reset)
}

// TestChaosScenario runs the full three-phase chaos harness with a
// fixed seed: injected decode latency, block GET latency and transient
// errors during a block and word load; a restart whose every
// store read flips a bit, so each warm restore is quarantined and
// rebuilt and every block and word is checked; and a healed restart
// that restores warm — with zero wrong bytes end to end.
func TestChaosScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenario is seconds-long")
	}
	resetFaults(t)
	cfg := service.Config{
		Workers: 2, QueueDepth: 32, StoreDir: t.TempDir(), TraceRing: -1,
	}
	lcfg := Config{
		Workload: "sha", Codec: "dict", Clients: 4, Steps: 60, Seed: 7,
	}
	// The in-process clients unpack their oracle through the same
	// process-global fault layer, so compress.decode carries latency
	// only here; the transient errors land on the first three block
	// GETs, which the clients retry.
	profile := "compress.decode:p=0.2,lat=1ms;service.block:p=0.2,lat=1ms;service.block:p=1,err,n=3"
	st, err := RunChaos(context.Background(), cfg, lcfg, profile, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if st.WrongBytes != 0 {
		t.Fatalf("wrong bytes = %d, want 0", st.WrongBytes)
	}
	if st.Injected[faults.KindTransient] == 0 || st.Injected[faults.KindBitFlip] == 0 {
		t.Fatalf("injected %v — the run exercised nothing", st.Injected)
	}
	if st.Load.WordReads == 0 {
		t.Fatal("phase 1 issued no word reads")
	}
	if st.Rebuilt != 1 || st.WarmRestores != 1 {
		t.Fatalf("rebuilt restores = %d, warm restores = %d; want 1 and 1", st.Rebuilt, st.WarmRestores)
	}
	var sb strings.Builder
	if err := st.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"wrong_bytes", "rebuilt_restores", "warm_restores"} {
		if !strings.Contains(sb.String(), row) {
			t.Fatalf("report missing %s row:\n%s", row, sb.String())
		}
	}
}
