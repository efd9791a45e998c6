package faults

import (
	"errors"
	"testing"
	"time"
)

// Sites used across the tests. Registered once; tests reconfigure
// them via Set/Reset.
var (
	tsA = Register("test.site-a")
	tsB = Register("test.site-b")
)

func reset(t *testing.T) {
	t.Helper()
	Reset()
	t.Cleanup(Reset)
}

func TestDisabledIsInert(t *testing.T) {
	reset(t)
	buf := []byte{0xAA, 0xBB}
	for i := 0; i < 100; i++ {
		if err := tsA.Err(); err != nil {
			t.Fatalf("unarmed Err() = %v", err)
		}
		if tsA.Mangle(buf) {
			t.Fatal("unarmed Mangle flipped a bit")
		}
	}
	if buf[0] != 0xAA || buf[1] != 0xBB {
		t.Fatalf("buffer changed while unarmed: %x", buf)
	}
}

func TestSpecParse(t *testing.T) {
	reset(t)
	bad := []string{
		"nope",                       // no colon
		"test.site-a:p=2,err",        // probability out of range
		"test.site-a:lat=xyz",        // bad duration
		"test.site-a:p=0.5",          // no action kind
		"test.site-a:err,frobnicate", // unknown option
		"unregistered.site:err",      // unknown site
		"test.site-a:err,n=0",        // bad limit
	}
	for _, spec := range bad {
		if err := Set(spec); err == nil {
			t.Errorf("Set(%q) accepted a bad spec", spec)
		}
	}
	good := "test.site-a:p=0.25,lat=1ms; test.site-a:err,n=3 ;test.site-b:p=0.5,bitflip"
	if err := Set(good); err != nil {
		t.Fatalf("Set(%q): %v", good, err)
	}
	if len(tsA.actions) != 2 || len(tsB.actions) != 1 {
		t.Fatalf("action counts = %d, %d; want 2, 1", len(tsA.actions), len(tsB.actions))
	}
	if !tsA.armed.Load() || !tsB.armed.Load() {
		t.Fatal("Set did not arm the sites it named")
	}
	if err := Set("test.site-a:err"); err != nil {
		t.Fatal(err)
	}
	if !tsA.armed.Load() || tsB.armed.Load() || len(tsB.actions) != 0 {
		t.Fatal("Set left a site it no longer names armed")
	}
	if err := Set(""); err != nil {
		t.Fatalf("Set(\"\"): %v", err)
	}
	if tsA.armed.Load() || tsB.armed.Load() {
		t.Fatal("empty spec left a site armed")
	}
}

func TestTransientAndLimit(t *testing.T) {
	reset(t)
	if err := Set("test.site-a:p=1,err,n=2"); err != nil {
		t.Fatal(err)
	}
	var errs int
	for i := 0; i < 5; i++ {
		if err := tsA.Err(); err != nil {
			errs++
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("injected error %v does not wrap ErrTransient", err)
			}
		}
	}
	if errs != 2 {
		t.Fatalf("n=2 limit fired %d times", errs)
	}
	if got := InjectedTotal(KindTransient); got != 2 {
		t.Fatalf("InjectedTotal(transient) = %d, want 2", got)
	}
}

func TestBitFlipFlipsExactlyOneBit(t *testing.T) {
	reset(t)
	if err := Set("test.site-b:p=1,bitflip,n=1"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if !tsB.Mangle(buf) {
		t.Fatal("p=1 bitflip did not fire")
	}
	ones := 0
	for _, b := range buf {
		for ; b != 0; b &= b - 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Fatalf("bitflip changed %d bits, want 1", ones)
	}
	if tsB.Mangle(buf) {
		t.Fatal("n=1 bitflip fired twice")
	}
}

func TestDeterministicReplay(t *testing.T) {
	reset(t)
	run := func() []bool {
		SetSeed(42)
		if err := Set("test.site-a:p=0.5,err"); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = tsA.Err() != nil
		}
		Reset()
		return out
	}
	a, b := run(), run()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between replays", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("p=0.5 produced %d/%d hits: stream looks degenerate", hits, len(a))
	}
}

func TestSeedChangesStream(t *testing.T) {
	reset(t)
	draw := func(seed uint64) []bool {
		SetSeed(seed)
		if err := Set("test.site-a:p=0.5,err"); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = tsA.Err() != nil
		}
		Reset()
		return out
	}
	a, b := draw(1), draw(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestLatencyAction(t *testing.T) {
	reset(t)
	if err := Set("test.site-a:p=1,lat=10ms,n=1"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := tsA.Err(); err != nil {
		t.Fatalf("latency-only action returned error %v", err)
	}
	if d := time.Since(start); d < 8*time.Millisecond {
		t.Fatalf("latency action slept %v, want >= ~10ms", d)
	}
	if got := InjectedTotal(KindLatency); got != 1 {
		t.Fatalf("InjectedTotal(latency) = %d, want 1", got)
	}
}

func TestDisabledPathAllocs(t *testing.T) {
	reset(t)
	buf := make([]byte, 32)
	allocs := testing.AllocsPerRun(1000, func() {
		if tsA.Err() != nil {
			t.Fatal("unexpected injection")
		}
		tsA.Mangle(buf)
	})
	if allocs != 0 {
		t.Fatalf("unarmed failpoint path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkSiteDisabled is the cost of carrying a failpoint on a hot
// path with the site unarmed: the BENCH snapshot asserts 0 B/op here.
func BenchmarkSiteDisabled(b *testing.B) {
	Reset()
	buf := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tsA.Err(); err != nil {
			b.Fatal(err)
		}
		tsA.Mangle(buf)
	}
}
